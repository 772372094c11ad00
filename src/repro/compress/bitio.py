"""Bit-level I/O used by the entropy and dictionary coders.

Bits are written MSB-first within each byte, which is the conventional
layout for canonical Huffman streams in embedded decompressors (it allows
table-driven decoding by peeking at the top bits).

Both directions are *batched*: the encoders pack their fields into
integers and join them with :func:`pack_bits`, and the reader extracts
multi-bit fields straight out of the underlying byte string with one
``int.from_bytes`` over the covered slice.  The stream format is
identical to the original bit-at-a-time implementation (frozen in
``tests/oracle/reference.py``); the property tests assert byte
equality.
"""

from __future__ import annotations

from typing import Sequence, Tuple

#: Input bytes an encoder packs into one accumulator before starting the
#: next piece.  No encoder spends more than 23 bits on an input byte (a
#: shared Huffman escape and its literal), so a piece stays under 6 Kibit,
#: every shift stays cheap and encode time stays linear in the input.
PACK_CHUNK = 256


def pack_bits(pieces: Sequence[Tuple[int, int]]) -> bytes:
    """Concatenate ``(value, width)`` pieces (``width`` bits each, MSB
    first) into bytes, the last one zero-padded to a whole byte.

    Raises :class:`BitIOError` for a negative width, or a value that is
    negative or wider than its piece (an encoder that under-counts a
    piece's bits would otherwise OR them into the piece before it).
    """
    if len(pieces) == 1:
        acc, bits = pieces[0]
        if acc < 0 or acc.bit_length() > bits:
            raise _unfit(acc, bits)
        pad = -bits & 7
        return (acc << pad).to_bytes((bits + pad) >> 3, "big")
    out = bytearray()
    acc = bits = 0
    for value, width in pieces:
        if value < 0 or value.bit_length() > width:
            raise _unfit(value, width)
        acc = (acc << width) | value
        bits += width
        rest = bits & 7
        out += (acc >> rest).to_bytes(bits >> 3, "big")
        acc &= (1 << rest) - 1
        bits = rest
    return bytes(out) + pack_bits(((acc, bits),))


class BitIOError(ValueError):
    """Raised on malformed bit streams (overruns, bad field widths)."""


def _unfit(value: int, width: int) -> BitIOError:
    """The error for a ``(value, width)`` piece :func:`pack_bits`
    cannot write."""
    if width < 0:
        return BitIOError(f"width must be non-negative, got {width}")
    kind = "a negative value" if value < 0 \
        else f"a {value.bit_length()}-bit value"
    return BitIOError(f"{kind} does not fit in {width} bits")


class BitReader:
    """Reads bits MSB-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0  # bit position
        self._total_bits = len(data) * 8

    @property
    def bits_remaining(self) -> int:
        """Number of unread bits (including any padding)."""
        return self._total_bits - self._position

    def read_bit(self) -> int:
        """Read one bit; raises :class:`BitIOError` past the end."""
        position = self._position
        if position >= self._total_bits:
            raise BitIOError("bit stream exhausted")
        byte = self._data[position >> 3]
        self._position = position + 1
        return (byte >> (7 - (position & 7))) & 1

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer."""
        if width < 0:
            raise BitIOError(f"width must be non-negative, got {width}")
        position = self._position
        end = position + width
        if end > self._total_bits:
            raise BitIOError("bit stream exhausted")
        first = position >> 3
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[first:last], "big")
        self._position = end
        return (chunk >> ((last << 3) - end)) & ((1 << width) - 1)

    def read_run(self, width: int, count: int):
        """Read ``count`` consecutive ``width``-bit fields (bulk path).

        Returns a list of unsigned integers, identical to ``count``
        :meth:`read_bits` calls; whole chunks of the underlying bytes
        are converted with one ``int.from_bytes`` each and the fields
        sliced out of the big int, so per-field cost is a shift and a
        mask.  Raises :class:`BitIOError` (without consuming anything)
        when the stream holds fewer than ``width * count`` bits.
        """
        if width < 0:
            raise BitIOError(f"width must be non-negative, got {width}")
        if count < 0:
            raise BitIOError(f"count must be non-negative, got {count}")
        position = self._position
        end = position + width * count
        if end > self._total_bits:
            raise BitIOError("bit stream exhausted")
        if width == 0:
            return [0] * count
        out = []
        append = out.append
        mask = (1 << width) - 1
        data = self._data
        step = max(1, 2048 // width)
        for start in range(0, count, step):
            fields = min(step, count - start)
            stop = position + fields * width
            first = position >> 3
            last = (stop + 7) >> 3
            big = int.from_bytes(data[first:last], "big") \
                >> ((last << 3) - stop)
            for index in range(fields - 1, -1, -1):
                append((big >> (index * width)) & mask)
            position = stop
        self._position = end
        return out

    def peek_bits(self, width: int) -> int:
        """Return the next ``width`` bits without consuming them.

        Bits past the end of the stream read as zero (the writer pads the
        final byte with zeros, so this matches the on-disk layout); callers
        that care about truncation must bound their advance by
        :attr:`bits_remaining`.
        """
        position = self._position
        end = position + width
        total = self._total_bits
        pad = 0
        if end > total:
            pad = end - total
            end = total
        first = position >> 3
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[first:last], "big")
        value = (chunk >> ((last << 3) - end)) & ((1 << (width - pad)) - 1)
        return value << pad

    def skip_bits(self, width: int) -> None:
        """Advance the read position by ``width`` bits."""
        if width < 0:
            raise BitIOError(f"width must be non-negative, got {width}")
        if self._position + width > self._total_bits:
            raise BitIOError("bit stream exhausted")
        self._position += width
