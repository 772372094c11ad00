"""Bit-level I/O used by the entropy and dictionary coders.

Bits are written MSB-first within each byte, which is the conventional
layout for canonical Huffman streams in embedded decompressors (it allows
table-driven decoding by peeking at the top bits).

Both directions are *batched*: the writer accumulates whole fields into a
small integer and drains completed bytes immediately (so a 15-bit code is
two integer operations and at most two byte appends, never 15 single-bit
round trips), and the reader extracts multi-bit fields straight out of
the underlying byte string with one ``int.from_bytes`` over the covered
slice.  The stream format is identical to the original bit-at-a-time
implementation (preserved in :mod:`repro.compress.reference`); the
property tests assert byte equality.  The codecs' encoders skip the
writer: they pack their fields into integers and call :func:`pack_bits`.
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
    first) into bytes, zero-padded to a whole byte exactly as
    :meth:`BitWriter.getvalue` pads."""
    if len(pieces) == 1:
        acc, bits = pieces[0]
        pad = -bits & 7
        return (acc << pad).to_bytes((bits + pad) >> 3, "big")
    out = bytearray()
    acc = bits = 0
    for value, width in pieces:
        acc = (acc << width) | value
        bits += width
        rest = bits & 7
        out += (acc >> rest).to_bytes(bits >> 3, "big")
        acc &= (1 << rest) - 1
        bits = rest
    return bytes(out) + pack_bits(((acc, bits),))


class BitIOError(ValueError):
    """Raised on malformed bit streams (overruns, bad field widths)."""


class BitWriter:
    """Accumulates bits MSB-first and renders them as bytes.

    Internally ``_acc`` holds the sub-byte remainder (always fewer than 8
    bits); completed bytes are drained into ``_buffer`` on every write, so
    the accumulator stays a machine-word-sized int no matter how much is
    written.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._acc = 0
        self._filled = 0  # bits currently in _acc (0..7)
        self._bit_count = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value`` (most significant first)."""
        if width < 0:
            raise BitIOError(f"width must be non-negative, got {width}")
        if value < 0 or value >> width:
            raise BitIOError(
                f"value {value} does not fit in {width} bits"
            )
        acc = (self._acc << width) | value
        filled = self._filled + width
        self._bit_count += width
        if filled >= 8:
            # Drain every completed byte in one ``to_bytes`` instead of
            # a byte-at-a-time loop — for wide fields (the bulk run
            # path feeds kilobit accumulators through here) this is the
            # difference between one big-int operation and dozens.
            whole = filled >> 3
            filled -= whole << 3
            self._buffer += (acc >> filled).to_bytes(whole, "big")
            acc &= (1 << filled) - 1
        self._acc = acc
        self._filled = filled

    def write_run(self, values, width: int) -> None:
        """Append each of ``values`` as a ``width``-bit field (bulk path).

        Byte-identical to calling :meth:`write_bits` per value; the
        fields are packed word-at-a-time into bounded big-int chunks so
        a thousand-code run costs a handful of integer operations
        instead of a thousand accumulator round trips.
        """
        if width < 0:
            raise BitIOError(f"width must be non-negative, got {width}")
        if width == 0:
            for value in values:
                if value:
                    raise BitIOError(
                        f"value {value} does not fit in 0 bits"
                    )
            return
        limit = 1 << width
        # Bound chunk accumulators to ~2 kilobits: big-int shifts are
        # cheap at that size and the cost stays linear in total bits.
        chunk = max(1, 2048 // width)
        for start in range(0, len(values), chunk):
            part = values[start:start + chunk]
            acc = 0
            for value in part:
                if value < 0 or value >= limit:
                    raise BitIOError(
                        f"value {value} does not fit in {width} bits"
                    )
                acc = (acc << width) | value
            self.write_bits(acc, width * len(part))

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return self._bit_count

    def getvalue(self) -> bytes:
        """Return the bit stream padded with zero bits to a whole byte."""
        return bytes(self._buffer) + pack_bits(((self._acc, self._filled),))


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

    @property
    def bit_position(self) -> int:
        """Current absolute bit offset."""
        return self._position

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
