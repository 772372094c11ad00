"""Frozen seed implementations of the bit I/O and Huffman hot paths.

The batched :mod:`repro.compress.bitio` and the table-driven decoder in
:mod:`repro.compress.huffman` must stay *byte-identical* to the original
bit-at-a-time implementations this repository seeded with.  This module
preserves those originals verbatim (modulo naming) so that

* the property tests can assert equivalence against the real seed code
  rather than against a re-derivation of it, and
* ``benchmarks/perf/run_bench.py`` can measure the fast path's speedup
  over the seed implementation change over change.

Nothing under ``src/`` imports it.  Do not "optimise" this module — its
entire value is staying slow and obviously correct.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.compress.bitio import BitIOError


class ReferenceBitWriter:
    """Seed ``BitWriter``: accumulates single bits MSB-first."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._current = 0
        self._filled = 0
        self._bit_count = 0

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise BitIOError(f"bit must be 0 or 1, got {bit}")
        self._current = (self._current << 1) | bit
        self._filled += 1
        self._bit_count += 1
        if self._filled == 8:
            self._buffer.append(self._current)
            self._current = 0
            self._filled = 0

    def write_bits(self, value: int, width: int) -> None:
        if width < 0:
            raise BitIOError(f"width must be non-negative, got {width}")
        if value < 0 or (width < 64 and value >= (1 << width)):
            raise BitIOError(
                f"value {value} does not fit in {width} bits"
            )
        for position in range(width - 1, -1, -1):
            self.write_bit((value >> position) & 1)

    def write_unary(self, value: int) -> None:
        if value < 0:
            raise BitIOError(f"unary value must be non-negative, got {value}")
        for _ in range(value):
            self.write_bit(1)
        self.write_bit(0)

    def write_gamma(self, value: int) -> None:
        if value < 1:
            raise BitIOError(f"gamma value must be >= 1, got {value}")
        width = value.bit_length()
        self.write_unary(width - 1)
        self.write_bits(value - (1 << (width - 1)), width - 1)

    @property
    def bit_length(self) -> int:
        return self._bit_count

    def getvalue(self) -> bytes:
        if self._filled == 0:
            return bytes(self._buffer)
        tail = self._current << (8 - self._filled)
        return bytes(self._buffer) + bytes((tail,))


class ReferenceBitReader:
    """Seed ``BitReader``: extracts single bits MSB-first."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0  # bit position

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._position

    @property
    def bit_position(self) -> int:
        return self._position

    def read_bit(self) -> int:
        if self._position >= len(self._data) * 8:
            raise BitIOError("bit stream exhausted")
        byte = self._data[self._position >> 3]
        bit = (byte >> (7 - (self._position & 7))) & 1
        self._position += 1
        return bit

    def read_bits(self, width: int) -> int:
        if width < 0:
            raise BitIOError(f"width must be non-negative, got {width}")
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self) -> int:
        count = 0
        while self.read_bit():
            count += 1
        return count

    def read_gamma(self) -> int:
        width = self.read_unary() + 1
        if width == 1:
            return 1
        return (1 << (width - 1)) | self.read_bits(width - 1)


# ----------------------------------------------------------------------
# Seed Huffman codec (dict-probing decoder, per-byte dict-lookup encoder)
# ----------------------------------------------------------------------

_TAG_RAW = 0
_TAG_SINGLE = 1
_TAG_HUFFMAN = 2
_MAX_CODE_LENGTH = 15


def reference_huffman_compress(data: bytes) -> bytes:
    """Seed ``HuffmanCodec.compress``: per-byte dict lookups into the
    bit-at-a-time writer."""
    from collections import Counter

    from repro.compress.huffman import _canonical_codes, _code_lengths

    if not data:
        return bytes((_TAG_RAW, 0, 0, 0, 0))
    frequencies = Counter(data)
    if len(frequencies) == 1:
        symbol = data[0]
        return bytes((_TAG_SINGLE, symbol)) + len(data).to_bytes(4, "big")

    lengths = _code_lengths(frequencies)
    codes = _canonical_codes(lengths)
    writer = ReferenceBitWriter()
    for byte in data:
        code, length = codes[byte]
        writer.write_bits(code, length)
    bitstream = writer.getvalue()

    header = bytearray((_TAG_HUFFMAN,))
    header += len(data).to_bytes(4, "big")
    for pair_start in range(0, 256, 2):
        high = lengths.get(pair_start, 0)
        low = lengths.get(pair_start + 1, 0)
        header.append((high << 4) | low)
    payload = bytes(header) + bitstream
    if len(payload) >= len(data) + 5:
        return bytes((_TAG_RAW,)) + len(data).to_bytes(4, "big") + data
    return payload


def reference_huffman_decompress(payload: bytes) -> bytes:
    """Seed ``HuffmanCodec.decompress``: per-bit ``(code, length)`` dict
    probing."""
    from repro.compress.codec import CodecError
    from repro.compress.huffman import _canonical_codes

    if not payload:
        raise CodecError("empty huffman payload")
    tag = payload[0]
    if tag == _TAG_RAW:
        if len(payload) < 5:
            raise CodecError("truncated raw header")
        length = int.from_bytes(payload[1:5], "big")
        body = payload[5 : 5 + length]
        if len(body) != length:
            raise CodecError(
                f"raw body truncated: expected {length}, got {len(body)}"
            )
        return body
    if tag == _TAG_SINGLE:
        if len(payload) < 6:
            raise CodecError("truncated single-symbol header")
        return bytes((payload[1],)) * int.from_bytes(payload[2:6], "big")
    if tag != _TAG_HUFFMAN:
        raise CodecError(f"unknown huffman payload tag {tag}")
    if len(payload) < 5 + 128:
        raise CodecError("truncated huffman header")

    original_length = int.from_bytes(payload[1:5], "big")
    lengths: Dict[int, int] = {}
    for pair_start in range(0, 256, 2):
        packed = payload[5 + pair_start // 2]
        if packed >> 4:
            lengths[pair_start] = packed >> 4
        if packed & 0xF:
            lengths[pair_start + 1] = packed & 0xF
    codes = _canonical_codes(lengths)
    decode_table: Dict[Tuple[int, int], int] = {
        (code, length): symbol
        for symbol, (code, length) in codes.items()
    }

    reader = ReferenceBitReader(payload[5 + 128 :])
    out = bytearray()
    try:
        while len(out) < original_length:
            code = 0
            length = 0
            while True:
                code = (code << 1) | reader.read_bit()
                length += 1
                if length > _MAX_CODE_LENGTH:
                    raise CodecError("invalid huffman code in stream")
                symbol = decode_table.get((code, length))
                if symbol is not None:
                    out.append(symbol)
                    break
    except BitIOError as exc:
        raise CodecError(f"huffman stream truncated: {exc}") from exc
    return bytes(out)
