"""LZW codec with variable-width codes.

Dictionary coders adapt to the repeated instruction sequences embedded
binaries are full of.  This implementation uses the classic greedy LZW with
codes growing from 9 bits as the dictionary fills, capped at 16 bits (the
dictionary freezes at 65536 entries, appropriate for basic-block-sized
inputs).

Payload layout: ``[1 byte tag][4 bytes original length][bit stream]`` with a
raw-passthrough tag for incompressible input
(:class:`~repro.compress.codec.FramedCodec`).
"""

from __future__ import annotations

from typing import Dict, List

from .bitio import PACK_CHUNK, BitIOError, BitReader, pack_bits
from .codec import CodecCosts, CodecError, FramedCodec, register_codec

_INITIAL_WIDTH = 9
_MAX_WIDTH = 16

#: The 256 single-byte entries every dictionary starts from, in code
#: order; each block's decoder copies its own table.
_SEED_ENTRIES = tuple(bytes((i,)) for i in range(256))


@register_codec("lzw")
class LZWCodec(FramedCodec):
    """Variable-width LZW over bytes."""

    costs = CodecCosts(
        decompress_cycles_per_byte=3.0,
        compress_cycles_per_byte=10.0,
        fixed=40,
    )

    def _encode(self, data: bytes) -> bytes:
        # Entry ``(prefix code << 8) | byte`` -> code; a single byte is
        # its own code, so the table starts empty.
        table: Dict[int, int] = {}
        next_code = 256
        width = _INITIAL_WIDTH
        pieces = []
        acc = bits = 0
        code = data[0]
        for start in range(1, len(data), PACK_CHUNK):
            if start > 1:
                pieces.append((acc, bits))
                acc = bits = 0
            for byte in data[start : start + PACK_CHUNK]:
                key = (code << 8) | byte
                extended = table.get(key)
                if extended is not None:
                    code = extended
                    continue
                acc = (acc << width) | code
                bits += width
                if next_code < (1 << _MAX_WIDTH):
                    table[key] = next_code
                    next_code += 1
                    if next_code > (1 << width) and width < _MAX_WIDTH:
                        width += 1
                code = byte
        pieces.append(((acc << width) | code, bits + width))
        return pack_bits(pieces)

    def _decode_body(self, body: bytes, length: int) -> bytes:
        table = list(_SEED_ENTRIES)
        width = _INITIAL_WIDTH
        reader = BitReader(body)
        out = bytearray()
        try:
            code = reader.read_bits(width)
        except BitIOError as exc:
            raise CodecError(f"lzw stream truncated: {exc}") from exc
        if code >= len(table):
            raise CodecError(f"invalid initial lzw code {code}")
        previous = table[code]
        out += previous

        # Codes are fetched in bulk runs: the width is a pure function of
        # the table length (it bumps exactly when len(table) + 1 exceeds
        # the current capacity), so the number of remaining same-width
        # codes is known in advance and each run is one read_run call.
        codes: List[int] = []
        cursor = 0
        while len(out) < length:
            # Mirror the encoder's width growth: at the encoder's matching
            # emission its next_code equals our len(table) + 1, and it has
            # bumped the width whenever that exceeds the current capacity.
            next_code = len(table) + 1
            if next_code > (1 << width) and width < _MAX_WIDTH:
                width += 1
            if cursor == len(codes):
                run = (
                    (1 << width) - len(table)
                    if width < _MAX_WIDTH else 4096
                )
                run = min(run, reader.bits_remaining // width)
                if run <= 0:
                    raise CodecError(
                        "lzw stream truncated: bit stream exhausted"
                    )
                codes = reader.read_run(width, run)
                cursor = 0
            code = codes[cursor]
            cursor += 1
            if code < len(table):
                entry = table[code]
            elif code == len(table):
                entry = previous + previous[:1]
            else:
                raise CodecError(f"invalid lzw code {code}")
            out += entry
            if len(table) < (1 << _MAX_WIDTH):
                table.append(previous + entry[:1])
            previous = entry
        return bytes(out)
