"""LZ77 codec with a small sliding window.

A classic (offset, length, literal) scheme sized for basic blocks: 4 KiB
window, 3..66 byte matches, hash-chain match finder.  Token stream:

* literal:  flag bit 0, then 8 bits of the byte;
* match:    flag bit 1, then 12-bit offset-1, then 6-bit (length-3).

Payload layout: ``[1 byte tag][4 bytes original length][bit stream]`` with
the usual raw-passthrough fallback
(:class:`~repro.compress.codec.FramedCodec`).
"""

from __future__ import annotations

from typing import Dict, List

from .bitio import PACK_CHUNK, BitIOError, BitReader, pack_bits
from .codec import CodecCosts, CodecError, FramedCodec, register_codec

_WINDOW = 4096
_MIN_MATCH = 3
_MAX_MATCH = _MIN_MATCH + 63  # 6-bit length field
_OFFSET_BITS = 12
_LENGTH_BITS = 6


@register_codec("lz77")
class LZ77Codec(FramedCodec):
    """Sliding-window LZ77 with greedy hash-chain matching."""

    costs = CodecCosts(
        decompress_cycles_per_byte=2.0,
        compress_cycles_per_byte=14.0,
        fixed=30,
    )

    def _encode(self, data: bytes) -> bytes:
        pieces = []
        acc = bits = 0
        piece_end = PACK_CHUNK
        chains: Dict[bytes, List[int]] = {}
        position = 0
        length = len(data)
        while position < length:
            if position >= piece_end:
                pieces.append((acc, bits))
                acc = bits = 0
                piece_end = position + PACK_CHUNK
            best_length = 0
            best_offset = 0
            if position + _MIN_MATCH <= length:
                key = data[position : position + _MIN_MATCH]
                for candidate in reversed(chains.get(key, ())):
                    if position - candidate > _WINDOW:
                        break
                    match_length = _MIN_MATCH
                    limit = min(_MAX_MATCH, length - position)
                    while (
                        match_length < limit
                        and data[candidate + match_length]
                        == data[position + match_length]
                    ):
                        match_length += 1
                    if match_length > best_length:
                        best_length = match_length
                        best_offset = position - candidate
                        if match_length == _MAX_MATCH:
                            break
            if best_length >= _MIN_MATCH:
                # Flag, offset and length as one 19-bit field.
                acc = (acc << (1 + _OFFSET_BITS + _LENGTH_BITS)) | (
                    (1 << (_OFFSET_BITS + _LENGTH_BITS))
                    | ((best_offset - 1) << _LENGTH_BITS)
                    | (best_length - _MIN_MATCH)
                )
                bits += 1 + _OFFSET_BITS + _LENGTH_BITS
                advance = best_length
            else:
                # Flag bit 0 + literal byte = one 9-bit field.
                acc = (acc << 9) | data[position]
                bits += 9
                advance = 1
            for step in range(advance):
                index = position + step
                if index + _MIN_MATCH <= length:
                    chains.setdefault(
                        data[index : index + _MIN_MATCH], []
                    ).append(index)
            position += advance

        pieces.append((acc, bits))
        return pack_bits(pieces)

    def _decode_body(self, body: bytes, length: int) -> bytes:
        reader = BitReader(body)
        out = bytearray()
        try:
            while len(out) < length:
                if reader.read_bit():
                    offset = reader.read_bits(_OFFSET_BITS) + 1
                    match_length = reader.read_bits(_LENGTH_BITS) + _MIN_MATCH
                    if offset > len(out):
                        raise CodecError(
                            f"lz77 offset {offset} beyond output "
                            f"({len(out)} bytes)"
                        )
                    start = len(out) - offset
                    if offset >= match_length:
                        # Non-overlapping match: one slice copy.
                        out += out[start : start + match_length]
                    else:
                        for step in range(match_length):
                            out.append(out[start + step])
                else:
                    out.append(reader.read_bits(8))
        except BitIOError as exc:
            raise CodecError(f"lz77 stream truncated: {exc}") from exc
        return bytes(out)
