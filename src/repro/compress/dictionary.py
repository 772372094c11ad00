"""Instruction-dictionary codec (CodePack / Lefurgy style).

Real embedded code compressors (IBM CodePack [14], Lefurgy et al. [16, 17]
in the paper) exploit that a small set of 32-bit instruction words covers
most of a program.  This codec works at the ISA's 4-byte word granularity:

* a per-block dictionary of the most frequent words is emitted in the
  payload header;
* each word encodes as ``1 + index_bits`` bits if in the dictionary, else
  ``1 + 32`` bits literal.

Payload layout::

    [1 byte tag][4 bytes original length]
    [1 byte index_bits][2 bytes dictionary entry count]
    [entries x 4 bytes][bit stream][trailing (len % 4) literal bytes in stream]
"""

from __future__ import annotations

import struct
from collections import Counter
from typing import Dict, List, Tuple

from .bitio import PACK_CHUNK, BitIOError, BitReader, pack_bits
from .codec import CodecCosts, CodecError, FramedCodec, register_codec

_WORD = 4
_MAX_INDEX_BITS = 12


def words_of(data: bytes) -> Tuple[int, ...]:
    """``data``'s whole 4-byte words as big-endian ints."""
    return struct.unpack_from(f">{len(data) // _WORD}I", data)


def pack_words(data: bytes, hits: Dict[int, int], hit_width: int) -> bytes:
    """Code ``data``'s :func:`words_of`: a word in ``hits`` as its
    ``hit_width``-bit field there (flag bit 1, index), any other as flag
    bit 0 and its 32-bit literal, then the trailing ``len(data) % 4``
    bytes as 8-bit literals."""
    words = words_of(data)
    pieces = []
    for start in range(0, len(words), PACK_CHUNK // _WORD):
        acc = bits = 0
        for word in words[start : start + PACK_CHUNK // _WORD]:
            field = hits.get(word)
            if field is None:
                acc = (acc << 33) | word
                bits += 33
            else:
                acc = (acc << hit_width) | field
                bits += hit_width
        pieces.append((acc, bits))
    tail = data[len(words) * _WORD :]
    if tail:
        pieces.append((int.from_bytes(tail, "big"), 8 * len(tail)))
    return pack_bits(pieces)


@register_codec("dictionary")
class DictionaryCodec(FramedCodec):
    """Frequent-word dictionary coder over 4-byte instruction words."""

    costs = CodecCosts(
        decompress_cycles_per_byte=1.5,
        compress_cycles_per_byte=5.0,
        fixed=25,
    )

    def __init__(self, max_entries: int = 256) -> None:
        if not 1 <= max_entries <= (1 << _MAX_INDEX_BITS):
            raise ValueError(
                f"max_entries must be in [1, {1 << _MAX_INDEX_BITS}], got "
                f"{max_entries}"
            )
        self.max_entries = max_entries

    def _build_dictionary(self, words: Tuple[int, ...]) -> List[int]:
        counts = Counter(words)
        # Only words that pay for themselves: a dictionary hit saves
        # (32 - index_bits) bits per use but costs 32 bits of header.
        profitable = [
            word for word, count in counts.most_common(self.max_entries)
            if count >= 2
        ]
        return profitable

    def _encode(self, data: bytes) -> bytes:
        words = words_of(data)
        dictionary = self._build_dictionary(words)
        index_bits = max(1, (max(1, len(dictionary)) - 1).bit_length())
        hit_flag = 1 << index_bits
        hits = {
            word: hit_flag | index for index, word in enumerate(dictionary)
        }

        header = bytearray((index_bits,))
        header += len(dictionary).to_bytes(2, "big")
        header += struct.pack(f">{len(dictionary)}I", *dictionary)
        return bytes(header) + pack_words(data, hits, index_bits + 1)

    def _decode_body(self, body: bytes, length: int) -> bytes:
        if len(body) < 3:
            raise CodecError("truncated dictionary header")
        index_bits = body[0]
        if not 1 <= index_bits <= _MAX_INDEX_BITS:
            raise CodecError(f"bad index width {index_bits}")
        entry_count = int.from_bytes(body[1:3], "big")
        table_end = 3 + entry_count * _WORD
        if len(body) < table_end:
            raise CodecError("dictionary table truncated")
        dictionary = [
            body[3 + i * _WORD : 3 + (i + 1) * _WORD]
            for i in range(entry_count)
        ]

        reader = BitReader(body[table_end:])
        out = bytearray()
        word_count = length // _WORD
        tail_length = length % _WORD
        try:
            for _ in range(word_count):
                if reader.read_bit():
                    index = reader.read_bits(index_bits)
                    if index >= len(dictionary):
                        raise CodecError(
                            f"dictionary index {index} out of range "
                            f"({len(dictionary)} entries)"
                        )
                    out += dictionary[index]
                else:
                    out += reader.read_bits(32).to_bytes(_WORD, "big")
            for _ in range(tail_length):
                out.append(reader.read_bits(8))
        except BitIOError as exc:
            raise CodecError(f"dictionary stream truncated: {exc}") from exc
        return bytes(out)
