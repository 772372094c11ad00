"""The bit-writer encoders as they ran before they packed their fields
into one integer, frozen as a differential oracle.

Every encoder here writes each field through :class:`BitWriter`, a
frozen copy of the writer the product deleted once nothing wrote
through it (one ``write_bits`` call per symbol, word or token), as the
shared-model, dictionary, LZW and LZ77 codecs did; the pipeline trains
its entropy stage on a forward-transformed corpus and forward-
transforms every block again when it compresses it.  The model fitting
is copied too, so a production model change shows up as a payload
difference.  ``tests/properties/test_encoder_oracle.py`` holds every
production payload byte-equal to these, plus golden digests so a change
made to both sides at once cannot slip through.  Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from repro.compress.bitio import BitIOError
from repro.compress.codec import CODECS
from repro.compress.huffman import (
    _canonical_codes,
    _code_lengths,
    byte_frequencies,
)
from repro.compress.pipeline import (
    _BLOCK_VERSION,
    _FLAG_EXPLICIT_LENGTH,
    PipelineError,
    parse_pipeline_spec,
)
from repro.compress.transforms import TRANSFORMS

from .reference import reference_huffman_compress

_TAG_RAW = 0
_TAG_CODED = 1
_WORD = 4


class BitWriter:
    """The per-field bit writer the encoders used: accumulates bits
    MSB-first, drains completed bytes on every write and pads the last
    byte with zero bits."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._acc = 0
        self._filled = 0  # bits currently in _acc (0..7)

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
        if filled >= 8:
            whole = filled >> 3
            filled -= whole << 3
            self._buffer += (acc >> filled).to_bytes(whole, "big")
            acc &= (1 << filled) - 1
        self._acc = acc
        self._filled = filled

    def getvalue(self) -> bytes:
        """The bit stream padded with zero bits to a whole byte."""
        if not self._filled:
            return bytes(self._buffer)
        tail = self._acc << (8 - self._filled)
        return bytes(self._buffer) + bytes((tail,))


# ----------------------------------------------------------------------
# Shared-model codecs (compress/shared.py)
# ----------------------------------------------------------------------


class _OracleShared:
    """The sized and self-contained shared-model formats."""

    def __init__(self) -> None:
        self._trained = False

    @property
    def is_trained(self) -> bool:
        return self._trained

    def train(self, samples: Sequence[bytes]) -> None:
        self._fit(samples)
        self._trained = True

    def compress_block(self, data: bytes) -> bytes:
        if not self._trained:
            self.train([data])
        body = self._encode_body(data)
        if len(body) >= len(data):
            return bytes((_TAG_RAW,)) + data
        return bytes((_TAG_CODED,)) + body

    def compress(self, data: bytes) -> bytes:
        return len(data).to_bytes(2, "big") + self.compress_block(data)


class OracleSharedDictionary(_OracleShared):
    def __init__(self, max_entries: int = 4096) -> None:
        super().__init__()
        self.max_entries = max_entries
        self._dictionary: List[bytes] = []
        self._index_of: Dict[bytes, int] = {}
        self._index_bits = 1

    def _fit(self, samples: Sequence[bytes]) -> None:
        counts: Counter = Counter()
        for sample in samples:
            for i in range(len(sample) // _WORD):
                counts[sample[i * _WORD : (i + 1) * _WORD]] += 1
        self._dictionary = [
            word for word, count in counts.most_common(self.max_entries)
            if count >= 2
        ]
        self._index_of = {
            word: index for index, word in enumerate(self._dictionary)
        }
        self._index_bits = max(
            1, (max(1, len(self._dictionary)) - 1).bit_length()
        )

    def _encode_body(self, data: bytes) -> bytes:
        writer = BitWriter()
        write_bits = writer.write_bits
        index_of = self._index_of
        index_bits = self._index_bits
        hit_flag = 1 << index_bits
        word_count = len(data) // _WORD
        for i in range(word_count):
            word = data[i * _WORD : (i + 1) * _WORD]
            index = index_of.get(word)
            if index is not None:
                # Flag bit and index emitted as one batched field.
                write_bits(hit_flag | index, index_bits + 1)
            else:
                # Flag bit 0 + 32 literal bits = one 33-bit field.
                write_bits(int.from_bytes(word, "big"), 33)
        for byte in data[word_count * _WORD :]:
            write_bits(byte, 8)
        return writer.getvalue()


_ESCAPE = 256


class OracleByteHuffmanModel:
    def __init__(self, frequencies: Counter) -> None:
        seen: Dict[int, int] = {
            symbol: count for symbol, count in frequencies.items() if count
        }
        seen[_ESCAPE] = max(1, sum(seen.values()) // max(1, len(seen) * 8))
        lengths = _code_lengths(Counter(seen))
        self.codes = _canonical_codes(lengths)
        self._escape_pair = self.codes[_ESCAPE]

    def write_symbol(self, writer: BitWriter, symbol: int) -> None:
        entry = self.codes.get(symbol)
        if entry is None:
            # Escape then literal, fused into one batched field write.
            code, length = self._escape_pair
            writer.write_bits((code << 8) | symbol, length + 8)
            return
        code, length = entry
        writer.write_bits(code, length)


class OracleSharedHuffman(_OracleShared):
    def _fit(self, samples: Sequence[bytes]) -> None:
        self._model = OracleByteHuffmanModel(byte_frequencies(samples))

    def _encode_body(self, data: bytes) -> bytes:
        writer = BitWriter()
        for byte in data:
            self._model.write_symbol(writer, byte)
        return writer.getvalue()


class OracleSharedFields(_OracleShared):
    def _fit(self, samples: Sequence[bytes]) -> None:
        self._models = [
            OracleByteHuffmanModel(
                byte_frequencies(
                    sample[position::_WORD] for sample in samples
                )
            )
            for position in range(_WORD)
        ]

    def _encode_body(self, data: bytes) -> bytes:
        writer = BitWriter()
        for offset, byte in enumerate(data):
            self._models[offset % _WORD].write_symbol(writer, byte)
        return writer.getvalue()


# ----------------------------------------------------------------------
# Per-block codecs (compress/dictionary.py, lzw.py, lz77.py)
# ----------------------------------------------------------------------


def dictionary_compress(data: bytes, max_entries: int = 256) -> bytes:
    if not data:
        return bytes((_TAG_RAW, 0, 0, 0, 0))
    word_count = len(data) // _WORD
    words = [
        data[i * _WORD : (i + 1) * _WORD] for i in range(word_count)
    ]
    tail = data[word_count * _WORD :]

    counts = Counter(words)
    dictionary = [
        word for word, count in counts.most_common(max_entries)
        if count >= 2
    ]
    index_bits = max(1, (max(1, len(dictionary)) - 1).bit_length())
    index_of: Dict[bytes, int] = {
        word: index for index, word in enumerate(dictionary)
    }

    writer = BitWriter()
    hit_flag = 1 << index_bits
    for word in words:
        index = index_of.get(word)
        if index is not None:
            # Flag bit and index emitted as one batched field.
            writer.write_bits(hit_flag | index, index_bits + 1)
        else:
            # Flag bit 0 + 32 literal bits = one 33-bit field.
            writer.write_bits(int.from_bytes(word, "big"), 33)
    for byte in tail:
        writer.write_bits(byte, 8)

    header = bytearray((1,))
    header += len(data).to_bytes(4, "big")
    header.append(index_bits)
    header += len(dictionary).to_bytes(2, "big")
    for word in dictionary:
        header += word
    payload = bytes(header) + writer.getvalue()
    if len(payload) >= len(data) + 5:
        return bytes((_TAG_RAW,)) + len(data).to_bytes(4, "big") + data
    return payload


_INITIAL_WIDTH = 9
_MAX_WIDTH = 16
_SEED_CODES: Dict[bytes, int] = {bytes((i,)): i for i in range(256)}


def lzw_compress(data: bytes) -> bytes:
    if not data:
        return bytes((_TAG_RAW, 0, 0, 0, 0))
    table = dict(_SEED_CODES)
    next_code = 256
    width = _INITIAL_WIDTH
    writer = BitWriter()

    current = bytes((data[0],))
    for byte in data[1:]:
        extended = current + bytes((byte,))
        if extended in table:
            current = extended
            continue
        writer.write_bits(table[current], width)
        if next_code < (1 << _MAX_WIDTH):
            table[extended] = next_code
            next_code += 1
            if next_code > (1 << width) and width < _MAX_WIDTH:
                width += 1
        current = bytes((byte,))
    writer.write_bits(table[current], width)

    payload = (
        bytes((1,))
        + len(data).to_bytes(4, "big")
        + writer.getvalue()
    )
    if len(payload) >= len(data) + 5:
        return bytes((_TAG_RAW,)) + len(data).to_bytes(4, "big") + data
    return payload


_WINDOW = 4096
_MIN_MATCH = 3
_MAX_MATCH = _MIN_MATCH + 63
_OFFSET_BITS = 12
_LENGTH_BITS = 6


def lz77_compress(data: bytes) -> bytes:
    if not data:
        return bytes((_TAG_RAW, 0, 0, 0, 0))
    writer = BitWriter()
    chains: Dict[bytes, List[int]] = {}
    position = 0
    length = len(data)
    while position < length:
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
            # Flag, offset and length fused into one 19-bit field
            # (identical bits to flag-then-field writes, one call).
            writer.write_bits(
                (1 << (_OFFSET_BITS + _LENGTH_BITS))
                | ((best_offset - 1) << _LENGTH_BITS)
                | (best_length - _MIN_MATCH),
                1 + _OFFSET_BITS + _LENGTH_BITS,
            )
            advance = best_length
        else:
            # Flag bit 0 + literal byte = one 9-bit field.
            writer.write_bits(data[position], 9)
            advance = 1
        for step in range(advance):
            index = position + step
            if index + _MIN_MATCH <= length:
                chains.setdefault(
                    data[index : index + _MIN_MATCH], []
                ).append(index)
        position += advance

    payload = (
        bytes((1,))
        + len(data).to_bytes(4, "big")
        + writer.getvalue()
    )
    if len(payload) >= len(data) + 5:
        return bytes((_TAG_RAW,)) + len(data).to_bytes(4, "big") + data
    return payload


class _OracleFlat:
    """A per-block codec's self-contained format (its image format too)."""

    is_trained = True

    def __init__(self, compress) -> None:
        self.compress = compress
        self.compress_block = compress


# ----------------------------------------------------------------------
# Pipelines (compress/pipeline.py)
# ----------------------------------------------------------------------


class OraclePipeline:
    """Transform layers in front of an oracle entropy stage; ``train``
    and ``compress_block`` as they ran, each forward-transforming every
    block it is given."""

    def __init__(self, name: str) -> None:
        self.spec = parse_pipeline_spec(name)
        self.transforms = tuple(
            TRANSFORMS.create(kind, *params)
            for kind, params in self.spec.layers
        )
        self.entropy = oracle_codec(self.spec.entropy)
        self.length_preserving = all(
            t.length_preserving for t in self.transforms
        )

    @property
    def is_trained(self) -> bool:
        return bool(getattr(self.entropy, "is_trained", True))

    def train(self, samples: Sequence[bytes]) -> None:
        train = getattr(self.entropy, "train", None)
        if train is not None:
            train([self._forward(sample) for sample in samples])

    def _forward(self, data: bytes) -> bytes:
        for transform in self.transforms:
            data = transform.forward(data)
        return data

    def compress_block(self, data: bytes) -> bytes:
        transformed = self._forward(data)
        body = self.entropy.compress_block(transformed)
        if self.length_preserving:
            return bytes(((_BLOCK_VERSION << 4),)) + body
        if len(transformed) > 0xFFFF:
            raise PipelineError(
                f"pipeline block transforms to {len(transformed)} "
                f"bytes, beyond the sized format's 64 KiB limit"
            )
        return (
            bytes(((_BLOCK_VERSION << 4) | _FLAG_EXPLICIT_LENGTH,))
            + len(transformed).to_bytes(2, "big")
            + body
        )


_SHARED = {
    "shared-dict": OracleSharedDictionary,
    "shared-huffman": OracleSharedHuffman,
    "shared-fields": OracleSharedFields,
}

_FLAT = {
    "dictionary": dictionary_compress,
    "lzw": lzw_compress,
    "lz77": lz77_compress,
    # The seed Huffman compressor (oracle/reference.py).
    "huffman": reference_huffman_compress,
}


def oracle_codec(name: str):
    """A fresh oracle codec for ``name``: its ``compress_block`` is the
    payload the artifact build stored, its ``train``/``is_trained``
    what the build used.  Codecs that never wrote through ``BitWriter``
    (``rle``, ``mtf-rle``, ``null``) are their production classes."""
    if "|" in name:
        return OraclePipeline(name)
    if name in _SHARED:
        return _SHARED[name]()
    if name in _FLAT:
        return _OracleFlat(_FLAT[name])
    return _OracleFlat(CODECS.create(name).compress_block)


def oracle_payloads(name: str, blocks: Sequence[bytes]) -> List[bytes]:
    """A code image's payloads as the artifact build produced them:
    train an untrained shared model on every block, then compress each
    block for the image."""
    codec = oracle_codec(name)
    if hasattr(codec, "train") and not codec.is_trained:
        codec.train(blocks)
    return [codec.compress_block(block) for block in blocks]
