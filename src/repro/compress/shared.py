"""Shared-model codecs: one program-wide model, tiny per-block payloads.

Per-block codecs that carry their model in every payload (see
:mod:`repro.compress.huffman`, :mod:`repro.compress.dictionary`) pay a
header per block, which dominates at basic-block sizes (tens of
bytes).  Real embedded decompressors — IBM CodePack [14 in the paper],
the dictionary schemes of Lefurgy et al. [16, 17] — therefore keep
**one global model** (Huffman tables / word dictionary) for the whole
program, built at link time and stored once.

These codecs do the same: :meth:`SharedModelCodec.train` fits the model on
the whole code image.  A payload is ``tag + body``, 1 byte of overhead: the
block table already records every block's uncompressed size, exactly like
the line/block address tables of real decompression hardware.

The model's own size is reported via :attr:`model_overhead_bytes` and
charged once to the compressed image.

An untrained codec trains itself on the first input it compresses (so
single-buffer round-trips work); decompression requires the same instance
or an identically trained one — like firmware that bakes the table into the
decompressor ROM.
"""

from __future__ import annotations

import abc
from collections import Counter
from typing import Dict, List, Sequence

from .bitio import BitIOError, BitReader
from .codec import Codec, CodecCosts, CodecError, register_codec
from .dictionary import pack_words, words_of
from .huffman import (
    CanonicalDecoder,
    _canonical_codes,
    _code_lengths,
    byte_frequencies,
    pack_symbols,
)

_TAG_RAW = 0
_TAG_CODED = 1

_WORD = 4


class SharedModelCodec(Codec, abc.ABC):
    """Base for codecs with a train-once, program-wide model."""

    def __init__(self) -> None:
        self._trained = False

    @property
    def is_trained(self) -> bool:
        """True once :meth:`train` has run."""
        return self._trained

    @property
    @abc.abstractmethod
    def model_overhead_bytes(self) -> int:
        """Bytes the shared model itself occupies in memory."""

    def train(self, samples: Sequence[bytes]) -> None:
        """Fit the shared model on ``samples`` (typically all blocks)."""
        self._fit(samples)
        self._trained = True

    @abc.abstractmethod
    def _fit(self, samples: Sequence[bytes]) -> None:
        """Subclass hook: build the model from the training corpus."""

    @abc.abstractmethod
    def _encode_body(self, data: bytes) -> bytes:
        """Encode ``data`` into the model-coded body (no header)."""

    @abc.abstractmethod
    def _decode_body(self, body: bytes, length: int) -> bytes:
        """Decode a body produced by :meth:`_encode_body`."""

    def compress_block(self, data: bytes) -> bytes:
        """Compress for a code image: ``[tag][body]``."""
        if not self._trained:
            self.train([data])
        body = self._encode_body(data)
        if len(body) >= len(data):
            return bytes((_TAG_RAW,)) + data
        return bytes((_TAG_CODED,)) + body

    def _decode(self, payload: bytes, length: int) -> bytes:
        if not payload:
            raise CodecError("empty shared-codec block payload")
        tag, body = payload[0], payload[1:]
        if tag == _TAG_RAW:
            return body
        if tag != _TAG_CODED:
            raise CodecError(f"unknown shared-codec tag {tag}")
        if not self._trained:
            raise CodecError(
                f"codec '{self.name}' must be trained before decompression"
            )
        return self._decode_body(body, length)


@register_codec("shared-dict")
class SharedDictionaryCodec(SharedModelCodec):
    """Program-wide frequent-word dictionary (CodePack-style).

    Words (4-byte instruction encodings) seen at least twice across the
    training corpus enter the dictionary, most frequent first, up to
    ``max_entries``.  Payload words encode as ``1 + index_bits`` bits when
    in the dictionary, ``1 + 32`` bits literal otherwise.
    """

    costs = CodecCosts(
        decompress_cycles_per_byte=1.5,
        compress_cycles_per_byte=5.0,
        fixed=25,
    )

    def __init__(self, max_entries: int = 4096) -> None:
        super().__init__()
        if not 1 <= max_entries <= 65536:
            raise ValueError(
                f"max_entries must be in [1, 65536], got {max_entries}"
            )
        self.max_entries = max_entries
        self._dictionary: List[bytes] = []
        #: Dictionary word (as a big-endian int) -> flag bit | index.
        self._hits: Dict[int, int] = {}
        self._index_bits = 1

    def _fit(self, samples: Sequence[bytes]) -> None:
        counts: Counter = Counter()
        for sample in samples:
            counts.update(words_of(sample))
        entries = [
            word for word, count in counts.most_common(self.max_entries)
            if count >= 2
        ]
        self._dictionary = [word.to_bytes(_WORD, "big") for word in entries]
        self._index_bits = max(1, (max(1, len(entries)) - 1).bit_length())
        hit_flag = 1 << self._index_bits
        self._hits = {
            word: hit_flag | index for index, word in enumerate(entries)
        }

    @property
    def model_overhead_bytes(self) -> int:
        # Entries plus a 4-byte count/width header in the decoder.
        return len(self._dictionary) * _WORD + 4

    def _encode_body(self, data: bytes) -> bytes:
        return pack_words(data, self._hits, self._index_bits + 1)

    def _decode_body(self, body: bytes, length: int) -> bytes:
        reader = BitReader(body)
        out = bytearray()
        try:
            for _ in range(length // _WORD):
                if reader.read_bit():
                    index = reader.read_bits(self._index_bits)
                    if index >= len(self._dictionary):
                        raise CodecError(
                            f"dictionary index {index} out of range"
                        )
                    out += self._dictionary[index]
                else:
                    out += reader.read_bits(32).to_bytes(_WORD, "big")
            for _ in range(length % _WORD):
                out.append(reader.read_bits(8))
        except BitIOError as exc:
            raise CodecError(f"shared-dict stream truncated: {exc}") from exc
        return bytes(out)


#: Pseudo-symbol for bytes unseen during training: its code is followed by
#: the raw 8-bit literal.  Keeps the table sparse (only seen symbols are
#: stored) while every byte string stays encodable.
_ESCAPE = 256


class _ByteHuffmanModel:
    """A trained canonical Huffman code over one byte stream.

    The table stores only symbols seen in training plus one escape code —
    matching how real decompressor tables are serialised, and keeping the
    model overhead proportional to the alphabet actually used.
    """

    def __init__(self, frequencies: Counter) -> None:
        seen: Dict[int, int] = {
            symbol: count for symbol, count in frequencies.items() if count
        }
        # The escape gets a middling weight so rare-but-possible literals
        # are not absurdly long.
        seen[_ESCAPE] = max(1, sum(seen.values()) // max(1, len(seen) * 8))
        lengths = _code_lengths(Counter(seen))
        self.codes = _canonical_codes(lengths)
        self._decoder = CanonicalDecoder(lengths)
        # Byte -> (code, length); an unseen byte's entry is the escape
        # code followed by the byte as an 8-bit literal.
        escape, escape_length = self.codes[_ESCAPE]
        self.table = [
            self.codes.get(symbol)
            or ((escape << 8) | symbol, escape_length + 8)
            for symbol in range(256)
        ]

    @property
    def size_bytes(self) -> int:
        """Serialized table size: symbol byte + 4-bit length per entry."""
        entries = len(self.codes)
        return entries + (entries + 1) // 2 + 2

    def read_symbol(self, reader: BitReader) -> int:
        try:
            symbol = self._decoder.read_symbol(reader)
        except BitIOError:
            raise
        except ValueError:
            raise CodecError("invalid shared huffman code") from None
        if symbol == _ESCAPE:
            return reader.read_bits(8)
        return symbol


@register_codec("shared-huffman")
class SharedHuffmanCodec(SharedModelCodec):
    """Program-wide canonical Huffman over bytes (CodePack-like entropy
    stage with the table in the decoder, not in every payload)."""

    costs = CodecCosts(
        decompress_cycles_per_byte=6.0,
        compress_cycles_per_byte=12.0,
        fixed=35,
    )

    def __init__(self) -> None:
        super().__init__()
        self._model: _ByteHuffmanModel = None  # type: ignore[assignment]

    def _fit(self, samples: Sequence[bytes]) -> None:
        self._model = _ByteHuffmanModel(byte_frequencies(samples))

    @property
    def model_overhead_bytes(self) -> int:
        return self._model.size_bytes if self._model else 0

    def _encode_body(self, data: bytes) -> bytes:
        return pack_symbols(data, (self._model.table,))

    def _decode_body(self, body: bytes, length: int) -> bytes:
        reader = BitReader(body)
        out = bytearray()
        try:
            while len(out) < length:
                out.append(self._model.read_symbol(reader))
        except BitIOError as exc:
            raise CodecError(
                f"shared-huffman stream truncated: {exc}"
            ) from exc
        return bytes(out)


@register_codec("shared-fields")
class SharedFieldsCodec(SharedModelCodec):
    """Field-split Huffman over the ISA's fixed instruction layout.

    Fixed-width RISC instructions have wildly different statistics per
    byte position: the opcode byte is drawn from a couple dozen values,
    the register byte from a few pairs, and the 16-bit field is mostly
    small constants.  Compressing each of the four byte positions with its
    own shared Huffman code (as real field-partitioned code compressors
    do) beats a single byte model at basic-block sizes.

    Bytes past the last whole 4-byte word are coded with the position-0
    model.
    """

    costs = CodecCosts(
        decompress_cycles_per_byte=5.0,
        compress_cycles_per_byte=10.0,
        fixed=35,
    )

    def __init__(self) -> None:
        super().__init__()
        self._models: List[_ByteHuffmanModel] = []

    def _fit(self, samples: Sequence[bytes]) -> None:
        # Stride slicing peels each byte position out of every sample in
        # C (``sample[position::4]``), so the per-position tallies go
        # through the same table-driven counter as the byte models
        # instead of a Python loop over every (offset, byte) pair.
        self._models = [
            _ByteHuffmanModel(
                byte_frequencies(
                    sample[position::_WORD] for sample in samples
                )
            )
            for position in range(_WORD)
        ]

    @property
    def model_overhead_bytes(self) -> int:
        return sum(model.size_bytes for model in self._models)

    def _encode_body(self, data: bytes) -> bytes:
        return pack_symbols(data, [model.table for model in self._models])

    def _decode_body(self, body: bytes, length: int) -> bytes:
        reader = BitReader(body)
        out = bytearray()
        try:
            for offset in range(length):
                out.append(
                    self._models[offset % _WORD].read_symbol(reader)
                )
        except BitIOError as exc:
            raise CodecError(
                f"shared-fields stream truncated: {exc}"
            ) from exc
        return bytes(out)
