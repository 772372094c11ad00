"""Canonical Huffman codec over bytes.

Canonical Huffman is the workhorse of embedded code compressors (IBM
CodePack [14 in the paper] is Huffman-based): the code table serialises as
just one code length per symbol, and decoding is table-driven.  The payload
layout is::

    [1 byte: format tag]
    tag 0: raw passthrough       -> [4 bytes length][raw bytes]
    tag 1: single-symbol stream  -> [1 byte symbol][4 bytes count]
    tag 2: huffman               -> [4 bytes original length]
                                    [256 x 4-bit code lengths (128 bytes)]
                                    [bit stream]

Raw passthrough keeps the codec safe on incompressible input (the header
costs 5 bytes).  Every declared length, the single-symbol count included,
must equal the block's size (:func:`~repro.compress.codec.check_declared`).
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import cycle
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bitio import PACK_CHUNK, BitIOError, BitReader, pack_bits
from .codec import (
    CodecCosts,
    CodecError,
    FramedCodec,
    check_declared,
    register_codec,
)

_TAG_SINGLE = 1
_TAG_HUFFMAN = 2


def byte_frequencies(chunks: Iterable[bytes]) -> Counter:
    """Tally byte values across ``chunks`` into a :class:`Counter`.

    Shared by the entropy coders, which count one block per call or a
    shared model's training set chunk by chunk; blocks average about 21
    bytes, and ``Counter.update``'s C loop over a bytes object beats any
    vectorised counter's per-call set-up at that size.
    """
    frequencies: Counter = Counter()
    for chunk in chunks:
        frequencies.update(chunk)
    return frequencies

#: Code lengths are stored in 4 bits, so depth must not exceed 15.
_MAX_CODE_LENGTH = 15


def _code_lengths(frequencies: Counter) -> Dict[int, int]:
    """Compute Huffman code lengths, depth-limited to 15 bits.

    Depth limiting uses the standard heuristic of flattening frequencies
    (sqrt) and recomputing until the limit holds; inputs are <= 64 KiB so
    two rounds always suffice in practice.
    """
    freqs: Dict[int, int] = dict(frequencies)
    while True:
        lengths = _huffman_depths(freqs)
        if not lengths or max(lengths.values()) <= _MAX_CODE_LENGTH:
            return lengths
        freqs = {
            symbol: max(1, int(count ** 0.5))
            for symbol, count in freqs.items()
        }


def _huffman_depths(frequencies: Dict[int, int]) -> Dict[int, int]:
    if len(frequencies) == 1:
        symbol = next(iter(frequencies))
        return {symbol: 1}
    heap: List[Tuple[int, int, List[int]]] = []
    for order, (symbol, count) in enumerate(sorted(frequencies.items())):
        heap.append((count, order, [symbol]))
    heapq.heapify(heap)
    depths: Dict[int, int] = {symbol: 0 for symbol in frequencies}
    tiebreak = len(heap)
    while len(heap) > 1:
        count_a, _, symbols_a = heapq.heappop(heap)
        count_b, _, symbols_b = heapq.heappop(heap)
        for symbol in symbols_a + symbols_b:
            depths[symbol] += 1
        heapq.heappush(
            heap, (count_a + count_b, tiebreak, symbols_a + symbols_b)
        )
        tiebreak += 1
    return depths


def pack_symbols(
    data: bytes, tables: Sequence[Sequence[Tuple[int, int]]]
) -> bytes:
    """Code byte ``i`` of ``data`` through ``tables[i % len(tables)]``,
    each a dense 256-entry ``(code, length)`` table; :data:`PACK_CHUNK`
    is a multiple of ``len(tables)``, so every piece keeps the rotation."""
    pieces = []
    for start in range(0, len(data), PACK_CHUNK):
        acc = bits = 0
        for table, byte in zip(
            cycle(tables), data[start : start + PACK_CHUNK]
        ):
            code, length = table[byte]
            acc = (acc << length) | code
            bits += length
        pieces.append((acc, bits))
    return pack_bits(pieces)


def _canonical_codes(lengths: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
    """Assign canonical codes: map symbol -> (code, length)."""
    ordered = sorted(
        (length, symbol) for symbol, length in lengths.items() if length
    )
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for length, symbol in ordered:
        code <<= length - previous_length
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


class CanonicalDecoder:
    """Table-driven decoder for a canonical Huffman code.

    Instead of probing a ``(code, length)`` dict one bit at a time, the
    decoder peeks ``max_length`` bits and walks the per-length first-code
    /offset tables (the classic CodePack/inflate idiom): a canonical code of
    length ``L`` decodes as ``symbols[base[L] + top_L_bits - first[L]]``
    where ``first[L]`` is the smallest code of that length.  One peek and
    a handful of integer compares replace up to 15 dict probes per symbol.

    A one-level 256-entry root table resolves every code of up to 8 bits
    (the overwhelmingly common case) with a single indexed load; longer
    codes fall back to the first-code walk over lengths 9..15.
    """

    _ROOT_BITS = 8
    _PEEK_BITS = 16  # root byte + up to 8 more bits covers length <= 15

    __slots__ = (
        "max_length", "_first", "_base", "_count", "_symbols", "_root"
    )

    def __init__(self, lengths: Dict[int, int]) -> None:
        if not lengths:
            raise ValueError("cannot build a decoder for an empty code")
        self.max_length = max(lengths.values())
        if self.max_length > self._PEEK_BITS:
            raise ValueError(
                f"code depth {self.max_length} exceeds the decoder's "
                f"{self._PEEK_BITS}-bit peek window"
            )
        count = [0] * (self.max_length + 1)
        for length in lengths.values():
            count[length] += 1
        # Symbols in canonical order (sorted by (length, symbol)) — the
        # same order _canonical_codes assigns codes in.
        self._symbols = [
            symbol for _, symbol in sorted(
                (length, symbol) for symbol, length in lengths.items()
            )
        ]
        first = [0] * (self.max_length + 1)
        base = [0] * (self.max_length + 1)
        code = 0
        index = 0
        for length in range(1, self.max_length + 1):
            first[length] = code
            base[length] = index
            code = (code + count[length]) << 1
            index += count[length]
        self._first = first
        self._base = base
        self._count = count
        # Root table: every 8-bit prefix whose top bits are a code of
        # length <= 8 maps straight to (symbol, length).
        root: List[Optional[Tuple[int, int]]] = [None] * (
            1 << self._ROOT_BITS
        )
        index = 0
        for length in range(1, min(self.max_length, self._ROOT_BITS) + 1):
            for i in range(count[length]):
                entry = (self._symbols[base[length] + i], length)
                prefix = (first[length] + i) << (self._ROOT_BITS - length)
                span = 1 << (self._ROOT_BITS - length)
                root[prefix : prefix + span] = [entry] * span
        self._root = root

    def read_symbol(self, reader: BitReader) -> int:
        """Decode one symbol from ``reader``, consuming its code bits.

        Raises :class:`BitIOError` when the stream ends mid-code and
        :class:`ValueError` when the bits match no code word.
        """
        window = reader.peek_bits(self._PEEK_BITS)
        entry = self._root[window >> (self._PEEK_BITS - self._ROOT_BITS)]
        if entry is not None:
            symbol, length = entry
        else:
            symbol, length = self._decode_slow(
                window, reader.bits_remaining
            )
        if length > reader.bits_remaining:
            raise BitIOError("bit stream exhausted")
        reader.skip_bits(length)
        return symbol

    def _decode_slow(self, window: int, remaining: int) -> Tuple[int, int]:
        """Resolve a code longer than the root table covers.

        ``window`` holds the next ``_PEEK_BITS`` stream bits
        (zero-padded); returns ``(symbol, length)``.
        """
        max_length = self.max_length
        first = self._first
        count = self._count
        peeked = window >> (self._PEEK_BITS - max_length)
        for length in range(self._ROOT_BITS + 1, max_length + 1):
            if not count[length]:
                continue
            offset = (peeked >> (max_length - length)) - first[length]
            if offset < count[length]:
                return self._symbols[self._base[length] + offset], length
        if remaining < max_length:
            raise BitIOError("bit stream exhausted")
        raise ValueError("invalid huffman code in stream")

    def decode_block(self, data: bytes, count: int) -> bytes:
        """Decode ``count`` symbols from ``data`` in one tight loop.

        The batched equivalent of ``count`` :meth:`read_symbol` calls on a
        fresh reader over ``data`` — used by the block decompressors where
        the symbol count is known up front and no other fields interleave
        with the code words.
        """
        root = self._root
        peek_bits = self._PEEK_BITS
        root_shift = peek_bits - self._ROOT_BITS
        from_bytes = int.from_bytes
        total = len(data) * 8
        pos = 0
        out = bytearray(count)
        for i in range(count):
            byte_index = pos >> 3
            segment = data[byte_index : byte_index + 3]
            have = (len(segment) << 3) - (pos & 7)
            value = from_bytes(segment, "big")
            if have >= peek_bits:
                window = (value >> (have - peek_bits)) & 0xFFFF
            else:
                window = (value << (peek_bits - have)) & 0xFFFF
            entry = root[window >> root_shift]
            if entry is not None:
                symbol, length = entry
            else:
                symbol, length = self._decode_slow(window, total - pos)
            pos += length
            if pos > total:
                raise BitIOError("bit stream exhausted")
            out[i] = symbol
        return bytes(out)


@register_codec("huffman")
class HuffmanCodec(FramedCodec):
    """Canonical Huffman over individual bytes."""

    costs = CodecCosts(
        decompress_cycles_per_byte=6.0,
        compress_cycles_per_byte=12.0,
        fixed=60,
    )

    tag = _TAG_HUFFMAN

    def compress_block(self, data: bytes) -> bytes:
        if data and data.count(data[0]) == len(data):
            count = len(data).to_bytes(4, "big")
            return bytes((_TAG_SINGLE, data[0])) + count
        return super().compress_block(data)

    def _encode(self, data: bytes) -> bytes:
        if len(data) + (-len(data) // 8) <= 128:
            # Every code is at least a bit: the payload would be at
            # least 133 + ceil(n / 8) bytes, never under raw's n + 5.
            return data
        lengths = _code_lengths(byte_frequencies((data,)))
        codes = _canonical_codes(lengths)
        header = bytearray()
        for pair_start in range(0, 256, 2):
            high = lengths.get(pair_start, 0)
            low = lengths.get(pair_start + 1, 0)
            header.append((high << 4) | low)
        # Absent symbols (None entries) never occur in ``data``.
        return bytes(header) + pack_symbols(
            data, ([codes.get(s) for s in range(256)],)
        )

    def _decode(self, payload: bytes, length: int) -> bytes:
        if payload[:1] == bytes((_TAG_SINGLE,)):
            check_declared(payload, 2, length)
            return payload[1:2] * length
        return super()._decode(payload, length)

    def _decode_body(self, body: bytes, length: int) -> bytes:
        if len(body) < 128:
            raise CodecError("truncated huffman header")
        lengths: Dict[int, int] = {}
        for pair_start in range(0, 256, 2):
            packed = body[pair_start // 2]
            if packed >> 4:
                lengths[pair_start] = packed >> 4
            if packed & 0xF:
                lengths[pair_start + 1] = packed & 0xF
        if length == 0:
            return b""
        if not lengths:
            raise CodecError("invalid huffman code in stream")
        decoder = CanonicalDecoder(lengths)
        try:
            return decoder.decode_block(body[128:], length)
        except BitIOError as exc:
            raise CodecError(f"huffman stream truncated: {exc}") from exc
        except ValueError:
            raise CodecError("invalid huffman code in stream") from None
