"""Equivalence of the batched fast paths with the frozen seed code.

:func:`~repro.compress.bitio.pack_bits`, the batched ``BitReader`` and
the table-driven Huffman codec must produce *byte-identical* streams to
the seed implementations preserved in :mod:`oracle.reference`.
These tests drive both sides with the same (hypothesis-generated)
inputs and assert equality, plus golden payload digests so that a
simultaneous change to both implementations cannot slip through.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracle.reference import (
    ReferenceBitReader,
    ReferenceBitWriter,
    reference_huffman_compress,
    reference_huffman_decompress,
)
from repro.compress.bitio import BitIOError, BitReader, pack_bits
from repro.compress.codec import CodecError
from repro.compress.huffman import (
    CanonicalDecoder,
    HuffmanCodec,
    _canonical_codes,
    _code_lengths,
)

# ----------------------------------------------------------------------
# Bit I/O equivalence
# ----------------------------------------------------------------------

#: One bit-writer field: (value, width), single bits included.
_write_ops = st.one_of(
    st.tuples(st.integers(0, 1), st.just(1)),
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 70) - 1),
        st.integers(min_value=0, max_value=70),
    ).map(lambda op: (op[0] & ((1 << op[1]) - 1), op[1])),
)


def _seed_stream(ops):
    seed = ReferenceBitWriter()
    for value, width in ops:
        seed.write_bits(value, width)
    assert seed.bit_length == sum(width for _, width in ops)
    return seed.getvalue()


class TestBitWriterEquivalence:
    @given(st.lists(_write_ops, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_streams_byte_identical(self, ops):
        assert pack_bits(ops) == _seed_stream(ops)

    @given(st.lists(_write_ops, max_size=40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reader_values_match(self, ops, data):
        stream = _seed_stream(ops)
        fast = BitReader(stream)
        seed = ReferenceBitReader(stream)
        # One zero-width read per stream; the drawn widths start at 1 so
        # every draw makes progress (zero widths drawn in a loop could
        # exhaust hypothesis's per-example buffer on a long stream).
        assert fast.read_bits(0) == seed.read_bits(0)
        assert fast.bits_remaining == seed.bits_remaining
        while seed.bits_remaining:
            width = data.draw(
                st.integers(1, min(70, seed.bits_remaining)),
                label="width",
            )
            assert fast.read_bits(width) == seed.read_bits(width)
            assert fast.bits_remaining == seed.bits_remaining

    def test_wide_value_range_check_closed(self):
        # The seed skipped validation for width >= 64; pack_bits
        # validates every width.
        with pytest.raises(BitIOError, match="does not fit"):
            pack_bits([(1 << 64, 64)])
        with pytest.raises(BitIOError, match="does not fit"):
            pack_bits([(1 << 100, 100)])
        # The boundary is still accepted.
        assert pack_bits([((1 << 64) - 1, 64)]) == b"\xff" * 8

    def test_reference_writer_had_the_gap(self):
        # The seed writer skips the range check for width >= 64, so the
        # generated fields are masked to their width before both sides
        # see them.
        seed = ReferenceBitWriter()
        seed.write_bits(1 << 64, 64)  # no exception — the seed gap
        assert seed.bit_length == 64

    @given(st.binary(max_size=64), st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_peek_matches_read(self, data, lead):
        reader = BitReader(data)
        if reader.bits_remaining < lead:
            return
        reader.skip_bits(lead)
        for width in (0, 1, 5, 8, 13, 16):
            if width > reader.bits_remaining:
                # Padding bits beyond the end read as zero.
                tail = reader.bits_remaining
                expected = BitReader(data)
                expected.skip_bits(lead)
                value = expected.read_bits(tail) << (width - tail)
                assert reader.peek_bits(width) == value
            else:
                peeked = reader.peek_bits(width)
                assert peeked == reader.read_bits(width)
                reader._position = lead  # rewind for the next width


# ----------------------------------------------------------------------
# Huffman equivalence
# ----------------------------------------------------------------------

_byte_data = st.one_of(
    st.binary(max_size=2048),
    # Low-entropy inputs that actually take the Huffman path.
    st.lists(st.integers(0, 7), min_size=200, max_size=2048).map(bytes),
    st.lists(st.integers(0, 1), min_size=200, max_size=2048).map(bytes),
)


class TestHuffmanEquivalence:
    @given(_byte_data)
    @settings(max_examples=150, deadline=None)
    def test_compress_byte_identical(self, data):
        assert HuffmanCodec().compress_block(data) == \
            reference_huffman_compress(data)

    @given(_byte_data)
    @settings(max_examples=150, deadline=None)
    def test_decoders_agree_and_invert(self, data):
        payload = reference_huffman_compress(data)
        assert HuffmanCodec().decompress_block(payload, len(data)) == data
        assert reference_huffman_decompress(payload) == data

    @given(st.dictionaries(st.integers(0, 255), st.integers(1, 10000),
                           min_size=2, max_size=256))
    @settings(max_examples=100, deadline=None)
    def test_canonical_decoder_matches_dict_probe(self, frequencies):
        from collections import Counter

        lengths = _code_lengths(Counter(frequencies))
        codes = _canonical_codes(lengths)
        decoder = CanonicalDecoder(lengths)
        probe = {(code, length): symbol
                 for symbol, (code, length) in codes.items()}
        # Encode every symbol once, decode with both algorithms.
        symbols = sorted(codes)
        stream = pack_bits([codes[symbol] for symbol in symbols])
        reader = BitReader(stream)
        for symbol in symbols:
            assert decoder.read_symbol(reader) == symbol
        # Dict probing (the seed decode loop) agrees bit for bit.
        reference = ReferenceBitReader(stream)
        for expected in symbols:
            code = 0
            length = 0
            while True:
                code = (code << 1) | reference.read_bit()
                length += 1
                found = probe.get((code, length))
                if found is not None:
                    assert found == expected
                    break

    @pytest.mark.parametrize("kind", ["random", "skewed", "two-symbol"])
    def test_every_length_near_the_raw_cutoff(self, kind):
        # Up to 147 bytes raw passthrough must win, so the encoder
        # skips the code; the first Huffman payloads come after.
        rng = random.Random(f"huffman-{kind}")
        for n in range(301):
            if kind == "random":
                data = bytes(rng.getrandbits(8) for _ in range(n))
            elif kind == "skewed":
                data = bytes(min(int(rng.expovariate(1.5)), 255)
                             for _ in range(n))
            else:
                data = bytes(rng.choice(b"ab") for _ in range(n))
            payload = HuffmanCodec().compress_block(data)
            assert payload == reference_huffman_compress(data), (kind, n)
            if n <= 147 and len(set(data)) > 1:
                assert payload[0] == 0, (kind, n)

    def test_truncated_stream_raises_codec_error(self):
        payload = reference_huffman_compress(b"abracadabra" * 60)
        assert payload[0] == 2  # actually huffman-coded
        with pytest.raises(CodecError, match="truncated"):
            HuffmanCodec().decompress_block(payload[:-8], 660)


class TestGoldenPayloads:
    """Digest-pinned payloads: the stream format must never drift."""

    def _corpus(self):
        rng = random.Random(99)
        return {
            "abracadabra": b"abracadabra" * 60,
            "skewed": bytes(
                [0] * 500 + [1] * 250 + [2] * 120 + [3] * 60
                + [4] * 30 + [5] * 20 + [6] * 10
            ),
            "random64": bytes(rng.choices(range(64), k=2048)),
            "longtail": bytes(rng.choices(
                range(200),
                weights=[2 ** max(0, 14 - i) for i in range(200)],
                k=3000,
            )),
        }

    _GOLDEN = {
        "abracadabra": (2, "2451673619afda7472ffb873b7410352"
                           "240da68d7ce84f0473527dcfeeaf12c9"),
        "skewed": (2, "b29ef1cb3137d5a7d9fd51d9155249ef"
                      "03e9bb0614a435248bedf70749b16f85"),
        "random64": (2, "b452e54123d28d36efa484133e732704"
                        "474aa1611259adfb7fab7fc4498e4cd8"),
        "longtail": (2, "4edd84e8e91965a353192747c2d688e5"
                        "99530753d755c1d489ade8ae05cd3b49"),
    }

    def test_huffman_payload_digests(self):
        corpus = self._corpus()
        for name, (tag, digest) in self._GOLDEN.items():
            data = corpus[name]
            payload = HuffmanCodec().compress_block(data)
            assert payload[0] == tag, name
            assert hashlib.sha256(payload).hexdigest() == digest, name
            assert HuffmanCodec().decompress_block(payload, len(data)) \
                == data

    def test_degenerate_payloads_exact(self):
        codec = HuffmanCodec()
        assert codec.compress_block(b"") == bytes.fromhex("0000000000")
        assert codec.compress_block(b"\x07" * 300) == \
            bytes.fromhex("01070000012c")
