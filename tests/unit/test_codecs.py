"""Unit tests for all codecs: round-trips, edge cases, registry, costs."""

import pytest

from repro.compress import (
    CodecError,
    SharedDictionaryCodec,
    SharedFieldsCodec,
    SharedHuffmanCodec,
    available_codecs,
    get_codec,
)
from repro.compress.codec import (
    CodecCosts,
    NullCodec,
    compress_for_image,
    decompress_for_image,
)

SAMPLES = [
    b"",
    b"a",
    b"ab",
    b"aaaa" * 64,
    b"abcd" * 100,
    bytes(range(256)),
    bytes(256),
    b"the quick brown fox jumps over the lazy dog " * 10,
    bytes((i * 7 + 3) & 0xFF for i in range(1000)),
]


@pytest.fixture(params=sorted(available_codecs()))
def codec(request):
    return get_codec(request.param)


class TestRoundtrip:
    @pytest.mark.parametrize("sample_index", range(len(SAMPLES)))
    def test_roundtrip(self, codec, sample_index):
        data = SAMPLES[sample_index]
        assert codec.decompress(codec.compress(data)) == data

    def test_image_format_roundtrip(self, codec):
        data = b"\x01\x12\x00\x05" * 40
        payload = compress_for_image(codec, data)
        assert decompress_for_image(codec, payload, len(data)) == data

    def test_ratio_bounded_for_incompressible(self, codec):
        # raw fallback caps blow-up at a small constant header
        data = bytes((i * 101 + 17) & 0xFF for i in range(400))
        assert len(codec.compress(data)) <= len(data) + 8


class TestRegistry:
    def test_known_codecs_present(self):
        names = available_codecs()
        for expected in (
            "null", "rle", "mtf-rle", "huffman", "lzw", "lz77",
            "dictionary", "shared-dict", "shared-huffman",
            "shared-fields",
        ):
            assert expected in names

    def test_unknown_codec_raises_with_choices(self):
        with pytest.raises(KeyError, match="available"):
            get_codec("bogus")

    def test_instances_are_fresh(self):
        a = get_codec("shared-dict")
        b = get_codec("shared-dict")
        assert a is not b


class TestNullCodec:
    def test_identity(self):
        codec = NullCodec()
        assert codec.compress(b"xyz") == b"xyz"
        assert codec.ratio(b"xyz") == 1.0

    def test_zero_latency(self):
        codec = NullCodec()
        assert codec.costs.decompress_latency(1000) == 0


class TestCosts:
    def test_latency_scales_with_size(self, codec):
        small = codec.costs.decompress_latency(10)
        large = codec.costs.decompress_latency(1000)
        assert large >= small

    def test_fixed_cost_floor(self):
        costs = CodecCosts(
            decompress_cycles_per_byte=2.0,
            compress_cycles_per_byte=4.0,
            fixed=33,
        )
        assert costs.decompress_latency(0) == 33
        assert costs.decompress_latency(10) == 53


class TestCorruptionHandling:
    @pytest.mark.parametrize(
        "name", ["huffman", "lzw", "lz77", "rle", "dictionary"]
    )
    def test_bad_tag_rejected(self, name):
        codec = get_codec(name)
        with pytest.raises(CodecError):
            codec.decompress(bytes((0x7F,)) + b"\x00" * 8)

    @pytest.mark.parametrize("name", ["huffman", "lzw", "lz77"])
    def test_truncated_stream_rejected(self, name):
        codec = get_codec(name)
        payload = codec.compress(b"hello world, hello world, hello")
        if payload[0] == 0:  # raw fallback: truncation detected too
            with pytest.raises(CodecError):
                codec.decompress(payload[:4])
        else:
            with pytest.raises(CodecError):
                codec.decompress(payload[: len(payload) // 2])

    def test_empty_payload_rejected(self):
        for name in ("huffman", "lzw"):
            with pytest.raises(CodecError):
                get_codec(name).decompress(b"")


class TestHuffmanSizedDecode:
    """The code-image decode checks each payload's declared length
    against the block size it already knows, before allocating."""

    def test_single_symbol_count_bounded_by_block_size(self):
        # Tag 1 declaring 1 MiB of one symbol, stored for a 64-byte
        # block: the flat decode would materialise all of it.
        payload = bytes((1, 0x07)) + (1 << 20).to_bytes(4, "big")
        with pytest.raises(CodecError, match="declares 1048576 bytes"):
            decompress_for_image(get_codec("huffman"), payload, 64)

    def test_raw_length_must_match_block_size(self):
        payload = bytes((0,)) + (3).to_bytes(4, "big") + b"abc"
        with pytest.raises(CodecError, match="declares 3 bytes"):
            decompress_for_image(get_codec("huffman"), payload, 8)

    def test_coded_length_must_match_block_size(self):
        codec = get_codec("huffman")
        data = b"abcd" * 100
        payload = codec.compress(data)
        assert payload[0] == 2
        with pytest.raises(CodecError, match="declares 400 bytes"):
            decompress_for_image(codec, payload, len(data) - 1)

    @pytest.mark.parametrize("data", SAMPLES)
    def test_matching_sizes_decode(self, data):
        codec = get_codec("huffman")
        payload = compress_for_image(codec, data)
        assert payload == codec.compress(data)
        assert decompress_for_image(codec, payload, len(data)) == data

    def test_truncated_headers_stay_typed(self):
        codec = get_codec("huffman")
        for payload in (b"", b"\x00\x00", b"\x01\x07\x00", b"\x02\x00"):
            with pytest.raises(CodecError):
                decompress_for_image(codec, payload, 4)


class TestSharedModelCodecs:
    def test_training_improves_cross_block_compression(self):
        blocks = [
            bytes((0x01, 0x12, 0x00, 0x05)) * 10,
            bytes((0x01, 0x12, 0x00, 0x05)) * 8,
        ]
        codec = SharedDictionaryCodec()
        codec.train(blocks)
        for block in blocks:
            assert len(codec.compress_block(block)) < len(block)

    def test_model_overhead_reported(self):
        codec = SharedDictionaryCodec()
        codec.train([b"\x01\x02\x03\x04" * 10])
        assert codec.model_overhead_bytes > 0

    def test_untrained_auto_trains_on_first_input(self):
        codec = SharedHuffmanCodec()
        data = b"hello hello hello"
        assert codec.decompress(codec.compress(data)) == data
        assert codec.is_trained

    def test_unseen_bytes_use_escape(self):
        codec = SharedFieldsCodec()
        codec.train([b"\x00\x01\x02\x03" * 20])
        exotic = bytes((0xFE, 0xFD, 0xFC, 0xFB)) * 3
        payload = codec.compress_block(exotic)
        assert codec.decompress_block(payload, len(exotic)) == exotic

    def test_sized_payload_smaller_than_self_contained(self):
        codec = SharedDictionaryCodec()
        data = b"\x01\x12\x00\x05" * 10
        codec.train([data])
        assert len(codec.compress_block(data)) < len(codec.compress(data))

    def test_decompress_block_unknown_tag(self):
        codec = SharedDictionaryCodec()
        codec.train([b"\x00" * 8])
        with pytest.raises(CodecError, match="tag"):
            codec.decompress_block(b"\x09\x00", 4)

    def test_oversized_input_rejected(self):
        codec = SharedHuffmanCodec()
        with pytest.raises(CodecError, match="64 KiB"):
            codec.compress(bytes(0x10001))
