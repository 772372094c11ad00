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
from repro.compress.codec import CodecCosts, NullCodec

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
        payload = codec.compress_block(data)
        assert codec.decompress_block(payload, len(data)) == data

    def test_image_format_roundtrip(self, codec):
        blocks = [b"\x01\x12\x00\x05" * 40, b"\x30\x41\x00\x10" * 3]
        payloads = codec.build_image(blocks)
        for data, payload in zip(blocks, payloads):
            assert codec.decompress_block(payload, len(data)) == data

    def test_ratio_bounded_for_incompressible(self, codec):
        # raw fallback caps blow-up at a small constant header
        data = bytes((i * 101 + 17) & 0xFF for i in range(400))
        assert len(codec.compress_block(data)) <= len(data) + 8


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
        assert codec.compress_block(b"xyz") == b"xyz"
        assert codec.decompress_block(b"xyz", 3) == b"xyz"

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
            codec.decompress_block(bytes((0x7F,)) + b"\x00" * 8, 0)

    @pytest.mark.parametrize("name", ["huffman", "lzw", "lz77"])
    def test_truncated_stream_rejected(self, name):
        codec = get_codec(name)
        data = b"hello world, hello world, hello"
        payload = codec.compress_block(data)
        if payload[0] == 0:  # raw fallback: truncation detected too
            with pytest.raises(CodecError):
                codec.decompress_block(payload[:4], len(data))
        else:
            with pytest.raises(CodecError):
                codec.decompress_block(
                    payload[: len(payload) // 2], len(data)
                )

    def test_empty_payload_rejected(self):
        for name in ("huffman", "lzw"):
            with pytest.raises(CodecError):
                get_codec(name).decompress_block(b"", 4)


#: The codecs whose payload is ``[tag][u32 BE length][body]``.
FRAMED = ["huffman", "lzw", "lz77", "rle", "dictionary"]

#: A block every framed codec codes rather than passing through raw.
CODED = bytes(300) + b"abcd" * 25


@pytest.mark.parametrize("name", FRAMED)
class TestSizedDecode:
    """A payload's declared length must equal the block size the image
    already knows; anything else raises before the body is decoded."""

    def test_declared_length_checked_before_decoding(
        self, name, monkeypatch
    ):
        # A coded header declaring 1 MiB, stored for a 64-byte block:
        # the decoder must neither trust it nor start decoding.
        codec = get_codec(name)
        tag = codec.compress_block(CODED)[0]
        payload = bytes((tag,)) + (1 << 20).to_bytes(4, "big") + bytes(64)

        def decode_body(*args):
            raise AssertionError("decoded a mis-sized payload")

        monkeypatch.setattr(type(codec), "_decode_body", decode_body)
        with pytest.raises(CodecError, match="declares 1048576 bytes"):
            codec.decompress_block(payload, 64)

    def test_raw_length_must_match_block_size(self, name):
        payload = bytes((0,)) + (3).to_bytes(4, "big") + b"abc"
        with pytest.raises(CodecError, match="declares 3 bytes"):
            get_codec(name).decompress_block(payload, 8)

    def test_coded_length_must_match_block_size(self, name):
        codec = get_codec(name)
        payload = codec.compress_block(CODED)
        assert payload[0] != 0
        with pytest.raises(CodecError, match="declares 400 bytes"):
            codec.decompress_block(payload, len(CODED) - 1)

    def test_truncated_headers_stay_typed(self, name):
        codec = get_codec(name)
        for payload in (b"", b"\x00\x00", b"\x01\x07\x00", b"\x02\x00"):
            with pytest.raises(CodecError):
                codec.decompress_block(payload, 4)


class TestHuffmanSingleSymbol:
    def test_single_symbol_count_bounded_by_block_size(self):
        # Tag 1 declaring 1 MiB of one symbol, stored for a 64-byte
        # block.
        payload = bytes((1, 0x07)) + (1 << 20).to_bytes(4, "big")
        with pytest.raises(CodecError, match="declares 1048576 bytes"):
            get_codec("huffman").decompress_block(payload, 64)


def test_lz77_overlong_match_rejected():
    # Declares 2 bytes and holds a literal then a 66-byte match at
    # offset 1: the decoded 67 bytes are not the 2-byte block.
    payload = bytes.fromhex("010000000230c003f0")
    with pytest.raises(CodecError, match="decoded to 67 bytes"):
        get_codec("lz77").decompress_block(payload, 2)


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
        payload = codec.compress_block(data)
        assert codec.decompress_block(payload, len(data)) == data
        assert codec.is_trained

    def test_unseen_bytes_use_escape(self):
        codec = SharedFieldsCodec()
        codec.train([b"\x00\x01\x02\x03" * 20])
        exotic = bytes((0xFE, 0xFD, 0xFC, 0xFB)) * 3
        payload = codec.compress_block(exotic)
        assert codec.decompress_block(payload, len(exotic)) == exotic

    def test_payload_overhead_is_one_tag_byte(self):
        # The block table holds the length: a raw payload is the block
        # behind one tag byte.
        codec = SharedDictionaryCodec()
        codec.train([b"\x01\x12\x00\x05" * 10])
        data = bytes(range(40))
        assert codec.compress_block(data) == b"\x00" + data

    def test_decompress_block_unknown_tag(self):
        codec = SharedDictionaryCodec()
        codec.train([b"\x00" * 8])
        with pytest.raises(CodecError, match="tag"):
            codec.decompress_block(b"\x09\x00", 4)
