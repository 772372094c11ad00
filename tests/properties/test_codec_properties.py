"""Property-based tests: every codec is lossless on arbitrary bytes, and
a damaged payload decodes to exactly its block's size or raises."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import (
    CodecError,
    available_codecs,
    available_pipelines,
    get_codec,
)

_BYTES = st.binary(min_size=0, max_size=2048)

#: Instruction-like input: 4-byte words drawn from a small vocabulary,
#: mimicking encoded basic blocks (the codecs' actual workload).
_WORDS = st.lists(
    st.sampled_from([
        b"\x01\x12\x00\x05", b"\x10\x21\xff\xfb", b"\x30\x41\x00\x10",
        b"\x41\x12\x00\x08", b"\x20\x10\x00\x64", b"\x00\x00\x00\x00",
    ]),
    min_size=0,
    max_size=200,
).map(b"".join)


@pytest.mark.parametrize("name", sorted(available_codecs()))
class TestLossless:
    @given(data=_BYTES)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_arbitrary_bytes(self, name, data):
        codec = get_codec(name)
        payload = codec.compress_block(data)
        assert codec.decompress_block(payload, len(data)) == data

    @given(data=_WORDS)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_instruction_like(self, name, data):
        codec = get_codec(name)
        payload = codec.compress_block(data)
        assert codec.decompress_block(payload, len(data)) == data

    @given(blocks=st.lists(_BYTES, min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_image_format_roundtrip(self, name, blocks):
        codec = get_codec(name)
        payloads = codec.build_image(blocks)
        for data, payload in zip(blocks, payloads):
            assert codec.decompress_block(payload, len(data)) == data

    @given(data=_BYTES)
    @settings(max_examples=25, deadline=None)
    def test_expansion_bounded(self, name, data):
        # raw fallback: blow-up never exceeds a small constant header
        codec = get_codec(name)
        assert len(codec.compress_block(data)) <= len(data) + 8


class TestSharedModelCrossTraining:
    @given(
        corpus=st.lists(_WORDS, min_size=1, max_size=8),
        sample=_WORDS,
    )
    @settings(max_examples=30, deadline=None)
    def test_trained_codec_handles_unseen_blocks(self, corpus, sample):
        # the model is trained on one corpus but must correctly code any
        # other block (escapes / literals cover unseen symbols)
        for name in ("shared-dict", "shared-huffman", "shared-fields"):
            codec = get_codec(name)
            codec.train(corpus)
            payload = codec.compress_block(sample)
            assert codec.decompress_block(payload, len(sample)) == sample


def _decodes_to_size_or_raises(codec, payload, length):
    """A damaged payload may decode to wrong bytes (an image carries no
    checksum), but never to a plaintext of another size, and it may
    raise nothing but :class:`CodecError`."""
    try:
        decoded = codec.decompress_block(payload, length)
    except CodecError:
        return
    assert len(decoded) == length, payload.hex()


@pytest.mark.parametrize(
    "name", sorted(available_codecs()) + available_pipelines()
)
class TestDamagedPayloads:
    @given(data=st.one_of(_BYTES, _WORDS).filter(len))
    @settings(max_examples=20, deadline=None)
    def test_truncation(self, name, data):
        codec = get_codec(name)
        payload = codec.compress_block(data)
        for cut in range(len(payload)):
            _decodes_to_size_or_raises(codec, payload[:cut], len(data))

    @given(
        data=st.one_of(_BYTES, _WORDS).filter(len),
        index=st.integers(0, 10**6),
        mask=st.integers(1, 255),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_byte_flip(self, name, data, index, mask):
        codec = get_codec(name)
        payload = codec.compress_block(data)
        # Each of the first 8 bytes, where the tags and declared
        # lengths live, and one byte anywhere.
        for position in {*range(min(8, len(payload))), index % len(payload)}:
            damaged = bytearray(payload)
            damaged[position] ^= mask
            _decodes_to_size_or_raises(codec, bytes(damaged), len(data))
