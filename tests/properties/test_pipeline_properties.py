"""Property-based tests for layered codec pipelines.

Two families of invariants:

* every registered pipeline (the curated ``pipeline-search`` pool plus
  a few hand-picked deep compositions) round-trips arbitrary bytes and
  instruction-like words losslessly through its per-block payload;
* composition identities — an ``identity|X`` pipeline's payload is flat
  ``X``'s behind one tag byte, and parsing is canonical across the
  compact and JSON spellings.

Damaged payloads are covered with every codec's in
``test_codec_properties.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import available_pipelines, get_codec

_BYTES = st.binary(min_size=0, max_size=1024)

#: Instruction-like input: 4-byte words from a small vocabulary,
#: mimicking encoded basic blocks (the transforms' actual workload).
_WORDS = st.lists(
    st.sampled_from([
        b"\x01\x12\x00\x05", b"\x10\x21\xff\xfb", b"\x30\x41\x00\x10",
        b"\x41\x12\x00\x08", b"\x20\x10\x00\x64", b"\x00\x00\x00\x00",
    ]),
    min_size=0,
    max_size=120,
).map(b"".join)

#: The registry pool plus deeper compositions not in the curated set.
_SPECS = tuple(available_pipelines()) + (
    "identity|rle",
    "delta|mtf|stride:3|huffman",
    "dict:8|delta|lzw",
)


@pytest.mark.parametrize("spec", _SPECS)
class TestLossless:
    @given(data=_BYTES)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_arbitrary_bytes(self, spec, data):
        codec = get_codec(spec)
        payload = codec.compress_block(data)
        assert codec.decompress_block(payload, len(data)) == data

    @given(data=_WORDS)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_instruction_like(self, spec, data):
        codec = get_codec(spec)
        payload = codec.compress_block(data)
        assert codec.decompress_block(payload, len(data)) == data

    @given(blocks=st.lists(_WORDS, min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_image_format_roundtrip(self, spec, blocks):
        codec = get_codec(spec)
        payloads = codec.build_image(blocks)
        for data, payload in zip(blocks, payloads):
            assert codec.decompress_block(payload, len(data)) == data


class TestCompositionIdentity:
    @given(data=_BYTES)
    @settings(max_examples=30, deadline=None)
    def test_identity_layer_is_flat_codec(self, data):
        # identity|X's payload is flat X's behind the pipeline's tag
        # byte, and both decode to the same bytes.
        flat = get_codec("huffman")
        piped = get_codec("identity|huffman")
        payload = piped.compress_block(data)
        assert payload[1:] == flat.compress_block(data)
        assert piped.decompress_block(payload, len(data)) == data

    @given(data=_BYTES)
    @settings(max_examples=20, deadline=None)
    def test_spec_spellings_agree(self, data):
        compact = get_codec("delta|stride:2|rle")
        as_json = get_codec(
            '{"layers": ["delta", "stride:2"], "entropy": "rle"}'
        )
        assert compact.name == as_json.name
        assert compact.compress_block(data) == as_json.compress_block(data)
