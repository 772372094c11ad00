"""Unit tests for layered pipeline specs, codecs, and the registries."""

import pytest

from repro.compress import (
    CANDIDATE_PIPELINES,
    CodecError,
    PipelineCodec,
    PipelineError,
    PipelineSpec,
    available_pipelines,
    available_transforms,
    get_codec,
    is_known_codec,
    is_pipeline_spec,
    parse_pipeline_spec,
    resolve_codec_spec,
)
from repro.core import ConfigError, SimulationConfig
from repro.selection import (
    AssignmentError,
    PipelineSearchAssignment,
    available_assignments,
    validate_assignment,
)


class TestSpecParsing:
    def test_compact_form(self):
        spec = parse_pipeline_spec("delta|stride:4|huffman")
        assert spec.layers == (("delta", ()), ("stride", (4,)))
        assert spec.entropy == "huffman"
        assert spec.compact == "delta|stride:4|huffman"

    def test_json_form_matches_compact(self):
        compact = parse_pipeline_spec("delta|stride:4|huffman")
        spelled = parse_pipeline_spec(
            '{"layers": ["delta", {"kind": "stride", "params": [4]}],'
            ' "entropy": "huffman"}'
        )
        assert spelled == compact
        assert spelled.to_json() == {
            "layers": ["delta", "stride:4"], "entropy": "huffman",
        }

    def test_whitespace_is_tolerated(self):
        assert parse_pipeline_spec(" delta | huffman ").compact \
            == "delta|huffman"

    def test_flat_entropy_only(self):
        spec = parse_pipeline_spec('{"entropy": "rle"}')
        assert spec == PipelineSpec(layers=(), entropy="rle")

    @pytest.mark.parametrize("bad, message", [
        ("", "non-empty"),
        ("|huffman", "empty segment"),
        ("delta|", "empty segment"),
        ("bogus|huffman", "unknown transform 'bogus'"),
        ("delta|bogus", "unknown entropy codec 'bogus'"),
        ("delta|stride:x|rle", "not an integer"),
        ("stride:99|rle", "invalid parameters"),
        ("{not json", "not valid JSON"),
        ('{"entropy": "rle", "x": 1}', "unknown pipeline spec keys"),
        ('{"layers": "delta", "entropy": "rle"}', "must be a list"),
        ('{"layers": [], "entropy": "delta|rle"}', "must be a flat"),
    ])
    def test_malformed_specs_raise_typed_errors(self, bad, message):
        with pytest.raises(PipelineError, match=message):
            parse_pipeline_spec(bad)

    def test_is_pipeline_spec(self):
        assert is_pipeline_spec("delta|huffman")
        assert is_pipeline_spec('{"entropy": "rle"}')
        assert is_pipeline_spec({"entropy": "rle"})
        assert not is_pipeline_spec("huffman")


class TestResolveCodecSpec:
    def test_flat_names_pass_through(self):
        assert resolve_codec_spec("huffman") == "huffman"

    def test_pipeline_specs_canonicalize(self):
        assert resolve_codec_spec(
            '{"layers": ["delta"], "entropy": "huffman"}'
        ) == "delta|huffman"

    def test_unknown_names_mention_pipelines(self):
        with pytest.raises(CodecError, match="pipeline spec"):
            resolve_codec_spec("nope")
        assert not is_known_codec("nope")
        assert is_known_codec("delta|huffman")

    def test_config_canonicalizes_codec(self):
        compact = SimulationConfig(codec="delta|huffman")
        spelled = SimulationConfig(
            codec='{"layers": ["delta"], "entropy": "huffman"}'
        )
        assert compact.codec == spelled.codec == "delta|huffman"

    def test_config_rejects_bad_spec(self):
        with pytest.raises(ConfigError, match="unknown transform"):
            SimulationConfig(codec="bogus|huffman")


class TestPipelineCodec:
    def test_name_is_canonical_compact_spec(self):
        codec = get_codec('{"layers": ["mtf"], "entropy": "rle"}')
        assert isinstance(codec, PipelineCodec)
        assert codec.name == "mtf|rle"

    def test_entropy_only_spec_is_the_flat_codec(self):
        assert get_codec('{"entropy": "rle"}').name == "rle"
        assert not isinstance(
            get_codec('{"entropy": "rle"}'), PipelineCodec
        )

    def test_costs_sum_the_stages(self):
        flat = get_codec("huffman")
        piped = get_codec("delta|huffman")
        assert piped.costs.decompress_cycles_per_byte > \
            flat.costs.decompress_cycles_per_byte
        assert piped.costs.fixed > flat.costs.fixed

    def test_shared_entropy_delegates_training(self):
        codec = get_codec("stride:4|shared-dict")
        assert not codec.is_trained
        codec.train([b"\x01\x02\x03\x04" * 8])
        assert codec.is_trained
        assert codec.model_overhead_bytes > 0

    def test_length_preserving_flag(self):
        assert get_codec("delta|rle").length_preserving
        assert not get_codec("dict:8|rle").length_preserving


class TestRegistries:
    def test_candidate_pool_is_registered(self):
        assert set(CANDIDATE_PIPELINES) <= set(available_pipelines())

    def test_transforms_registered(self):
        assert {"identity", "delta", "mtf", "stride", "dict"} \
            <= set(available_transforms())

    def test_pipeline_search_policy_registered(self):
        assert "pipeline-search" in available_assignments()
        validate_assignment("pipeline-search:3")
        with pytest.raises(AssignmentError):
            validate_assignment("pipeline-search:999")

    def test_pipeline_search_candidate_count(self):
        assert PipelineSearchAssignment().candidate_specs \
            == tuple(CANDIDATE_PIPELINES)
        assert PipelineSearchAssignment(2).candidate_specs \
            == tuple(CANDIDATE_PIPELINES[:2])
