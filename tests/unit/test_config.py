"""Unit tests for SimulationConfig validation and naming."""

import pytest

from repro.cfg import EdgeProfile
from repro.core import ConfigError, SimulationConfig
from repro.strategies.baselines import (
    block_granularity,
    function_granularity,
    naive_always_compressed,
    uncompressed_baseline,
)


class TestValidation:
    def test_defaults_valid(self):
        config = SimulationConfig()
        assert config.codec == "shared-dict"

    def test_unknown_codec(self):
        with pytest.raises(ConfigError, match="codec"):
            SimulationConfig(codec="zstd")

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="decompression"):
            SimulationConfig(decompression="eager")

    def test_invalid_k_compress(self):
        with pytest.raises(ConfigError, match="k_compress"):
            SimulationConfig(k_compress=0)

    def test_none_k_compress_allowed(self):
        assert SimulationConfig(k_compress=None).k_compress is None

    def test_invalid_k_decompress(self):
        with pytest.raises(ConfigError, match="k_decompress"):
            SimulationConfig(k_decompress=0)

    def test_static_profile_needs_profile(self):
        with pytest.raises(ConfigError, match="profile"):
            SimulationConfig(
                decompression="pre-single", predictor="static-profile"
            )

    def test_static_profile_with_profile_ok(self):
        config = SimulationConfig(
            decompression="pre-single",
            predictor="static-profile",
            profile=EdgeProfile(),
        )
        assert config.profile is not None

    def test_invalid_budget(self):
        with pytest.raises(ConfigError, match="budget"):
            SimulationConfig(memory_budget=0)

    def test_invalid_contention(self):
        with pytest.raises(ConfigError, match="contention"):
            SimulationConfig(contention=2.0)

    def test_invalid_granularity(self):
        with pytest.raises(ConfigError, match="granularity"):
            SimulationConfig(granularity="page")

    def test_invalid_image_scheme(self):
        with pytest.raises(ConfigError, match="image scheme"):
            SimulationConfig(image_scheme="paged")

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigError, match="cycle costs"):
            SimulationConfig(fault_cycles=-1)

    @pytest.mark.parametrize("field", ["data_words", "max_steps"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_machine_sizes_must_be_positive(self, field, value):
        # data_words=-3 built an empty memory with sp at -16, and
        # max_steps=0 made every interpreting cell an error row.
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            SimulationConfig(**{field: value})
        assert getattr(SimulationConfig(**{field: 1}), field) == 1

    def test_invalid_backlog(self):
        with pytest.raises(ConfigError):
            SimulationConfig(max_prefetch_backlog=0)


class TestReplace:
    def test_replace_revalidates(self):
        config = SimulationConfig()
        with pytest.raises(ConfigError):
            config.replace(codec="nope")

    def test_replace_preserves_other_fields(self):
        config = SimulationConfig(k_compress=7, codec="lzw")
        derived = config.replace(k_compress=3)
        assert derived.codec == "lzw"
        assert derived.k_compress == 3
        assert config.k_compress == 7  # original untouched


class TestStrategyName:
    def test_uncompressed(self):
        assert SimulationConfig(
            decompression="none"
        ).strategy_name == "uncompressed"

    def test_ondemand_name(self):
        name = SimulationConfig(
            decompression="ondemand", k_compress=4
        ).strategy_name
        assert "ondemand" in name and "kc=4" in name

    def test_pre_single_mentions_predictor(self):
        name = SimulationConfig(
            decompression="pre-single", predictor="markov"
        ).strategy_name
        assert "markov" in name and "kd=" in name

    def test_label_overrides(self):
        assert SimulationConfig(label="mine").strategy_name == "mine"

    def test_infinite_k_rendered(self):
        assert "kc=inf" in SimulationConfig(
            k_compress=None
        ).strategy_name


class TestBaselineFactories:
    def test_uncompressed_baseline(self):
        config = uncompressed_baseline()
        assert config.decompression == "none"
        assert config.codec == "null"

    def test_naive_baseline(self):
        config = naive_always_compressed()
        assert config.k_compress == 1
        assert config.decompression == "ondemand"

    def test_block_granularity(self):
        config = block_granularity(k_compress=9)
        assert config.granularity == "block"
        assert config.k_compress == 9

    def test_function_granularity(self):
        config = function_granularity()
        assert config.granularity == "function"

    def test_overrides_forwarded(self):
        config = block_granularity(memory_budget=4096)
        assert config.memory_budget == 4096
