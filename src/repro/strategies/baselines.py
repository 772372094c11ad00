"""Baseline configurations for experiment E6.

The paper positions its basic-block granularity against (a) not compressing
at all, (b) naive "compress everything, decompress on touch, recompress
immediately", and (c) the function-granularity scheme of Debray and Evans
[6]: "functions constitute compressible units... a large fraction of the
code is rarely touched."

These helpers return ready-made :class:`~repro.core.config.SimulationConfig`
objects so benchmarks and examples build comparisons declaratively.
"""

from __future__ import annotations

from ..core.config import SimulationConfig


def uncompressed_baseline(**overrides) -> SimulationConfig:
    """No compression at all: full-size image, zero overhead."""
    config = SimulationConfig(
        codec="null",
        decompression="none",
        k_compress=None,
        label="uncompressed",
    )
    return config.replace(**overrides)


def naive_always_compressed(codec: str = "shared-dict", **overrides) -> SimulationConfig:
    """Most aggressive setting: on-demand decompression, k=1 recompression.

    Minimum memory (at most a couple of blocks resident), maximum churn —
    the left edge of every trade-off curve.
    """
    config = SimulationConfig(
        codec=codec,
        decompression="ondemand",
        k_compress=1,
        label="naive-k1",
    )
    return config.replace(**overrides)


def block_granularity(
    codec: str = "shared-dict",
    k_compress: int = 4,
    decompression: str = "ondemand",
    k_decompress: int = 2,
    **overrides,
) -> SimulationConfig:
    """The paper's scheme at its default operating point."""
    config = SimulationConfig(
        codec=codec,
        decompression=decompression,
        k_compress=k_compress,
        k_decompress=k_decompress,
        label=f"block-{decompression}",
    )
    return config.replace(**overrides)


def function_granularity(
    codec: str = "shared-dict",
    k_compress: int = 4,
    decompression: str = "ondemand",
    k_decompress: int = 2,
    **overrides,
) -> SimulationConfig:
    """Debray-Evans-style function-granularity compression.

    Whole functions are the compression unit: a fault on any block
    decompresses the entire function, and k-edge counters tick per
    function.  Keeps hot *functions* resident but cannot keep only the hot
    *chain inside* a large function, which is precisely the memory the
    paper's finer granularity recovers (Section 6).
    """
    config = SimulationConfig(
        codec=codec,
        decompression=decompression,
        k_compress=k_compress,
        k_decompress=k_decompress,
        granularity="function",
        label=f"function-{decompression}",
    )
    return config.replace(**overrides)
