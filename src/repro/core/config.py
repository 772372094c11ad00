"""Simulation configuration.

One :class:`SimulationConfig` fully determines a run (given a program):
codec, compression/decompression strategies and their k parameters,
granularity, memory budget, and the cost model.  Configs are immutable;
:meth:`SimulationConfig.replace` derives variants for parameter sweeps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..cfg.profile import EdgeProfile
from ..compress.codec import CodecError, resolve_codec_spec
from ..memory.hierarchy import HIERARCHIES
from ..selection.assignment import AssignmentError, validate_assignment
from ..strategies.base import STRATEGIES
from ..strategies.predictor import available_predictors

#: Decompression strategy names (Figure 3's design space plus the
#: uncompressed baseline).  Sourced from the unified registry so
#: externally registered strategies are accepted; the tuple is a
#: snapshot for display — validation checks the live registry.
DECOMPRESSION_STRATEGIES = tuple(STRATEGIES.names(sort=False))

#: Compression-unit granularities (paper vs. Debray-Evans baseline).
GRANULARITIES = ("block", "function")

#: Memory image schemes (paper's separate area vs. naive in-place).
IMAGE_SCHEMES = ("separate", "inplace")

#: Budget eviction policies.
EVICTION_POLICIES = ("lru", "fifo", "largest")


class ConfigError(ValueError):
    """Raised for inconsistent configuration values."""


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a simulation run needs besides the program itself.

    Attributes:
        codec: registered codec name ("lzw", "huffman", "dictionary",
            "lz77", "rle", "mtf-rle", "null") or a layered pipeline
            spec — compact ``"delta|huffman"`` or JSON
            ``{"layers": [...], "entropy": "lzw"}`` form (see
            :mod:`repro.compress.pipeline`).  Pipeline specs are
            canonicalized to the compact form on construction.
        decompression: "ondemand", "pre-all", "pre-single", or "none"
            (the never-compressed baseline that skips the image entirely).
        k_compress: the compression-side k of the k-edge algorithm;
            ``None`` means never recompress (k = infinity).
        k_decompress: the decompression-side k (pre-decompression
            distance); ignored by "ondemand"/"none".
        predictor: predictor for pre-decompress-single.
        profile: offline edge profile, required by the "static-profile"
            predictor.
        granularity: "block" (the paper) or "function" (Debray-Evans
            baseline).
        memory_budget: optional cap in bytes on the total code footprint
            (compressed area + decompressed copies), Section 2 mode.
        eviction: victim selection under the budget ("lru", "fifo",
            "largest").
        image_scheme: "separate" (paper, Section 5) or "inplace" (E8
            comparison).
        hierarchy: named memory-hierarchy preset (see
            :mod:`repro.memory.hierarchy`); "flat" reproduces the seed
            cost model exactly, "spm-front"/"two-level-dram" add real
            target-memory geometry (burst rounding, bus latency,
            per-level energy).
        assignment: per-unit codec-assignment policy spec (see
            :mod:`repro.selection`); "uniform" (the default, byte-
            identical to single-codec behaviour), "hotness-threshold"
            (hot units stay uncompressed), or "knapsack" (cycles-saved
            maximisation under a compressed-size budget).  Specs accept
            colon parameters, e.g. "knapsack:0.9",
            "hotness-threshold:0.25:rle".
        fault_cycles: exception-handler entry/exit cost charged on every
            memory-protection fault (full faults and patch-only faults).
        patch_cycles: background cycles per branch patch performed by the
            compression thread.
        contention: fraction of background-thread busy cycles charged to
            the execution thread (0 = ideal parallel threads).
        max_prefetch_backlog: pre-decompression requests are dropped while
            the decompression thread already has this many jobs queued
            (real prefetchers shed load instead of queueing unboundedly;
            a dropped request simply faults on demand later).
        trace_events: keep the event log (disable for large sweeps).
        record_trace: keep the executed block-id sequence in the result.
        data_words: machine data memory size in 32-bit words.
        max_steps: instruction budget guard against runaway kernels.
        label: optional human-readable name shown in reports.
    """

    codec: str = "shared-dict"
    decompression: str = "ondemand"
    k_compress: Optional[int] = 2
    k_decompress: int = 2
    predictor: str = "online-profile"
    profile: Optional[EdgeProfile] = None
    granularity: str = "block"
    memory_budget: Optional[int] = None
    eviction: str = "lru"
    image_scheme: str = "separate"
    hierarchy: str = "flat"
    assignment: str = "uniform"
    fault_cycles: int = 50
    patch_cycles: int = 4
    contention: float = 0.0
    max_prefetch_backlog: int = 4
    trace_events: bool = True
    record_trace: bool = True
    data_words: int = 1 << 16
    max_steps: int = 50_000_000
    label: Optional[str] = None

    def __post_init__(self) -> None:
        # Accept flat codec names and layered pipeline specs (compact
        # or JSON form); the field is canonicalized in place so two
        # spellings of the same pipeline produce equal configs — and
        # therefore equal store fingerprints.
        try:
            canonical = resolve_codec_spec(self.codec)
        except CodecError as exc:
            raise ConfigError(str(exc)) from None
        if canonical != self.codec:
            object.__setattr__(self, "codec", canonical)
        if self.decompression not in STRATEGIES:
            raise ConfigError(
                f"unknown decompression strategy '{self.decompression}'; "
                f"available: {tuple(STRATEGIES.names(sort=False))}"
            )
        if self.k_compress is not None and self.k_compress < 1:
            raise ConfigError(
                f"k_compress must be >= 1 or None, got {self.k_compress}"
            )
        if self.k_decompress < 1:
            raise ConfigError(
                f"k_decompress must be >= 1, got {self.k_decompress}"
            )
        if self.predictor not in available_predictors():
            raise ConfigError(
                f"unknown predictor '{self.predictor}'; "
                f"available: {available_predictors()}"
            )
        if self.predictor == "static-profile" and self.profile is None \
                and self.decompression == "pre-single":
            raise ConfigError(
                "static-profile predictor requires an offline profile"
            )
        if self.granularity not in GRANULARITIES:
            raise ConfigError(
                f"unknown granularity '{self.granularity}'; "
                f"available: {GRANULARITIES}"
            )
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ConfigError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )
        if self.eviction not in EVICTION_POLICIES:
            raise ConfigError(
                f"unknown eviction policy '{self.eviction}'; "
                f"available: {EVICTION_POLICIES}"
            )
        if self.image_scheme not in IMAGE_SCHEMES:
            raise ConfigError(
                f"unknown image scheme '{self.image_scheme}'; "
                f"available: {IMAGE_SCHEMES}"
            )
        if self.hierarchy not in HIERARCHIES:
            raise ConfigError(
                f"unknown memory hierarchy '{self.hierarchy}'; "
                f"available: {tuple(HIERARCHIES.names(sort=False))}"
            )
        try:
            validate_assignment(self.assignment)
        except AssignmentError as exc:
            raise ConfigError(str(exc)) from None
        if self.fault_cycles < 0 or self.patch_cycles < 0:
            raise ConfigError("cycle costs must be non-negative")
        if not 0.0 <= self.contention <= 1.0:
            raise ConfigError(
                f"contention must be in [0, 1], got {self.contention}"
            )
        if self.max_prefetch_backlog < 1:
            raise ConfigError(
                f"max_prefetch_backlog must be >= 1, got "
                f"{self.max_prefetch_backlog}"
            )
        for name in ("data_words", "max_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )

    def replace(self, **changes) -> "SimulationConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def strategy_name(self) -> str:
        """Readable strategy description used in results and reports."""
        if self.label:
            return self.label
        if self.decompression == "none":
            return "uncompressed"
        kc = "inf" if self.k_compress is None else str(self.k_compress)
        name = f"{self.decompression}/kc={kc}"
        if self.decompression in ("pre-all", "pre-single"):
            name += f"/kd={self.k_decompress}"
        if self.decompression == "pre-single":
            name += f"/{self.predictor}"
        if self.granularity != "block":
            name += f"/{self.granularity}"
        if self.memory_budget is not None:
            name += f"/budget={self.memory_budget}"
        if self.hierarchy != "flat":
            name += f"/{self.hierarchy}"
        if self.assignment != "uniform":
            # Mark profile-less selective runs: the policy then ranks
            # units by the static loop-nesting estimate, which is a
            # different input than a recorded profile — rows must never
            # look silently comparable across the two.
            name += f"/{self.assignment}"
            if self.profile is None:
                name += "[static]"
        return name
