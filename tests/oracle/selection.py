"""Codec selection as it ran before its inputs were computed once,
frozen as a differential oracle.

:class:`OracleContext` is the assignment context whose cost methods
look each payload size, model overhead and codec cost model up afresh
on every call (the static hotness estimate walks ``natural_loops`` per
context), and :class:`OraclePipelineSearch` is the ``pipeline-search``
policy that re-scores every unit against every allowed option with
``min(...)`` in each floor and pruning round.  :func:`oracle_assignment`
resolves a config through them the way ``build_assignment`` did,
canonicalising each unit's codec name on its own.  The ``knapsack`` and
``hotness-threshold`` policies and the hot-upgrade step are unchanged
and run against the oracle context as they are.

The selection code in ``src/`` must give the same unit codecs and the
same digest; ``tests/unit/test_selection_oracle.py`` holds it to that.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cfg.builder import ProgramCFG
from repro.cfg.loops import natural_loops
from repro.cfg.profile import EdgeProfile
from repro.compress.codec import CodecError, get_codec, resolve_codec_spec
from repro.core.config import SimulationConfig
from repro.memory.image import compression_artifacts
from repro.selection.assignment import (
    UNCOMPRESSED,
    AssignmentError,
    CodecAssignment,
    UnitStats,
    make_policy,
    parse_assignment,
    unit_map,
)
from repro.selection.pipeline_search import PipelineSearchAssignment

_LOOP_WEIGHT = 8
_LOOP_DEPTH_CAP = 6


class OracleContext:
    """The assignment context as it was: everything a policy may consult.

    Payload sizes come from the shared per-(CFG, codec) artifact memo,
    so asking for a codec's sizes trains/compresses at most once per
    process — and not at all when a sweep already built them.
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        base_codec: str,
        granularity: str = "block",
        profile: Optional[EdgeProfile] = None,
    ) -> None:
        self.cfg = cfg
        self.base_codec = base_codec
        self.granularity = granularity
        _, self._unit_blocks = unit_map(cfg, granularity)
        hotness = self._hotness_by_block(profile)
        self.units: List[UnitStats] = [
            UnitStats(
                unit_id=unit_id,
                blocks=blocks,
                size_bytes=sum(
                    cfg.block(b).size_bytes for b in blocks
                ),
                hotness=sum(hotness.get(b, 0) for b in blocks),
            )
            for unit_id, blocks in sorted(self._unit_blocks.items())
        ]
        self.profiled = profile is not None and any(
            profile.block_counts.values()
        )
        self._payload_cache: Dict[str, List[int]] = {}

    def _hotness_by_block(
        self, profile: Optional[EdgeProfile]
    ) -> Dict[int, int]:
        """Per-block execution weight: profiled counts when available,
        otherwise a static loop-nesting estimate (deeper = hotter)."""
        if profile is not None and any(profile.block_counts.values()):
            return {
                block.block_id: profile.block_count(block.block_id)
                for block in self.cfg.blocks
            }
        depth: Dict[int, int] = {
            block.block_id: 0 for block in self.cfg.blocks
        }
        for loop in natural_loops(self.cfg):
            for block_id in loop.body:
                depth[block_id] = min(
                    depth[block_id] + 1, _LOOP_DEPTH_CAP
                )
        return {
            block_id: _LOOP_WEIGHT ** d if d else 0
            for block_id, d in depth.items()
        }

    # -- sizes and costs ----------------------------------------------

    def _payload_sizes(self, codec_name: str) -> List[int]:
        sizes = self._payload_cache.get(codec_name)
        if sizes is None:
            artifacts = compression_artifacts(self.cfg, codec_name)
            sizes = [len(p) for p in artifacts.payloads]
            self._payload_cache[codec_name] = sizes
        return sizes

    def unit_payload_size(self, unit_id: int, codec_name: str) -> int:
        """Compressed bytes of ``unit_id`` under ``codec_name``."""
        sizes = self._payload_sizes(codec_name)
        return sum(sizes[b] for b in self._unit_blocks[unit_id])

    def model_overhead(self, codec_name: str) -> int:
        """The codec's shared-model bytes, charged once per image."""
        artifacts = compression_artifacts(self.cfg, codec_name)
        return int(getattr(artifacts.codec, "model_overhead_bytes", 0))

    def decompress_latency(self, codec_name: str, nbytes: int) -> int:
        """Modelled cycles to decompress ``nbytes`` with the codec."""
        return get_codec(codec_name).costs.decompress_latency(nbytes)

    def image_size(self, unit_codecs: Mapping[int, str]) -> int:
        """Exact compressed-image bytes of a candidate assignment:
        payloads plus one model overhead per distinct codec used."""
        total = sum(
            self.unit_payload_size(unit.unit_id,
                                   unit_codecs[unit.unit_id])
            for unit in self.units
        )
        for codec_name in sorted(set(unit_codecs.values())):
            total += self.model_overhead(codec_name)
        return total

    @property
    def uniform_image_size(self) -> int:
        """The all-base-codec image size (the budget baseline)."""
        return self.image_size(
            {unit.unit_id: self.base_codec for unit in self.units}
        )


class OraclePipelineSearch(PipelineSearchAssignment):
    """``pipeline-search`` with the floor and pruning re-scored per
    round (hot upgrades inherited, unchanged)."""

    def assign(self, context: OracleContext) -> Dict[int, str]:
        base = context.base_codec
        options: List[str] = []
        for name in (base, UNCOMPRESSED, *self.candidate_specs):
            if name not in options:
                options.append(name)

        def payload_size(unit: UnitStats, name: str) -> int:
            if name == UNCOMPRESSED:
                return unit.size_bytes
            return context.unit_payload_size(unit.unit_id, name)

        def latency(name: str, nbytes: int) -> int:
            if name == UNCOMPRESSED:
                return 0
            return context.decompress_latency(name, nbytes)

        def best_for(unit: UnitStats, allowed: Sequence[str]) -> str:
            return min(
                allowed,
                key=lambda name: (
                    payload_size(unit, name),
                    latency(name, unit.size_bytes),
                    name,
                ),
            )

        allowed = list(options)
        out = {
            unit.unit_id: best_for(unit, allowed)
            for unit in context.units
        }
        out = self._prune_models(context, allowed, out, best_for)
        # Safeguard: the floor must never lose to the plain
        # base-vs-uncompressed floor (the knapsack policy's floor),
        # whatever the greedy pruning above settled on — this keeps
        # the mixed image provably within the uniform budget.
        base_floor = {
            unit.unit_id: best_for(unit, (base, UNCOMPRESSED))
            for unit in context.units
        }
        if context.image_size(out) > context.image_size(base_floor):
            out = base_floor
        return self._upgrade_hot(context, out, payload_size, latency)

    @staticmethod
    def _prune_models(context, allowed, out, best_for):
        """Drop candidates whose model overhead exceeds their benefit.

        Uses the exact whole-image accounting
        (:meth:`OracleContext.image_size`, payloads plus one model
        per distinct codec): each round tries removing one currently
        used codec, re-floors the remaining pool, and keeps the single
        removal that shrinks the image most (ties broken by name).
        Terminates because the pool only shrinks.
        """
        def refloor(pool):
            return {
                unit.unit_id: best_for(unit, pool)
                for unit in context.units
            }

        while True:
            current_size = context.image_size(out)
            best: "Tuple[int, str, dict, list] | None" = None
            for name in sorted(set(out.values())):
                if name == UNCOMPRESSED:
                    continue
                rest = [n for n in allowed if n != name]
                trial = refloor(rest)
                size = context.image_size(trial)
                if size < current_size and (
                    best is None or (size, name) < (best[0], best[1])
                ):
                    best = (size, name, trial, rest)
            if best is None:
                return out
            _, _, out, allowed = best


def oracle_assignment(
    cfg: ProgramCFG, config: SimulationConfig
) -> CodecAssignment:
    """Resolve ``config.assignment`` into a :class:`CodecAssignment`.

    The policy sees the configured granularity's unit geometry and the
    config's offline edge profile (static loop-nesting hotness when the
    profile is absent or empty).  The returned mapping is validated:
    every unit assigned, every codec name registered.
    """
    name, params = parse_assignment(config.assignment)
    if name == "pipeline-search":
        policy = OraclePipelineSearch(*params)
    else:
        policy = make_policy(config.assignment)
    context = OracleContext(
        cfg,
        base_codec=config.codec,
        granularity=config.granularity,
        profile=config.profile,
    )
    unit_codecs = dict(policy.assign(context))
    _, unit_blocks = unit_map(cfg, config.granularity)
    for unit_id in unit_blocks:
        codec_name = unit_codecs.get(unit_id)
        if codec_name is None:
            raise AssignmentError(
                f"assignment policy '{config.assignment}' left unit "
                f"{unit_id} unassigned"
            )
        try:
            # Flat names pass through; pipeline specs canonicalize so
            # the digest (and the artifact memo keys) never see two
            # spellings of one pipeline.
            unit_codecs[unit_id] = resolve_codec_spec(codec_name)
        except CodecError:
            raise AssignmentError(
                f"assignment policy '{config.assignment}' chose "
                f"unknown codec '{codec_name}' for unit {unit_id}"
            ) from None
    block_codecs = {
        block_id: unit_codecs[unit_id]
        for unit_id, blocks in unit_blocks.items()
        for block_id in blocks
    }
    return CodecAssignment(
        policy=config.assignment,
        base_codec=config.codec,
        unit_codecs=unit_codecs,
        block_codecs=block_codecs,
    )
