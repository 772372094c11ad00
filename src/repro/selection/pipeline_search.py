"""The ``pipeline-search`` assignment policy.

Layered pipelines (see :mod:`repro.compress.pipeline`) make the codec
space per unit much larger than the flat registry: every composition
of transform layers and entropy stage is a candidate.  This policy
explores that space per compression unit under the same machinery the
``knapsack`` policy uses:

1. **Floor** — each unit takes the smallest payload over {base codec,
   uncompressed, the first *N* pipelines of the curated candidate pool
   (:data:`~repro.compress.pipeline.CANDIDATE_PIPELINES`)}, ties
   broken by predicted decompression latency and then spec string, so
   the result is deterministic.  Each unit's options are ranked by
   that key once; the floor is the first entry of the ranking.
2. **Model-overhead pruning** — a shared-model pipeline used by only a
   few units can cost more in model bytes than its payloads save.
   Candidates whose total payload benefit (vs. the units' next-best
   choice) is smaller than their model overhead are dropped, worst
   first, until the selection is stable — the exact accounting
   :meth:`~repro.selection.assignment.AssignmentContext.image_size`
   charges.  Re-flooring a smaller pool re-reads the rankings: a unit
   takes the first ranked option still in the pool.
3. **Hot upgrades** — the bytes the floor saved relative to the
   uniform base-codec image are spent keeping the hottest units
   uncompressed (value = predicted synchronous decompression cycles
   saved, weight = size increase), reusing the knapsack policy's
   greedy + DP refinement.  The mixed image therefore never exceeds
   the uniform one.

Spec forms: ``"pipeline-search"`` (whole pool) or
``"pipeline-search:3"`` (first 3 candidates).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..compress.codec import resolve_codec_spec
from ..compress.pipeline import CANDIDATE_PIPELINES
from .assignment import (
    ASSIGNMENTS,
    UNCOMPRESSED,
    AssignmentContext,
    AssignmentPolicy,
    UnitStats,
)
from .policies import KnapsackAssignment


@ASSIGNMENTS.register("pipeline-search")
class PipelineSearchAssignment(AssignmentPolicy):
    """Per-unit search over the curated pipeline composition pool."""

    def __init__(self, candidates: float = 0) -> None:
        pool = CANDIDATE_PIPELINES
        count = int(candidates)
        if count != candidates or count < 0 or count > len(pool):
            raise ValueError(
                f"candidates must be an integer in [0, {len(pool)}] "
                f"(0 = the whole pool), got {candidates}"
            )
        if count == 0:
            count = len(pool)
        self.candidate_specs: Tuple[str, ...] = tuple(
            resolve_codec_spec(spec) for spec in pool[:count]
        )

    # -- selection ------------------------------------------------------

    def assign(self, context: AssignmentContext) -> Dict[int, str]:
        base = context.base_codec
        options = tuple(
            dict.fromkeys((base, UNCOMPRESSED, *self.candidate_specs))
        )

        def payload_size(unit: UnitStats, name: str) -> int:
            if name == UNCOMPRESSED:
                return unit.size_bytes
            return context.unit_payload_size(unit.unit_id, name)

        def latency(name: str, nbytes: int) -> int:
            if name == UNCOMPRESSED:
                return 0
            return context.decompress_latency(name, nbytes)

        # Each unit's options, ranked once.  The key ends in the unique
        # option name, so it is a total order: the best option of any
        # allowed pool is the first allowed entry of the ranking.
        rankings = {
            unit.unit_id: sorted(
                options,
                key=lambda name: (
                    payload_size(unit, name),
                    latency(name, unit.size_bytes),
                    name,
                ),
            )
            for unit in context.units
        }

        def floor(allowed: FrozenSet[str]) -> Dict[int, str]:
            return {
                unit_id: next(n for n in ranking if n in allowed)
                for unit_id, ranking in rankings.items()
            }

        allowed = frozenset(options)
        out = self._prune_models(context, allowed, floor(allowed), floor)
        # Safeguard: the floor must never lose to the plain
        # base-vs-uncompressed floor (the knapsack policy's floor),
        # whatever the greedy pruning above settled on — this keeps
        # the mixed image provably within the uniform budget.
        base_floor = floor(frozenset((base, UNCOMPRESSED)))
        if context.image_size(out) > context.image_size(base_floor):
            out = base_floor
        return self._upgrade_hot(context, out, payload_size, latency)

    @staticmethod
    def _prune_models(context, allowed, out, floor):
        """Drop candidates whose model overhead exceeds their benefit.

        Uses the exact whole-image accounting
        (:meth:`AssignmentContext.image_size`, payloads plus one model
        per distinct codec): each round tries removing one currently
        used codec, re-floors the remaining pool, and keeps the single
        removal that shrinks the image most (ties broken by name).
        Terminates because the pool only shrinks.
        """
        while True:
            current_size = context.image_size(out)
            best: "Tuple[int, str, dict, frozenset] | None" = None
            for name in sorted(set(out.values())):
                if name == UNCOMPRESSED:
                    continue
                rest = allowed - {name}
                trial = floor(rest)
                size = context.image_size(trial)
                if size < current_size and (
                    best is None or (size, name) < (best[0], best[1])
                ):
                    best = (size, name, trial, rest)
            if best is None:
                return out
            _, _, out, allowed = best

    @staticmethod
    def _upgrade_hot(context, out, payload_size, latency):
        """Spend spare bytes (vs. the uniform base image) keeping the
        hottest units uncompressed — the knapsack step."""
        budget = context.uniform_image_size
        spare = budget - context.image_size(out)
        if spare <= 0:
            return out
        candidates: List[Tuple[int, int, int]] = []
        for unit in context.units:
            current = out[unit.unit_id]
            if current == UNCOMPRESSED or unit.hotness <= 0:
                continue
            value = unit.hotness * latency(current, unit.size_bytes)
            weight = unit.size_bytes - payload_size(unit, current)
            if value > 0:
                candidates.append(
                    (value, max(weight, 0), unit.unit_id)
                )
        if not candidates:
            return out
        greedy = KnapsackAssignment._greedy(candidates, spare)
        refined = KnapsackAssignment._dp_refine(candidates, spare)
        chosen = refined if refined is not None and (
            sum(v for v, _, _ in refined)
            > sum(v for v, _, _ in greedy)
        ) else greedy
        for _, _, unit_id in chosen:
            out[unit_id] = UNCOMPRESSED
        return out
