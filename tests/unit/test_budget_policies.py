"""Unit tests for the memory-budget eviction policies (Section 2).

The LRU/FIFO/largest victim-selection logic was previously covered only
indirectly through the E5 experiment; these tests pin its contract
directly: ranking order, protected-unit exclusion, multi-victim
accumulation, and the unreachable-budget error — plus one end-to-end
simulation per policy.
"""

from __future__ import annotations

import pytest

from oracle import layered as oracle
from repro import api
from repro.core import SimulationConfig
from repro.strategies.budget import BudgetError, MemoryBudget

SIZES = {1: 100, 2: 50, 3: 200, 4: 75}


def _budget(policy: str) -> MemoryBudget:
    """A budget whose recency state the test drives through the frozen
    layered oracle's per-call hooks (the replay kernel updates the same
    dicts inline)."""
    return oracle.MemoryBudget(limit_bytes=1000, policy=policy)


class TestConstruction:
    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            MemoryBudget(0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown eviction policy"):
            MemoryBudget(100, policy="random")

    def test_policies_match_config_constants(self):
        from repro.core import EVICTION_POLICIES

        assert tuple(MemoryBudget.POLICIES) == tuple(EVICTION_POLICIES)


class TestSelectVictims:
    def test_no_eviction_when_it_fits(self):
        budget = _budget("lru")
        assert budget.select_victims(
            needed_bytes=100, current_footprint=800,
            resident={1, 2}, protected=set(), size_of=SIZES.get,
        ) == []

    def test_lru_evicts_least_recently_entered(self):
        budget = _budget("lru")
        for unit in (1, 2, 3):
            budget.on_unit_decompressed(unit)
        budget.on_unit_enter(1)   # 2 is now the least recently used
        budget.on_unit_enter(3)
        victims = budget.select_victims(
            needed_bytes=50, current_footprint=1000,
            resident={1, 2, 3}, protected=set(), size_of=SIZES.get,
        )
        assert victims == [2]

    def test_fifo_evicts_longest_resident(self):
        budget = _budget("fifo")
        for unit in (2, 1, 3):  # residency order: 2 first
            budget.on_unit_decompressed(unit)
        budget.on_unit_enter(2)  # recency must NOT save 2 under FIFO
        victims = budget.select_victims(
            needed_bytes=50, current_footprint=1000,
            resident={1, 2, 3}, protected=set(), size_of=SIZES.get,
        )
        assert victims == [2]

    def test_fifo_re_residency_moves_to_back(self):
        budget = _budget("fifo")
        for unit in (1, 2):
            budget.on_unit_decompressed(unit)
        budget.on_unit_released(1)
        budget.on_unit_decompressed(1)  # 1 re-enters: now newest
        victims = budget.select_victims(
            needed_bytes=1, current_footprint=1000,
            resident={1, 2}, protected=set(), size_of=SIZES.get,
        )
        assert victims == [2]

    def test_largest_evicts_biggest_first(self):
        budget = _budget("largest")
        for unit in (1, 2, 3, 4):
            budget.on_unit_decompressed(unit)
        victims = budget.select_victims(
            needed_bytes=150, current_footprint=1000,
            resident={1, 2, 3, 4}, protected=set(), size_of=SIZES.get,
        )
        assert victims == [3]  # 200 B frees the overshoot in one evict

    def test_protected_units_never_chosen(self):
        budget = _budget("lru")
        for unit in (1, 2, 3):
            budget.on_unit_decompressed(unit)
        victims = budget.select_victims(
            needed_bytes=50, current_footprint=1000,
            resident={1, 2, 3}, protected={1, 2},
            size_of=SIZES.get,
        )
        assert victims == [3]

    def test_accumulates_victims_until_freed(self):
        budget = _budget("lru")
        for unit in (1, 2, 3):
            budget.on_unit_decompressed(unit)
        victims = budget.select_victims(
            needed_bytes=300, current_footprint=1000,
            resident={1, 2, 3}, protected=set(), size_of=SIZES.get,
        )
        # overshoot = 300; evict in LRU order until >= 300 freed
        assert victims == [1, 2, 3]

    def test_budget_error_when_unreachable(self):
        budget = _budget("lru")
        budget.on_unit_decompressed(2)
        with pytest.raises(BudgetError, match="cannot fit"):
            budget.select_victims(
                needed_bytes=500, current_footprint=1000,
                resident={1, 2}, protected={1}, size_of=SIZES.get,
            )


class TestEndToEnd:
    """Each policy must run a real workload correctly under a tight cap."""

    @pytest.mark.parametrize("policy", ("lru", "fifo", "largest"))
    def test_policy_respects_cap_and_semantics(self, policy):
        from repro.cfg import build_cfg
        from repro.core.manager import CodeCompressionManager
        from repro.workloads import get_workload

        workload = get_workload("fsm")
        cfg = build_cfg(workload.program)
        probe = CodeCompressionManager(
            cfg, SimulationConfig(trace_events=False)
        )
        largest = max(block.size_bytes for block in cfg.blocks)
        budget = probe.residency.image.compressed_image_size + 2 * largest + 64
        run = api.run_cell(
            workload,
            SimulationConfig(
                decompression="ondemand", k_compress=None,
                memory_budget=budget, eviction=policy,
                trace_events=False, record_trace=False,
            ),
            cfg=cfg,
        )
        assert run.ok, (policy, run.validation)
        assert run.result.peak_footprint <= budget, policy
        assert run.result.counters.evictions > 0, policy
