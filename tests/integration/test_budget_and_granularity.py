"""Integration tests for the memory-budget mode (Section 2) and the
function-granularity baseline (Section 6)."""

import pytest

from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.workloads import get_workload

_FAST = dict(trace_events=False, record_trace=True)


class TestMemoryBudget:
    def _run(self, name, budget, **overrides):
        workload = get_workload(name)
        cfg = build_cfg(workload.program)
        config = SimulationConfig(
            decompression="ondemand",
            k_compress=None,  # only the budget forces recompression
            memory_budget=budget,
            **_FAST,
            **overrides,
        )
        manager = CodeCompressionManager(cfg, config)
        result = manager.run()
        assert workload.validate(manager.machine) == []
        return manager, result

    def test_budget_respected_throughout(self):
        workload = get_workload("dijkstra")
        cfg = build_cfg(workload.program)
        image_size = CodeCompressionManager(
            cfg, SimulationConfig(**_FAST)
        ).residency.image.compressed_image_size
        budget = image_size + 120
        _, result = self._run("dijkstra", budget)
        assert result.peak_footprint <= budget
        assert result.counters.evictions > 0

    def test_semantics_preserved_under_budget(self):
        manager, result = self._run("quicksort", budget=None or 10_000)
        base = CodeCompressionManager(
            build_cfg(get_workload("quicksort").program),
            SimulationConfig(decompression="none", **_FAST),
        ).run()
        assert result.registers == base.registers

    def test_tighter_budget_more_evictions(self):
        workload = get_workload("dijkstra")
        cfg = build_cfg(workload.program)
        image_size = CodeCompressionManager(
            cfg, SimulationConfig(**_FAST)
        ).residency.image.compressed_image_size
        evictions = []
        for slack in (400, 160, 80):
            _, result = self._run("dijkstra", image_size + slack)
            evictions.append(result.counters.evictions)
        assert evictions == sorted(evictions)

    def test_tighter_budget_higher_overhead(self):
        workload = get_workload("fsm")
        cfg = build_cfg(workload.program)
        image_size = CodeCompressionManager(
            cfg, SimulationConfig(**_FAST)
        ).residency.image.compressed_image_size
        overheads = []
        for slack in (500, 120, 60):
            _, result = self._run("fsm", image_size + slack)
            overheads.append(result.cycle_overhead)
        assert overheads[0] <= overheads[-1]

    @pytest.mark.parametrize("policy", ["lru", "fifo", "largest"])
    def test_all_eviction_policies_work(self, policy):
        _, result = self._run("adpcm", budget=400, eviction=policy)
        assert result.total_cycles > 0

    def test_impossible_budget_raises(self):
        from repro.strategies.budget import BudgetError

        with pytest.raises(BudgetError):
            self._run("matmul", budget=40)


class TestFunctionGranularity:
    def _run(self, name, granularity, k=8):
        workload = get_workload(name)
        cfg = build_cfg(workload.program)
        manager = CodeCompressionManager(
            cfg,
            SimulationConfig(
                decompression="ondemand",
                k_compress=k,
                granularity=granularity,
                **_FAST,
            ),
        )
        result = manager.run()
        assert workload.validate(manager.machine) == []
        return manager, result

    def test_function_units_fault_once_per_function_entry(self):
        manager, result = self._run("modular", "function")
        # a fault decompresses the whole function: far fewer faults than
        # blocks executed
        assert result.counters.faults < result.counters.blocks_executed

    def test_semantics_identical_across_granularities(self):
        _, block_result = self._run("modular", "block")
        _, function_result = self._run("modular", "function")
        assert block_result.registers == function_result.registers
        assert block_result.block_trace == function_result.block_trace

    def test_block_granularity_saves_more_on_cold_paths(self):
        """Section 6: a hot chain inside a big function stays small at
        block granularity but drags the whole function in at function
        granularity."""
        _, block_result = self._run("cold_paths", "block", k=16)
        _, function_result = self._run("cold_paths", "function", k=16)
        assert block_result.average_footprint < \
            function_result.average_footprint

    def test_function_granularity_fewer_faults_on_modular(self):
        """The flip side: call-heavy code faults less often per unit at
        function granularity."""
        _, block_result = self._run("modular", "block", k=4)
        _, function_result = self._run("modular", "function", k=4)
        assert function_result.counters.faults <= \
            block_result.counters.faults


class TestInPlaceScheme:
    def _run(self, scheme):
        workload = get_workload("fsm")
        cfg = build_cfg(workload.program)
        manager = CodeCompressionManager(
            cfg,
            SimulationConfig(
                decompression="ondemand",
                k_compress=2,
                image_scheme=scheme,
                **_FAST,
            ),
        )
        result = manager.run()
        assert workload.validate(manager.machine) == []
        return manager, result

    def test_semantics_identical(self):
        _, separate = self._run("separate")
        _, inplace = self._run("inplace")
        assert separate.registers == inplace.registers

    def test_inplace_relocates_blocks(self):
        manager, _ = self._run("inplace")
        assert manager.residency.image.relocations > 0

    def test_separate_scheme_never_relocates(self):
        """Section 5's design point: compressed block locations are
        fixed."""
        manager, _ = self._run("separate")
        residency = manager.residency
        addresses_before = [
            b.compressed_addr for b in residency.image.blocks
        ]
        fresh = type(residency.image)(manager.cfg, residency.codec)
        assert addresses_before == [
            b.compressed_addr for b in fresh.blocks
        ]

    def test_inplace_fragments_address_space(self):
        separate_manager, _ = self._run("separate")
        inplace_manager, _ = self._run("inplace")
        # the in-place scheme churns its single area; the separate scheme
        # reuses same-size holes in the decompressed area
        assert inplace_manager.residency.image.relocations > 0
        assert separate_manager.residency.image.allocator.hole_count <= \
            inplace_manager.residency.image.allocator.hole_count + 4
