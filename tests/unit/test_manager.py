"""Unit tests for CodeCompressionManager internals.

The integration suite exercises the manager end to end; these tests pin
down the fine-grained accounting rules: fault cost arithmetic, patch
faults vs. full faults, prefetch shedding, the ManagerView protocol, and
trace capping.
"""

import pytest

from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.isa import assemble
from repro.runtime import EventKind
from repro.workloads import get_workload

_FAST = dict(trace_events=False, record_trace=False)


@pytest.fixture
def straight_cfg():
    # Three straight-line blocks, each entered exactly once.
    return build_cfg(
        assemble(
            """
main:
    li   r1, 1
    jmp  b
b:
    addi r1, r1, 1
    jmp  c
c:
    addi r1, r1, 1
    halt
""",
            "straight",
        )
    )


class TestFaultAccounting:
    def test_fault_cost_is_handler_plus_latency(self, straight_cfg):
        manager = CodeCompressionManager(
            straight_cfg,
            SimulationConfig(decompression="ondemand", k_compress=None,
                             fault_cycles=50, trace_events=True),
        )
        result = manager.run()
        # every block faults exactly once; stalls = 3 * (50 + latency_i)
        expected = sum(
            50 + manager.residency.unit_decompress_latency(manager.unit_of(b))
            for b in range(3)
        )
        assert result.counters.stall_cycles == expected
        assert result.counters.faults == 3

    def test_zero_fault_cycles_supported(self, straight_cfg):
        manager = CodeCompressionManager(
            straight_cfg,
            SimulationConfig(decompression="ondemand", k_compress=None,
                             fault_cycles=0, **_FAST),
        )
        result = manager.run()
        expected = sum(
            manager.residency.unit_decompress_latency(manager.unit_of(b))
            for b in range(3)
        )
        assert result.counters.stall_cycles == expected

    def test_patch_fault_cheaper_than_full_fault(self, loop_cfg):
        # the loop block re-enters main's successor pattern: compare a
        # full fault (decompression) against a patch-only fault
        manager = CodeCompressionManager(
            loop_cfg,
            SimulationConfig(decompression="ondemand", k_compress=None,
                             fault_cycles=50, trace_events=True),
        )
        result = manager.run()
        # faults include patch-only re-entries; decompressions happen
        # exactly once per touched block
        assert result.counters.decompressions == \
            len({b for b in manager.block_trace})
        assert result.counters.faults >= result.counters.decompressions

    def test_resident_patched_reentry_is_free(self):
        # self-loop: after the first iteration the back edge is patched,
        # so the remaining iterations cost zero extra cycles
        cfg = build_cfg(
            assemble(
                """
main:
    li r1, 50
loop:
    subi r1, r1, 1
    bne r1, r0, loop
    halt
""",
                "selfloop",
            )
        )
        manager = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="ondemand", k_compress=None,
                             trace_events=True),
        )
        result = manager.run()
        loop_id = next(
            b.block_id for b in cfg.blocks if b.label == "loop"
        )
        loop_faults = [
            e for e in manager.log.of_kind(EventKind.FAULT)
            if e.block_id == loop_id
        ]
        loop_patches = [
            e for e in manager.log.of_kind(EventKind.PATCH)
            if e.block_id == loop_id
        ]
        assert len(loop_faults) == 1      # first entry only
        # two incoming edges (fallthrough from main, the back edge) are
        # each patched exactly once
        assert len(loop_patches) == 2
        # the other ~48 iterations were exception-free
        assert result.counters.faults < 10


class TestPrefetchShedding:
    def test_backlog_limits_prefetches(self):
        workload = get_workload("cold_paths")
        cfg = build_cfg(workload.program)
        roomy = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="pre-all", k_compress=16,
                             k_decompress=4, max_prefetch_backlog=64,
                             **_FAST),
        ).run()
        tight = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="pre-all", k_compress=16,
                             k_decompress=4, max_prefetch_backlog=1,
                             **_FAST),
        ).run()
        assert tight.counters.dropped_prefetches > \
            roomy.counters.dropped_prefetches
        assert tight.counters.decompressions < \
            roomy.counters.decompressions + \
            roomy.counters.dropped_prefetches + 1


class TestManagerView:
    def test_block_units_are_identity(self, loop_cfg):
        manager = CodeCompressionManager(
            loop_cfg, SimulationConfig(**_FAST)
        )
        for block in loop_cfg.blocks:
            assert manager.unit_of(block.block_id) == block.block_id
            assert manager.unit_blocks(block.block_id) == \
                {block.block_id}

    def test_function_units_group_blocks(self, loop_cfg):
        manager = CodeCompressionManager(
            loop_cfg,
            SimulationConfig(granularity="function", **_FAST),
        )
        fn_block = next(
            b for b in loop_cfg.blocks if b.label == "fn"
        )
        assert manager.unit_of(fn_block.block_id) == fn_block.block_id
        main_unit = manager.unit_of(loop_cfg.entry_id)
        assert loop_cfg.entry_id in manager.unit_blocks(main_unit)

    def test_resident_units_tracks_materialisation(self, straight_cfg):
        manager = CodeCompressionManager(
            straight_cfg,
            SimulationConfig(decompression="ondemand", k_compress=None,
                             **_FAST),
        )
        assert manager.resident_units() == set()
        manager.run()
        assert manager.resident_units() == {0, 1, 2}

    def test_unit_uncompressed_size(self, straight_cfg):
        manager = CodeCompressionManager(
            straight_cfg, SimulationConfig(**_FAST)
        )
        assert manager.residency.unit_uncompressed_size(0) == \
            straight_cfg.block(0).size_bytes


class TestTraceHandling:
    def test_trace_recorded_when_enabled(self, straight_cfg):
        manager = CodeCompressionManager(
            straight_cfg,
            SimulationConfig(record_trace=True, trace_events=False),
        )
        result = manager.run()
        assert result.block_trace == [0, 1, 2]

    def test_trace_suppressed_when_disabled(self, straight_cfg):
        manager = CodeCompressionManager(
            straight_cfg, SimulationConfig(**_FAST)
        )
        assert manager.run().block_trace == []

    def test_max_blocks_stops_early(self):
        cfg = build_cfg(
            assemble(
                "main:\nloop:\n    addi r1, r1, 1\n    jmp loop",
                "forever",
            )
        )
        manager = CodeCompressionManager(
            cfg,
            SimulationConfig(record_trace=True, trace_events=False),
        )
        result = manager.run(max_blocks=25)
        assert result.counters.blocks_executed == 25


class TestWastedDecompressions:
    def test_unused_prefetch_counted_as_wasted(self):
        workload = get_workload("cold_paths")
        cfg = build_cfg(workload.program)
        result = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="pre-all", k_compress=2,
                             k_decompress=2, **_FAST),
        ).run()
        # pre-all on a 16-arm ladder prefetches arms that never run
        assert result.counters.wasted_decompressions > 0

    def test_ondemand_never_wastes(self):
        workload = get_workload("matmul")
        cfg = build_cfg(workload.program)
        result = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="ondemand", k_compress=2,
                             **_FAST),
        ).run()
        # every decompression was demanded by an actual entry
        assert result.counters.wasted_decompressions == 0
