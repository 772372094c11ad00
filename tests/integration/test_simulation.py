"""End-to-end integration tests: the differential oracle.

The strongest system-level property of the paper's scheme is that it is
*transparent*: compression/decompression policy must never change program
semantics, only memory footprint and cycle count.  Every test here runs a
workload under some configuration and checks (a) the kernel's own oracle
and (b) that registers and block trace match the uncompressed baseline.
"""

import pytest

from repro.cfg import build_cfg
from repro.core import SimulationConfig, simulate
from repro.core.manager import CodeCompressionManager
from repro.workloads import (
    GeneratorConfig,
    available_workloads,
    generate_program,
    get_workload,
)

_FAST = dict(trace_events=False, record_trace=True)

_STRATEGIES = [
    SimulationConfig(decompression="ondemand", k_compress=1, **_FAST),
    SimulationConfig(decompression="ondemand", k_compress=8, **_FAST),
    SimulationConfig(decompression="ondemand", k_compress=None, **_FAST),
    SimulationConfig(decompression="pre-all", k_compress=8,
                     k_decompress=2, **_FAST),
    SimulationConfig(decompression="pre-single", k_compress=8,
                     k_decompress=2, **_FAST),
    SimulationConfig(decompression="pre-single", k_compress=4,
                     k_decompress=3, predictor="last-successor", **_FAST),
    SimulationConfig(decompression="pre-single", k_compress=4,
                     k_decompress=3, predictor="markov", **_FAST),
]


def _baseline(cfg):
    manager = CodeCompressionManager(
        cfg, SimulationConfig(decompression="none", **_FAST)
    )
    result = manager.run()
    return result


class TestDifferentialOracle:
    @pytest.mark.parametrize("name", sorted(available_workloads()))
    @pytest.mark.parametrize("config_index", range(len(_STRATEGIES)))
    def test_semantics_preserved(self, name, config_index):
        workload = get_workload(name)
        cfg = build_cfg(workload.program)
        base = _baseline(cfg)
        config = _STRATEGIES[config_index]
        manager = CodeCompressionManager(cfg, config)
        result = manager.run()
        assert workload.validate(manager.machine) == []
        assert result.registers == base.registers
        assert result.block_trace == base.block_trace
        assert result.execution_cycles == base.execution_cycles

    @pytest.mark.parametrize("codec", [
        "huffman", "lzw", "lz77", "rle", "mtf-rle", "dictionary",
        "shared-dict", "shared-huffman", "shared-fields",
    ])
    def test_all_codecs_transparent(self, codec):
        workload = get_workload("quicksort")
        cfg = build_cfg(workload.program)
        base = _baseline(cfg)
        manager = CodeCompressionManager(
            cfg,
            SimulationConfig(codec=codec, decompression="ondemand",
                             k_compress=4, **_FAST),
        )
        result = manager.run()
        assert workload.validate(manager.machine) == []
        assert result.registers == base.registers

    @pytest.mark.parametrize("seed", range(3))
    def test_synthetic_programs_transparent(self, seed):
        program = generate_program(
            GeneratorConfig(seed=seed, segments=18)
        )
        cfg = build_cfg(program)
        base = _baseline(cfg)
        for config in (_STRATEGIES[0], _STRATEGIES[3], _STRATEGIES[4]):
            manager = CodeCompressionManager(cfg, config)
            result = manager.run()
            assert result.registers == base.registers
            assert result.block_trace == base.block_trace


class TestOverheadAccounting:
    def test_uncompressed_baseline_has_zero_overhead(self):
        result = simulate(
            get_workload("fir").program,
            SimulationConfig(decompression="none", **_FAST),
        )
        assert result.cycle_overhead == 0.0
        assert result.counters.faults == 0

    def test_total_cycles_decompose(self):
        workload = get_workload("fir")
        result = simulate(
            workload.program,
            SimulationConfig(decompression="ondemand", k_compress=4,
                             **_FAST),
        )
        assert result.total_cycles == (
            result.execution_cycles + result.counters.stall_cycles
        )

    def test_overhead_monotone_in_fault_cost(self):
        workload = get_workload("dijkstra")
        cfg = build_cfg(workload.program)
        overheads = []
        for fault_cycles in (10, 100, 400):
            result = CodeCompressionManager(
                cfg,
                SimulationConfig(decompression="ondemand", k_compress=2,
                                 fault_cycles=fault_cycles, **_FAST),
            ).run()
            overheads.append(result.cycle_overhead)
        assert overheads[0] < overheads[1] < overheads[2]

    def test_contention_increases_total_cycles(self):
        workload = get_workload("fir")
        cfg = build_cfg(workload.program)
        free = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="pre-all", k_compress=8,
                             contention=0.0, **_FAST),
        ).run()
        shared = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="pre-all", k_compress=8,
                             contention=0.5, **_FAST),
        ).run()
        assert shared.total_cycles > free.total_cycles


class TestMemoryAccounting:
    def test_footprint_floor_is_compressed_image(self):
        workload = get_workload("matmul")
        cfg = build_cfg(workload.program)
        manager = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="ondemand", k_compress=1,
                             **_FAST),
        )
        result = manager.run()
        minimum = manager.residency.image.compressed_image_size
        assert all(
            footprint >= minimum
            for _, footprint in result.footprint.samples
        )

    def test_never_recompress_converges_to_touched_code(self):
        workload = get_workload("matmul")
        cfg = build_cfg(workload.program)
        manager = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="ondemand", k_compress=None,
                             **_FAST),
        )
        result = manager.run()
        touched = {
            manager.unit_of(block) for block in set(result.block_trace)
        }
        expected = manager.residency.image.compressed_image_size + sum(
            manager.residency.unit_uncompressed_size(unit) for unit in touched
        )
        assert result.footprint.samples[-1][1] == expected

    def test_memory_k_tradeoff(self):
        """Section 3: larger k -> more memory, fewer faults."""
        workload = get_workload("fsm")
        cfg = build_cfg(workload.program)
        footprints, faults = [], []
        for k in (1, 4, 16, 64):
            result = CodeCompressionManager(
                cfg,
                SimulationConfig(decompression="ondemand", k_compress=k,
                                 **_FAST),
            ).run()
            footprints.append(result.average_footprint)
            faults.append(result.counters.faults)
        assert footprints == sorted(footprints)
        assert faults == sorted(faults, reverse=True)

    def test_design_space_ordering(self):
        """Figure 3 qualitative claims: pre-all uses the most memory;
        pre-decompression reduces stall cycles vs on-demand."""
        workload = get_workload("composite")
        cfg = build_cfg(workload.program)
        results = {}
        for name, config in {
            "ondemand": SimulationConfig(
                decompression="ondemand", k_compress=16, **_FAST
            ),
            "pre-all": SimulationConfig(
                decompression="pre-all", k_compress=16, k_decompress=2,
                **_FAST
            ),
            "pre-single": SimulationConfig(
                decompression="pre-single", k_compress=16, k_decompress=2,
                **_FAST
            ),
        }.items():
            results[name] = CodeCompressionManager(cfg, config).run()
        assert results["pre-all"].counters.stall_cycles <= \
            results["ondemand"].counters.stall_cycles
        assert results["pre-all"].average_footprint >= \
            results["pre-single"].average_footprint
