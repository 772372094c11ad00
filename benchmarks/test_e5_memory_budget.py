"""E5 — memory-budget mode with LRU victims (paper Section 2).

"Check before each basic block decompression whether this decompression
could result in exceeding the maximum allowable memory space consumption,
and if so, compress one of the decompressed basic blocks... One could use
LRU or a similar strategy."

Sweeps the cap (as slack over the compressed image) and reports evictions
and overhead; also compares the three victim-selection policies.

Shape checks: the cap is never exceeded; tighter caps cause at least as
many evictions and at least as much overhead.
"""

from __future__ import annotations

from conftest import record_experiment

from repro import api
from repro.analysis import Table, percent
from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.core.manager import CodeCompressionManager

#: Extra slack over the minimum viable budget (two largest blocks must be
#: simultaneously resident: the faulting block plus its protected source).
SLACK_STEPS = (600, 300, 120, 0)


def _slacks(cfg):
    largest = max(block.size_bytes for block in cfg.blocks)
    base = 2 * largest + 16
    return [base + step for step in SLACK_STEPS]


def _run(workload, cfg, budget, eviction="lru"):
    # One validated cell through the repro.api facade.
    return api.run_cell(
        workload,
        SimulationConfig(
            decompression="ondemand", k_compress=None,
            memory_budget=budget, eviction=eviction,
            trace_events=False, record_trace=False,
        ),
        cfg=cfg,
    )


def run_experiment(workloads):
    table = Table(
        "E5: memory budget sweep (k=inf, evictions only, LRU)",
        ["workload", "budget", "slack", "peak", "evictions",
         "overhead"],
    )
    shapes = []
    for workload in workloads:
        cfg = build_cfg(workload.program)
        image_size = CodeCompressionManager(
            cfg, SimulationConfig(trace_events=False)
        ).residency.image.compressed_image_size
        evictions, overheads = [], []
        for slack in _slacks(cfg):
            budget = image_size + slack
            run = _run(workload, cfg, budget)
            assert run.ok, run.validation
            result = run.result
            assert result.peak_footprint <= budget, (
                workload.name, slack
            )
            table.add_row(
                workload.name, budget, slack,
                int(result.peak_footprint),
                int(result.counters.evictions),
                percent(result.cycle_overhead),
            )
            evictions.append(result.counters.evictions)
            overheads.append(result.cycle_overhead)
        shapes.append((workload.name, evictions, overheads))
    return table, shapes


def run_policy_comparison(workload):
    cfg = build_cfg(workload.program)
    image_size = CodeCompressionManager(
        cfg, SimulationConfig(trace_events=False)
    ).residency.image.compressed_image_size
    table = Table(
        "E5b: eviction policy comparison (second-tightest budget)",
        ["policy", "evictions", "overhead"],
    )
    slack = _slacks(cfg)[2]
    for policy in ("lru", "fifo", "largest"):
        result = _run(workload, cfg, image_size + slack,
                      eviction=policy).result
        table.add_row(
            policy, int(result.counters.evictions),
            percent(result.cycle_overhead),
        )
    return table


def test_e5_memory_budget(small_suite, benchmark):
    table, shapes = run_experiment(small_suite)
    for name, evictions, overheads in shapes:
        # tighter budget -> monotonically more evictions
        assert evictions == sorted(evictions), (name, evictions)
        # ...and at least as much overhead at the extremes
        assert overheads[-1] >= overheads[0] - 0.01, (name, overheads)
    policy_table = run_policy_comparison(small_suite[0])
    record_experiment(
        "e5_memory_budget",
        table.render() + "\n\n" + policy_table.render(),
    )

    cfg = build_cfg(small_suite[0].program)
    image_size = CodeCompressionManager(
        cfg, SimulationConfig(trace_events=False)
    ).residency.image.compressed_image_size
    benchmark.pedantic(
        lambda: _run(small_suite[0], cfg, image_size + 300),
        rounds=1, iterations=1,
    )
