"""E2 — the decompression design space (paper Figure 3, Section 4).

Compares the three decompression strategies at a fixed operating point
(k_compress=16, k_decompress=2) plus the uncompressed reference.

Paper's qualitative claims checked here:

* pre-decompress-all "favors performance over memory space consumption":
  fewest stall cycles, largest footprint of the three;
* pre-decompress-single "favors memory space consumption over
  performance": footprint at most pre-all's, stalls at most on-demand's;
* on-demand is the memory-minimal, stall-maximal corner.
"""

from __future__ import annotations

from conftest import record_experiment

from repro import api
from repro.analysis import Table, mean, percent
from repro.core import SimulationConfig

_CONFIGS = [
    SimulationConfig(decompression="none", codec="null",
                     label="uncompressed"),
    SimulationConfig(decompression="ondemand", k_compress=16,
                     label="on-demand"),
    SimulationConfig(decompression="pre-all", k_compress=16,
                     k_decompress=2, label="pre-all"),
    SimulationConfig(decompression="pre-single", k_compress=16,
                     k_decompress=2, label="pre-single"),
]


def run_experiment(workloads):
    # The repro.api facade records each workload once; all four cells,
    # the uncompressed baseline included, replay its trace.
    result = api.run_grid(workloads, _CONFIGS)
    assert not result.failures()

    table = Table(
        "E2: decompression design space (kc=16, kd=2, shared-dict)",
        ["workload", "strategy", "avg_footprint", "avg_saving",
         "overhead", "stall_cycles", "decompressions"],
    )
    per_strategy = {c.label: [] for c in _CONFIGS}
    for name in result.workloads():
        for run in result.by_workload(name):
            r = run.result
            table.add_row(
                name, run.config.label,
                int(r.average_footprint), percent(r.average_saving),
                percent(r.cycle_overhead),
                int(r.counters.stall_cycles),
                int(r.counters.decompressions),
            )
            per_strategy[run.config.label].append(r)
    return table, per_strategy


def test_e2_design_space(experiment_suite, benchmark):
    table, per_strategy = run_experiment(experiment_suite)

    # Aggregate shape checks across the suite (paper's Figure 3 claims).
    stalls = {
        label: mean([r.counters.stall_cycles for r in results])
        for label, results in per_strategy.items()
    }
    footprints = {
        label: mean([r.average_footprint for r in results])
        for label, results in per_strategy.items()
    }
    assert stalls["uncompressed"] == 0
    assert stalls["pre-all"] < stalls["on-demand"]
    assert stalls["pre-single"] <= stalls["on-demand"] * 1.02
    assert footprints["pre-single"] <= footprints["pre-all"]
    assert footprints["on-demand"] <= footprints["pre-all"]

    table.add_note(
        f"suite means: stalls {stalls}, footprints "
        f"{ {k: int(v) for k, v in footprints.items()} }"
    )
    record_experiment("e2_design_space", table.render())

    benchmark.pedantic(
        lambda: api.run_grid([experiment_suite[0]], [_CONFIGS[2]]),
        rounds=1, iterations=1,
    )
