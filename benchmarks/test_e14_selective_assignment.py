"""E14 (extension) — selective compression: per-unit codec assignment.

The paper's selectivity argument (hot code must stay cheap to enter,
cold code should compress hard — Sections 3-4) finally gets its own
sweep axis: :mod:`repro.selection` assigns each compression unit its
own codec, driven by an offline edge profile.  This experiment profiles
each workload once, then sweeps the assignment policies against the
uniform baseline across two memory hierarchies:

* ``uniform``            — today's single global codec;
* ``hotness-threshold``  — top-25% hottest units stay uncompressed
  (zero decompression latency), cold units never store an inflating
  payload;
* ``knapsack``           — cycles-saved maximisation under a
  compressed-size budget equal to the uniform image.

Shape checks (the PR's acceptance claim): under every hierarchy,
``knapsack`` beats uniform on decompression-stall cycles at an equal
or smaller compressed footprint for at least two workloads (it
dominates on all three here), and ``hotness-threshold`` always cuts
stall cycles (trading a slightly larger compressed area for it).
"""

from __future__ import annotations

from conftest import record_experiment

from repro import api
from repro.analysis import Table, percent
from repro.core import SimulationConfig

_POLICIES = ("uniform", "hotness-threshold", "knapsack")
_HIERARCHIES = ("flat", "spm-front")


def _configs(profile):
    return [
        SimulationConfig(
            codec="shared-dict", decompression="ondemand",
            k_compress=2, assignment=policy, hierarchy=hierarchy,
            profile=profile, trace_events=False, record_trace=False,
        )
        for hierarchy in _HIERARCHIES
        for policy in _POLICIES
    ]


def run_experiment(workloads):
    table = Table(
        "E14: codec-assignment policies x hierarchies "
        "(ondemand, shared-dict base, kc=2)",
        ["workload", "hierarchy", "assignment", "compressed_B",
         "stall_cycles", "total_cycles", "overhead"],
    )
    shapes = []
    for workload in workloads:
        profile = api.profile_workload(workload)
        grid = api.run_grid([workload], _configs(profile))
        assert not grid.failures()
        per_hierarchy = {}
        for run in grid.runs:
            result = run.result
            table.add_row(
                workload.name, run.config.hierarchy,
                run.config.assignment, int(result.compressed_size),
                int(result.counters.stall_cycles),
                int(result.total_cycles),
                percent(result.cycle_overhead),
            )
            per_hierarchy.setdefault(run.config.hierarchy, {})[
                run.config.assignment
            ] = result
        shapes.append((workload.name, per_hierarchy))
    return table, shapes


def test_e14_selective_assignment(small_suite, benchmark):
    table, shapes = run_experiment(small_suite)
    knapsack_dominates = 0
    for name, per_hierarchy in shapes:
        dominated_everywhere = True
        for hierarchy, results in per_hierarchy.items():
            uniform = results["uniform"]
            hot = results["hotness-threshold"]
            knapsack = results["knapsack"]
            # The selective image never exceeds the uniform budget...
            assert knapsack.compressed_size <= uniform.compressed_size, \
                (name, hierarchy)
            # ...and uncompressed hot units always cut stall cycles.
            assert hot.counters.stall_cycles \
                < uniform.counters.stall_cycles, (name, hierarchy)
            if not (knapsack.counters.stall_cycles
                    < uniform.counters.stall_cycles):
                dominated_everywhere = False
        if dominated_everywhere:
            knapsack_dominates += 1
    # The acceptance claim: fewer stalls at equal-or-smaller footprint
    # for at least two workloads.
    assert knapsack_dominates >= 2, knapsack_dominates
    record_experiment("e14_selective_assignment", table.render())

    profile = api.profile_workload(small_suite[0])
    benchmark.pedantic(
        lambda: api.run_grid(
            [small_suite[0]],
            [SimulationConfig(
                codec="shared-dict", decompression="ondemand",
                k_compress=2, assignment="knapsack", profile=profile,
                trace_events=False, record_trace=False,
            )],
        ),
        rounds=1, iterations=1,
    )
