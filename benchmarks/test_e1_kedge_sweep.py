"""E1 — the k-edge compression trade-off (paper Section 3, Figure 1).

Sweeps the compression-side k under on-demand decompression and reports,
per workload, memory saving (peak and time-average vs. the uncompressed
image) and cycle overhead.

Paper's qualitative claims checked here:

* small k -> aggressive compression: most memory saved, highest overhead;
* large k -> delayed compression: less memory saved, lower overhead;
* both trends are monotone in k.
"""

from __future__ import annotations

from conftest import record_experiment

from repro import api
from repro.analysis import Table, percent
from repro.core import SimulationConfig

K_VALUES = (1, 2, 4, 8, 16, 32, None)


def _config(k):
    return SimulationConfig(
        codec="shared-dict", decompression="ondemand", k_compress=k
    )


def run_experiment(workloads):
    # The repro.api facade records each workload once and every k
    # point replays its trace (identical metrics, much faster — see
    # repro.analysis.sweep).
    result = api.run_grid(workloads, [_config(k) for k in K_VALUES])
    assert not result.failures(), [
        run.validation for run in result.failures()
    ]

    table = Table(
        "E1: k-edge sweep (on-demand decompression, shared-dict)",
        ["workload", "k", "avg_saving", "peak_saving", "overhead",
         "faults", "recompressions"],
    )
    for run in result.runs:
        r = run.result
        k_label = "inf" if run.config.k_compress is None \
            else run.config.k_compress
        table.add_row(
            run.workload, k_label,
            percent(r.average_saving), percent(r.peak_saving),
            percent(r.cycle_overhead),
            int(r.counters.faults), int(r.counters.recompressions),
        )
    x_of = lambda k: 64 if k is None else k  # noqa: E731
    mem_series = result.series(x="k_compress", y="average_saving",
                               x_transform=x_of)
    ovh_series = result.series(x="k_compress", y="cycle_overhead",
                               x_transform=x_of)
    series = {}
    for name in result.workloads():
        mem, ovh = mem_series[name], ovh_series[name]
        mem.x_name, mem.y_name = "k", "avg_saving"
        ovh.x_name, ovh.y_name = "k", "overhead"
        series[name] = (mem, ovh)
    return table, series


def test_e1_kedge_sweep(experiment_suite, benchmark):
    table, series = run_experiment(experiment_suite)
    lines = [table.render(), ""]
    for name, (mem, ovh) in series.items():
        lines.append(mem.render())
        lines.append(ovh.render())
        # Section 3 shape: memory saving falls as k grows, overhead falls
        # as k grows (small numeric jitter tolerated).
        assert mem.is_monotone_nonincreasing(tolerance=0.02), name
        assert ovh.is_monotone_nonincreasing(tolerance=0.05), name
    record_experiment("e1_kedge_sweep", "\n".join(lines))

    # timing anchor: one representative simulation
    workload = experiment_suite[1]  # cold_paths
    benchmark.pedantic(
        lambda: api.run_grid([workload], [_config(4)]),
        rounds=1, iterations=1,
    )
