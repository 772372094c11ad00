"""E15 (extension) — layered codec pipelines and pipeline-search.

Layered pipelines (:mod:`repro.compress.pipeline`) compose reversible
transform layers — byte delta, move-to-front, stride regrouping, word
dictionaries — in front of any flat entropy codec, so the per-unit
codec space grows from the flat registry to its composition closure.
The ``pipeline-search`` assignment policy explores a curated slice of
that space per compression unit under the same footprint accounting the
``knapsack`` policy uses (payload bytes plus one model per distinct
codec, never exceeding the uniform base image).

This experiment sweeps every flat codec uniformly over the small suite,
then runs ``pipeline-search`` (base ``shared-dict``) on the same
workloads, and asserts the PR's acceptance claim: on at least one suite
workload the searched mixed-pipeline image has a *strictly smaller*
compressed footprint than the best flat codec at equal-or-better
decompression-stall cycles.  (On ``cold_paths`` the winning composition
is ``stride:4|shared-dict`` — regrouping instruction words by byte
position before the shared dictionary.)
"""

from __future__ import annotations

from conftest import record_experiment

from repro import api
from repro.analysis import Table, percent
from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.selection import build_assignment

_FLAT_CODECS = (
    "huffman", "lzw", "shared-dict", "shared-fields", "shared-huffman",
)
_FAST = dict(trace_events=False, record_trace=False)


def _flat_configs():
    return [
        SimulationConfig(codec=name, **_FAST) for name in _FLAT_CODECS
    ]


def _search_config(profile):
    return SimulationConfig(
        codec="shared-dict", assignment="pipeline-search",
        profile=profile, **_FAST,
    )


def run_experiment(workloads):
    table = Table(
        "E15: pipeline-search vs uniform flat codecs "
        "(base shared-dict)",
        ["workload", "codec/policy", "compressed_B", "stall_cycles",
         "total_cycles", "overhead"],
    )
    shapes = []
    for workload in workloads:
        grid = api.run_grid([workload], _flat_configs())
        assert not grid.failures()
        flats = {
            run.config.codec: run.result for run in grid.runs
        }
        profile = api.profile_workload(workload)
        search_cfg = _search_config(profile)
        searched = api.run_grid([workload], [search_cfg])
        assert not searched.failures()
        search = searched.runs[0].result
        summary = build_assignment(
            build_cfg(workload.program), search_cfg
        ).summary()
        for name in sorted(
            flats, key=lambda n: flats[n].compressed_size
        ):
            result = flats[name]
            table.add_row(
                workload.name, name, int(result.compressed_size),
                int(result.counters.stall_cycles),
                int(result.total_cycles),
                percent(result.cycle_overhead),
            )
        table.add_row(
            workload.name, "pipeline-search",
            int(search.compressed_size),
            int(search.counters.stall_cycles),
            int(search.total_cycles), percent(search.cycle_overhead),
        )
        shapes.append((workload.name, flats, search, summary))
    return table, shapes


def test_e15_pipeline_search(small_suite, benchmark):
    table, shapes = run_experiment(small_suite)
    wins = 0
    for name, flats, search, summary in shapes:
        best_flat = min(
            flats.values(), key=lambda r: r.compressed_size
        )
        # The searched image never exceeds the uniform base image...
        assert search.compressed_size \
            <= flats["shared-dict"].compressed_size, name
        if (search.compressed_size < best_flat.compressed_size
                and search.counters.stall_cycles
                <= best_flat.counters.stall_cycles):
            # ...and a win must come from an actual composition, not
            # just the hot-unit knapsack upgrades.
            assert any("|" in codec for codec in summary), (
                name, summary
            )
            wins += 1
    # The acceptance claim: on at least one suite workload a composed
    # pipeline strictly beats the best flat codec on footprint at
    # equal-or-better stall cycles.
    assert wins >= 1, [s[0] for s in shapes]
    record_experiment("e15_pipeline_search", table.render())

    workload = small_suite[1]  # cold_paths: the winning workload
    profile = api.profile_workload(workload)
    benchmark.pedantic(
        lambda: api.run_grid([workload], [_search_config(profile)]),
        rounds=1, iterations=1,
    )
