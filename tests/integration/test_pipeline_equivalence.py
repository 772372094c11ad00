"""Differential correctness harness for layered codec pipelines.

A pipeline codec must be transparent to program semantics exactly like
a flat codec, whichever execution path computes the cell:

* the interpreting **machine** engine,
* the **trace** engine's batched replay kernel, and
* the trace engine with every replay run on the frozen layered
  per-block loop (``tests/oracle``)

must all produce byte-identical ``canonical_json`` for a grid of
pipelines x suite workloads (the result meta's ``engine`` label is
normalised — it records which engine ran, everything else must match).
On top of that, cells served from the experiment store must be
byte-equal to recomputation, pipeline specs and the ``pipeline-search``
policy included — the fingerprint expands pipeline specs structurally,
so both spellings of one pipeline share a single cache entry.
"""

import importlib
import json

import pytest

from oracle import layered as oracle
from repro import api
from repro.core import SimulationConfig
from repro.workloads import get_workload

sweep_module = importlib.import_module("repro.analysis.sweep")

_FAST = dict(trace_events=False, record_trace=False)

_WORKLOADS = ("composite", "cold_paths", "fsm")

_PIPELINES = (
    "stride:4|shared-dict",
    "delta|huffman",
    "mtf|shared-huffman",
    "dict:16|delta|lzw",
)


def _configs():
    return [
        SimulationConfig(codec=spec, **_FAST) for spec in _PIPELINES
    ]


def _canonical(results) -> str:
    """canonical_json with the engine label normalised away."""
    payload = json.loads(results.canonical_json())
    payload["meta"].pop("engine", None)
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", _WORKLOADS)
    def test_machine_trace_replay_identical(self, name, monkeypatch):
        machine = api.run_grid([name], _configs(), engine="machine")
        trace = api.run_grid([name], _configs(), engine="trace")
        monkeypatch.setattr(sweep_module, "simulate_trace",
                            oracle.simulate_trace)
        layered = api.run_grid([name], _configs(), engine="trace")
        assert not machine.failures()
        assert {run.result.replay_path for run in trace.runs} == \
            {"batched"}
        assert {run.result.replay_path for run in layered.runs} == \
            {"layered"}
        assert _canonical(machine) == _canonical(trace), name
        assert _canonical(trace) == _canonical(layered), name

    def test_pipeline_search_machine_equals_trace(self):
        workload = get_workload("cold_paths")
        profile = api.profile_workload(workload)
        configs = [SimulationConfig(
            codec="shared-dict", assignment="pipeline-search",
            profile=profile, **_FAST,
        )]
        machine = api.run_grid([workload], configs, engine="machine")
        trace = api.run_grid([workload], configs, engine="trace")
        assert not machine.failures()
        assert _canonical(machine) == _canonical(trace)


class TestStoreEquivalence:
    def test_cached_cells_byte_equal_recomputation(self, tmp_path):
        store = str(tmp_path / "store")
        uncached = api.run_grid(
            _WORKLOADS, _configs(), engine="trace"
        )
        first = api.run_grid(
            _WORKLOADS, _configs(), engine="trace", store=store
        )
        second = api.run_grid(
            _WORKLOADS, _configs(), engine="trace", store=store
        )
        cells = len(uncached.runs)
        assert second.meta["cache"]["hits"] == cells
        assert first.canonical_json() == uncached.canonical_json()
        assert second.canonical_json() == uncached.canonical_json()

    def test_spec_spellings_share_one_cache_entry(self, tmp_path):
        store = str(tmp_path / "store")
        compact = SimulationConfig(codec="delta|huffman", **_FAST)
        spelled = SimulationConfig(
            codec='{"layers": ["delta"], "entropy": "huffman"}',
            **_FAST,
        )
        first = api.run_grid(
            ["fsm"], [compact], engine="trace", store=store
        )
        second = api.run_grid(
            ["fsm"], [spelled], engine="trace", store=store
        )
        assert first.meta["cache"]["misses"] == 1
        assert second.meta["cache"]["hits"] == 1
        assert first.canonical_json() == second.canonical_json()
