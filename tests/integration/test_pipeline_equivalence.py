"""Differential correctness harness for layered codec pipelines.

A pipeline codec must be transparent to program semantics exactly like
a flat codec, whichever execution path computes the cell:

* every cell run **alone** (an interpreting run that replays its own
  trace),
* the **sweep** (one recording per program, every cell on the batched
  replay kernel), and
* the sweep with every replay run on the frozen layered per-block loop
  (``tests/oracle``)

must all produce byte-identical serialised cells for a grid of
pipelines x suite workloads.
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


def _cells(runs) -> str:
    """The serialised cells of ``runs``."""
    cells = api.ResultSet(runs).to_dict(include_execution=False)["cells"]
    return json.dumps(cells, sort_keys=True)


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", _WORKLOADS)
    def test_sweep_equals_cells_alone_and_oracle(self, name, monkeypatch):
        alone = [api.run_cell(name, config) for config in _configs()]
        swept = api.run_grid([name], _configs())
        monkeypatch.setattr(sweep_module, "simulate_trace",
                            oracle.simulate_trace)
        layered = api.run_grid([name], _configs())
        assert all(run.ok for run in alone)
        assert {run.result.replay_path for run in swept.runs} == \
            {"batched"}
        assert _cells(swept.runs) == _cells(alone), name
        assert {run.result.replay_path for run in layered.runs} == \
            {"layered"}
        assert _cells(layered.runs) == _cells(alone), name

    def test_pipeline_search_sweep_equals_cell_alone(self):
        workload = get_workload("cold_paths")
        profile = api.profile_workload(workload)
        config = SimulationConfig(
            codec="shared-dict", assignment="pipeline-search",
            profile=profile, **_FAST,
        )
        alone = api.run_cell(workload, config)
        swept = api.run_grid([workload], [config])
        assert alone.ok
        assert _cells(swept.runs) == _cells([alone])


class TestStoreEquivalence:
    def test_cached_cells_byte_equal_recomputation(self, tmp_path):
        store = str(tmp_path / "store")
        uncached = api.run_grid(_WORKLOADS, _configs())
        first = api.run_grid(_WORKLOADS, _configs(), store=store)
        second = api.run_grid(_WORKLOADS, _configs(), store=store)
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
        first = api.run_grid(["fsm"], [compact], store=store)
        second = api.run_grid(["fsm"], [spelled], store=store)
        assert first.meta["cache"]["misses"] == 1
        assert second.meta["cache"]["hits"] == 1
        assert first.canonical_json() == second.canonical_json()
