"""Tracing must never change simulation results.

The hard observability requirement from the start: arming a tracer is
out-of-band (never part of :class:`SimulationConfig`), so ResultSets
stay byte-identical and store fingerprints are unchanged whether a run
is traced or not.  This file is that contract's test,
plus the phase-breakdown correctness checks (tracer totals must equal
the simulator's own :class:`Counters` exactly, not approximately).
"""

import os

import pytest

from repro import api
from repro.cfg import build_cfg
from repro.core.manager import CodeCompressionManager
from repro.obs import STALL_KINDS, SpanTracer, TraceSink, tracing_scope
from repro.workloads import get_workload

WORKLOADS = ("fib", "gcd")

CONFIGS = [
    api.SimulationConfig(codec="shared-dict", decompression="ondemand"),
    api.SimulationConfig(
        codec="shared-dict", decompression="pre-single", k_compress=1
    ),
]


def _grid():
    return api.run_grid(WORKLOADS, CONFIGS)


class TestResultByteIdentity:
    def test_canonical_json_identical_traced_vs_untraced(self):
        untraced = _grid().canonical_json()
        with tracing_scope(TraceSink()) as sink:
            traced = _grid().canonical_json()
        # The tracer really saw the runs...
        assert sink.tracers, "tracing scope armed no tracers"
        assert sum(sink.phases().values()) > 0
        # ...and changed nothing.
        assert traced == untraced

    def test_run_traced_matches_run_cell(self):
        config = CONFIGS[0]
        plain = api.run_cell("fib", config).result
        traced_result, tracer = api.run_traced("fib", config)
        assert traced_result.summary() == plain.summary()
        assert tracer.total_cycles == plain.total_cycles


class TestStoreFingerprintIdentity:
    def _spec(self):
        return api.ExperimentSpec.from_dict({
            "name": "obs-identity",
            "workloads": list(WORKLOADS),
            "base": {"codec": "shared-dict"},
            "axes": {
                "grid": {"decompression": ["ondemand", "pre-single"]}
            },
        })

    def _cells(self, root):
        """Relative cell-ref paths: ``cells/<fan>/<fingerprint>``."""
        found = set()
        cells = os.path.join(root, "cells")
        for dirpath, _, filenames in os.walk(cells):
            for name in filenames:
                found.add(os.path.relpath(
                    os.path.join(dirpath, name), root
                ))
        return found

    def test_fingerprints_identical_traced_vs_untraced(self, tmp_path):
        spec = self._spec()
        plain_root = str(tmp_path / "plain")
        traced_root = str(tmp_path / "traced")

        plain = api.run_experiment(spec, store=plain_root)
        with tracing_scope(TraceSink()) as sink:
            traced = api.run_experiment(spec, store=traced_root)

        assert sink.tracers
        assert traced.canonical_json() == plain.canonical_json()
        plain_cells = self._cells(plain_root)
        traced_cells = self._cells(traced_root)
        assert plain_cells == traced_cells
        assert plain_cells, "experiment produced no store cells"

    def test_traced_run_hits_untraced_cache(self, tmp_path):
        """A traced re-run of a cold sweep is served 100% from cache."""
        spec = self._spec()
        root = str(tmp_path / "store")
        cold = api.run_experiment(spec, store=root)
        before = self._cells(root)
        with tracing_scope(TraceSink()):
            warm = api.run_experiment(spec, store=root)
        assert warm.canonical_json() == cold.canonical_json()
        assert self._cells(root) == before


class TestPhaseBreakdownCorrectness:
    @pytest.mark.parametrize("config", CONFIGS, ids=["ondemand", "kc1"])
    def test_tracer_totals_equal_counters(self, config):
        result, tracer = api.run_traced("fib", config)
        phases = tracer.phases()
        assert phases["execute"] == result.execution_cycles
        stall_sum = sum(phases[f"stall_{k}"] for k in STALL_KINDS)
        assert stall_sum == result.counters.stall_cycles
        assert phases["execute"] + stall_sum == result.total_cycles
        assert result.phases == phases

    def test_uncompressed_run_has_no_compression_stalls(self):
        config = api.SimulationConfig(
            codec="null", decompression="none"
        )
        result, tracer = api.run_traced("fib", config)
        phases = tracer.phases()
        assert phases["stall_decompress"] == 0
        assert phases["stall_patch"] == 0
        assert phases["stall_contention"] == 0
        assert phases["execute"] == result.execution_cycles

    def test_summary_untouched_by_phases(self):
        """``phases`` rides on the result object, never its summary."""
        result, _ = api.run_traced("fib", CONFIGS[0])
        assert "phases" not in result.summary()


class TestWorkerEventCounts:
    """The tracer records what the background workers did: one job span
    per job actually queued, one cancel per job actually cancelled."""

    def _traced(self, **fields):
        cfg = build_cfg(get_workload("composite").program)
        tracer = SpanTracer("composite")
        manager = CodeCompressionManager(
            cfg,
            api.SimulationConfig(trace_events=False, record_trace=False,
                                 **fields),
            tracer=tracer,
        )
        manager.run()
        return manager, tracer

    @pytest.mark.parametrize("fields", [
        dict(decompression="ondemand", k_compress=1),
        dict(decompression="pre-single", k_compress=1, k_decompress=4),
    ], ids=["ondemand", "pre-single"])
    def test_cancels_are_real_cancellations(self, fields):
        manager, tracer = self._traced(**fields)
        # Every release used to count as a cancel, pending job or not.
        assert tracer.counts["releases"] > tracer.counts["cancels"]
        assert tracer.counts["cancels"] == \
            manager.decompress_worker.jobs_cancelled

    def test_a_still_queued_patch_job_is_recorded_once(self):
        # Slow patching keeps patch jobs queued while their unit is
        # released again; the worker keeps the queued job, and the
        # tracer must not record its (identical) span a second time.
        _, tracer = self._traced(decompression="pre-single", k_compress=1,
                                 k_decompress=4, patch_cycles=400)
        spans = tracer.worker_spans
        assert len(spans) == tracer.counts["jobs"]
        assert len(set(spans)) == len(spans)
