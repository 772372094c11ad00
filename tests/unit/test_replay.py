"""Unit tests for the replay kernel's entry points and provenance,
the oracle worker's settle hook, and the sweep's recording caches and
error rows."""

import dataclasses
import gc
import importlib

import pytest

from oracle.layered import BackgroundWorker
from repro import api
from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.memory.allocator import FreeListAllocator
from repro.obs.tracer import SpanTracer
from repro.runtime import PreparedTrace, simulate_trace
from repro.store.records import run_to_record
from repro.strategies import RecencyWindowCompression
from repro.workloads import get_workload

sweep_module = importlib.import_module("repro.analysis.sweep")

_FAST = dict(trace_events=False, record_trace=False)


@pytest.fixture(scope="module")
def recorded():
    cfg = build_cfg(get_workload("fsm").program)
    recorder = CodeCompressionManager(
        cfg, SimulationConfig(decompression="none", trace_events=False,
                              record_trace=True),
    )
    recorder.run()
    return cfg, PreparedTrace(cfg, recorder.block_trace)


def _replay(cfg, prepared, config, **kwargs):
    return CodeCompressionManager(cfg, config, trace=prepared, **kwargs)


class TestEnvelope:
    @pytest.mark.parametrize("fields", [
        dict(decompression="ondemand", k_compress=2),
        dict(decompression="ondemand", k_compress=None),
        dict(decompression="none"),
    ])
    def test_batched_path_takes_plain_replays(self, recorded, fields):
        cfg, prepared = recorded
        config = SimulationConfig(**{**_FAST, **fields})
        result = simulate_trace(cfg, prepared, config)
        assert (result.replay_path, result.replay_declined) == \
            ("batched", None)

    @pytest.mark.parametrize("fields, declined", [
        (dict(decompression="pre-all", k_compress=2, k_decompress=2),
         "predecompress"),
        (dict(decompression="pre-single", k_compress=4, k_decompress=1),
         "predecompress"),
        (dict(k_compress=None, memory_budget=4000), "budget"),
        (dict(k_compress=4, trace_events=True), "events"),
        (dict(decompression="none", trace_events=True), "events"),
    ])
    def test_stepped_path_takes_the_rest(self, recorded, fields, declined):
        cfg, prepared = recorded
        config = SimulationConfig(**{**_FAST, **fields})
        result = simulate_trace(cfg, prepared, config)
        assert (result.replay_path, result.replay_declined) == \
            ("stepped", declined)

    def test_interpreting_runs_replay_on_the_kernel(self, recorded):
        cfg, _ = recorded
        batched = CodeCompressionManager(
            cfg, SimulationConfig(**_FAST)
        ).run()
        stepped = CodeCompressionManager(
            cfg, SimulationConfig(decompression="pre-all", **_FAST)
        ).run()
        assert (batched.engine, batched.replay_path,
                batched.replay_declined) == ("machine", "batched", None)
        assert (stepped.engine, stepped.replay_path,
                stepped.replay_declined) == \
            ("machine", "stepped", "predecompress")

    @pytest.mark.parametrize("fields", [
        dict(record_trace=True),
        dict(image_scheme="inplace"),
        dict(decompression="none", record_trace=True),
    ])
    def test_former_layered_cases_take_the_batched_path(
        self, recorded, fields
    ):
        cfg, prepared = recorded
        config = SimulationConfig(**{**_FAST, **fields})
        result = simulate_trace(cfg, prepared, config)
        assert (result.replay_path, result.replay_declined) == \
            ("batched", None)

    def test_armed_tracer_takes_the_batched_path(self, recorded):
        cfg, prepared = recorded
        result = simulate_trace(cfg, prepared, SimulationConfig(**_FAST),
                                tracer=SpanTracer(cfg.name))
        assert (result.replay_path, result.replay_declined) == \
            ("batched", None)

    def test_injected_compression_policy_steps(self, recorded):
        cfg, prepared = recorded
        result = simulate_trace(
            cfg, prepared, SimulationConfig(**_FAST),
            compression_policy=RecencyWindowCompression(4),
        )
        assert (result.replay_path, result.replay_declined) == \
            ("stepped", "policy")

    def test_bounded_allocator_takes_the_batched_path(self, recorded):
        cfg, prepared = recorded
        manager = _replay(cfg, prepared, SimulationConfig(**_FAST))
        image = manager.residency.image
        image.allocator = FreeListAllocator(
            base=image.allocator.base, capacity=1 << 20, alignment=4
        )
        result = manager.run()
        assert (result.replay_path, result.replay_declined) == \
            ("batched", None)
        # The bounded area is driven live, block by block.
        assert image.allocator.allocation_count == \
            result.counters.decompressions

    def test_uncompressed_budget_steps(self, recorded):
        cfg, prepared = recorded
        result = simulate_trace(cfg, prepared, SimulationConfig(
            decompression="none", memory_budget=4000, **_FAST))
        assert (result.replay_path, result.replay_declined) == \
            ("stepped", "budget")

    def test_max_blocks_replays_a_prefix(self, recorded):
        cfg, prepared = recorded
        result = simulate_trace(cfg, prepared, SimulationConfig(**_FAST),
                                max_blocks=10)
        assert (result.replay_path, result.replay_declined) == \
            ("batched", None)
        assert result.counters.blocks_executed == 10


class TestProvenanceStaysOutOfResults:
    def test_not_serialised_or_compared(self):
        config = SimulationConfig(decompression="pre-all", **_FAST)
        alone = api.run_cell("fsm", config)
        trace = api.run_grid(["fsm"], [config])
        assert trace.runs[0].result.replay_path == "stepped"
        assert alone.result.replay_path == "stepped"
        # A swept cell serialises exactly like the cell run alone.
        assert api.ResultSet([alone], meta=trace.meta).canonical_json() \
            == trace.canonical_json()
        assert "replay_path" not in trace.canonical_json()
        result = trace.runs[0].result
        assert dataclasses.replace(result, replay_path="batched",
                                   replay_declined="policy",
                                   replay_shared=True) == result
        record = run_to_record(trace.runs[0], "0" * 64)
        assert "replay_path" not in record["result"]
        assert "replay_declined" not in record["result"]
        assert "replay_shared" not in record["result"]


class TestAbsorbJobs:
    """The oracle worker's bulk settle (a frozen copy of the hook the
    layered loop and the kernel once reconciled through)."""

    def test_replaces_the_queue_and_settles_tallies(self):
        worker = BackgroundWorker("decompression")
        worker.schedule(0, 1, 10)
        worker.schedule(0, 2, 10)
        worker.absorb_jobs(
            free_at=55, busy_delta=25, completed=3, cancelled=2,
            pending=[(7, 5, 40, 50, 55, 9)], next_seq=10,
        )
        assert worker.free_at == 55
        assert worker.busy_cycles == 45
        assert (worker.jobs_completed, worker.jobs_cancelled) == (3, 2)
        [job] = worker.pending_jobs()
        assert (job.block_id, job.latency, job.scheduled_at,
                job.started_at, job.completes_at, job.seq) == \
            (7, 5, 40, 50, 55, 9)
        assert worker.schedule(60, 8, 1).seq == 10


class TestTraceCache:
    def test_entries_die_with_their_workload(self):
        # Fails if a cached PreparedTrace (or the CFG memo) keeps the
        # graph alive: the cache then grows with every fresh sweep.
        gc.collect()
        before = len(sweep_module._trace_cache)
        workload = get_workload("gcd")
        sweep_module.sweep([workload], [SimulationConfig(**_FAST)])
        assert len(sweep_module._trace_cache) == before + 1
        del workload
        gc.collect()
        assert len(sweep_module._trace_cache) == before

    def test_repeated_sweeps_reuse_the_recording(self):
        workload = get_workload("gcd")
        configs = [SimulationConfig(**_FAST)]
        sweep_module.sweep([workload], configs)
        graph = sweep_module.build_cfg_cached(workload.program)
        entries = dict(sweep_module._trace_cache[graph])
        sweep_module.sweep([workload], configs)
        assert sweep_module._trace_cache[graph] == entries

    def test_prepared_trace_does_not_hold_its_cfg(self):
        cfg = build_cfg(get_workload("gcd").program)
        prepared = PreparedTrace(cfg, [cfg.entry_id])
        assert prepared.cfg is cfg
        del cfg
        gc.collect()
        assert prepared.cfg is None


class TestReplayErrorRow:
    def test_failed_replay_becomes_an_error_row(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("injected")

        monkeypatch.setattr(sweep_module, "simulate_trace", broken)
        config = SimulationConfig(decompression="ondemand", k_compress=1,
                                  **_FAST)
        result = sweep_module.sweep([get_workload("fib")], [config])
        [run] = result.runs
        # Re-interpreting would only run the same kernel again: the cell
        # fails loudly, naming the exception.
        assert not run.ok
        assert run.error == "KeyError: 'injected'"
        assert run.validation == ["cell raised KeyError: 'injected'"]
        assert result.errors() == [run]
