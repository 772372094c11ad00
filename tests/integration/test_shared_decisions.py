"""A sweep row's codecs share one decision pass per (plan, k, fault_cycles).

Inside the batched kernel's envelope a trace replay's fills and releases
depend only on its replay plan (trace and granularity), its k and
``fault_cycles``; the codec, the assignment, the hierarchy,
``patch_cycles`` and ``contention`` only price them.  The first replay of
a key decides and memoises its log on the plan; every later replay of
that key charges its own clock from the log (``replay_shared``).  These
tests hold every such replay to the same cell replayed alone on a fresh
prepared trace (no memo) and to the frozen layered oracle — results,
footprint samples and the manager's end state — prove that the shared
path ran once per key, and check the runs that must decide for
themselves.
"""

import gc
import importlib

import pytest

import repro.core.replay as replay_module
from oracle.layered import LayeredManager
from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.memory.allocator import FreeListAllocator
from repro.memory.image import compression_artifacts
from repro.obs.tracer import SpanTracer
from repro.runtime import PreparedTrace
from repro.workloads import get_workload

sweep_module = importlib.import_module("repro.analysis.sweep")

_FAST = dict(trace_events=False, record_trace=False)

_WORKLOADS = ("composite", "fsm", "cold_paths")

#: A row's members: they differ only in what prices the decisions — the
#: codec (a pipeline among them), a knapsack assignment, a non-flat
#: hierarchy, slow patches and contention.
_MEMBERS = (
    dict(codec="shared-dict"),
    dict(codec="huffman", hierarchy="two-level-dram"),
    dict(codec="stride:4|shared-dict", patch_cycles=400, contention=0.3),
    dict(codec="lzw", assignment="knapsack"),
)

#: The keys a row decides: (k, fault_cycles, granularity).
_KEYS = [
    (k, fault_cycles, "block")
    for k in (1, 2, 4, None)
    for fault_cycles in (50, 0)
] + [(k, 50, "function") for k in (1, 4, None)]

_METRICS = (
    "total_cycles", "execution_cycles", "average_footprint",
    "peak_footprint", "average_saving", "peak_saving",
    "cycle_overhead", "compressed_size", "uncompressed_size",
)


def _row():
    """The row in sweep order: every member meets every key, the first
    member deciding each."""
    return [
        SimulationConfig(k_compress=k, fault_cycles=fault_cycles,
                         granularity=granularity, **member, **_FAST)
        for member in _MEMBERS
        for k, fault_cycles, granularity in _KEYS
    ]


def _key(config):
    return (config.k_compress, config.fault_cycles, config.granularity)


@pytest.fixture(scope="module")
def recordings():
    """Per workload: (cfg, recorded block trace)."""
    out = {}
    for name in _WORKLOADS:
        cfg = build_cfg(get_workload(name).program)
        recorder = CodeCompressionManager(
            cfg, SimulationConfig(decompression="none",
                                  trace_events=False, record_trace=True),
        )
        recorder.run()
        out[name] = (cfg, list(recorder.block_trace))
    return out


def _assert_results_equal(expected, actual, context):
    for metric in _METRICS:
        assert getattr(expected, metric) == getattr(actual, metric), \
            f"{context}: {metric}"
    assert expected.counters == actual.counters, f"{context}: counters"
    assert expected.footprint.samples == actual.footprint.samples, \
        f"{context}: footprint samples"


def _workers(manager):
    return [
        (worker.free_at, worker.busy_cycles, worker.jobs_completed,
         worker.jobs_cancelled)
        for worker in (manager.decompress_worker, manager.compress_worker)
    ]


def _end_state(manager):
    """Everything a replay leaves on its manager, dict orders included."""
    residency = manager.residency
    image = residency.image
    return {
        "clock": (manager.now, manager.execution_cycles),
        "workers": _workers(manager),
        "ready": list(residency._ready_at.items()),
        "used_since": list(residency._used_since_decompress.items()),
        "k_counters": list(
            getattr(manager.compression, "_counters", {}).items()
        ),
        "site_target": list(residency.site_target.items()),
        "by_target": [(target, sorted(sites))
                      for target, sites in residency.by_target.items()],
        "image": (image.decompress_count, image.release_count,
                  sorted(image.resident_blocks())),
        "profile": (list(manager.profile.edge_counts.items()),
                    list(manager.profile.block_counts.items())),
    }


def _oracle_view(manager):
    """The end state the layered oracle keeps too: its branch sites are
    (block, instruction) pairs, compared by block."""
    residency = manager.residency
    image = residency.image

    def block_of(site):
        return getattr(site, "block_id", site)

    return {
        "workers": _workers(manager),
        "ready": dict(residency._ready_at),
        "used_since": dict(residency._used_since_decompress),
        "k_counters": dict(getattr(manager.compression, "_counters", {})),
        "site_target": {block_of(site): target for site, target
                        in residency.site_target.items()},
        "by_target": {target: sorted(map(block_of, sites))
                      for target, sites in residency.by_target.items()
                      if sites},
        "image": (image.decompress_count, image.release_count,
                  sorted(image.resident_blocks())),
    }


def _plans(prepared):
    return list(prepared._plans.items())


class TestSharedRow:
    @pytest.mark.parametrize("name", _WORKLOADS)
    def test_every_cell_equals_the_cell_alone_and_the_oracle(
        self, recordings, name, monkeypatch
    ):
        cfg, trace = recordings[name]
        passes = []

        class _Counted(replay_module._Decisions):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                passes.append(self)

        monkeypatch.setattr(replay_module, "_Decisions", _Counted)
        prepared = PreparedTrace(cfg, trace)
        decided = set()
        made = 0
        for config in _row():
            context = f"{name}/{config.codec}/{_key(config)}"
            before = len(passes)
            manager = CodeCompressionManager(cfg, config, trace=prepared)
            result = manager.run()
            made += len(passes) - before
            alone = CodeCompressionManager(
                cfg, config, trace=PreparedTrace(cfg, trace)
            )
            expected = alone.run()
            oracle = LayeredManager(cfg, config,
                                    trace=PreparedTrace(cfg, trace))
            layered = oracle.run()

            assert (result.replay_path, result.replay_declined) == \
                ("batched", None), context
            assert result.replay_shared == (_key(config) in decided), \
                context
            assert not expected.replay_shared, context
            decided.add(_key(config))
            _assert_results_equal(expected, result, context)
            _assert_results_equal(layered, result, context)
            assert _end_state(manager) == _end_state(alone), context
            assert _oracle_view(manager) == _oracle_view(oracle), context

        # One decision pass per distinct key per plan, each published on
        # the plan of its granularity.
        assert made == len(_KEYS)
        memo = {granularity: set(plan.decisions)
                for granularity, plan in _plans(prepared)}
        assert memo == {
            "block": {(k, fc) for k, fc, g in _KEYS if g == "block"},
            "function": {(k, fc) for k, fc, g in _KEYS
                         if g == "function"},
        }

    def test_sweep_row_shares_and_matches_cells_alone(self):
        workload = get_workload("composite")
        configs = _row()
        swept = sweep_module.sweep([workload], configs)
        alone = [
            sweep_module.run_one_safe(workload, config)
            for config in configs
        ]
        decided = set()
        for run, expected in zip(swept.runs, alone):
            context = f"{run.config.codec}/{_key(run.config)}"
            assert run.error is None, context
            assert run.result.replay_shared == \
                (_key(run.config) in decided), context
            decided.add(_key(run.config))
            _assert_results_equal(expected.result, run.result, context)
            assert run.validation == expected.validation, context

    def test_a_second_sweep_over_the_same_workload_reuses_its_decisions(
        self
    ):
        workload = get_workload("fsm")
        configs = [SimulationConfig(k_compress=k, **_FAST)
                   for k in (1, 4, None)]
        first = sweep_module.sweep([workload], configs)
        second = sweep_module.sweep([workload], configs)
        assert [run.result.replay_shared for run in first.runs] == \
            [False] * 3
        assert [run.result.replay_shared for run in second.runs] == \
            [True] * 3
        for a, b in zip(first.runs, second.runs):
            _assert_results_equal(a.result, b.result, str(_key(a.config)))


class TestRunsThatDecideForThemselves:
    """Runs the kernel charges inline: nothing is read from or published
    to the memo."""

    @pytest.fixture
    def recorded(self, recordings):
        cfg, trace = recordings["composite"]
        return cfg, PreparedTrace(cfg, trace)

    def _twice(self, make):
        results = []
        for _ in range(2):
            manager = make()
            results.append((manager, manager.run()))
        return results

    def _assert_unshared(self, runs, prepared, path):
        for manager, result in runs:
            assert result.replay_path == path
            assert not result.replay_shared
        _assert_results_equal(runs[0][1], runs[1][1], path)
        assert all(not plan.decisions for _, plan in _plans(prepared))

    def test_interpreting_runs(self, recorded):
        cfg, _ = recorded
        config = SimulationConfig(k_compress=4, **_FAST)
        runs = self._twice(lambda: CodeCompressionManager(cfg, config))
        for manager, _ in runs:
            # Each interpreting run prepares its own trace.
            self._assert_unshared(runs, manager.prepared, "batched")

    def test_stepped_runs(self, recorded):
        cfg, prepared = recorded
        config = SimulationConfig(decompression="pre-all", k_compress=4,
                                  k_decompress=2, **_FAST)
        runs = self._twice(
            lambda: CodeCompressionManager(cfg, config, trace=prepared)
        )
        self._assert_unshared(runs, prepared, "stepped")

    def test_armed_tracer(self, recorded):
        cfg, prepared = recorded
        config = SimulationConfig(k_compress=4, **_FAST)
        runs = self._twice(lambda: CodeCompressionManager(
            cfg, config, trace=prepared, tracer=SpanTracer(cfg.name)
        ))
        self._assert_unshared(runs, prepared, "batched")

    def test_in_place_image(self, recorded):
        cfg, prepared = recorded
        config = SimulationConfig(k_compress=4, image_scheme="inplace",
                                  **_FAST)
        runs = self._twice(
            lambda: CodeCompressionManager(cfg, config, trace=prepared)
        )
        self._assert_unshared(runs, prepared, "batched")

    def test_bounded_area(self, recorded):
        cfg, prepared = recorded
        config = SimulationConfig(k_compress=4, **_FAST)

        def bounded():
            manager = CodeCompressionManager(cfg, config, trace=prepared)
            image = manager.residency.image
            image.allocator = FreeListAllocator(
                base=image.allocator.base, capacity=1 << 20, alignment=4
            )
            return manager

        self._assert_unshared(self._twice(bounded), prepared, "batched")

    def test_a_shared_key_is_not_read_by_an_inline_run(self, recorded):
        # A memoised pass for the key does not leak into a run that must
        # charge inline (here: an armed tracer).
        cfg, prepared = recorded
        config = SimulationConfig(k_compress=4, **_FAST)
        CodeCompressionManager(cfg, config, trace=prepared).run()
        assert any(plan.decisions for _, plan in _plans(prepared))
        traced = CodeCompressionManager(
            cfg, config, trace=prepared, tracer=SpanTracer(cfg.name)
        ).run()
        assert not traced.replay_shared


class TestMemoLifetime:
    def _passes(self):
        return sum(isinstance(obj, replay_module._Decisions)
                   for obj in gc.get_objects())

    def test_memo_dies_with_its_cfg(self):
        gc.collect()
        before = self._passes()
        workload = get_workload("gcd")
        configs = [SimulationConfig(codec=codec, k_compress=k, **_FAST)
                   for codec in ("shared-dict", "huffman")
                   for k in (1, None)]
        swept = sweep_module.sweep([workload], configs)
        assert [run.result.replay_shared for run in swept.runs] == \
            [False, False, True, True]
        assert self._passes() == before + 2
        del workload, swept
        gc.collect()
        assert self._passes() == before


class TestUndecodablePayload:
    def test_a_follower_fails_as_the_cell_alone(self):
        workload = get_workload("fsm")
        graph = sweep_module.build_cfg_cached(workload.program)
        artifacts = compression_artifacts(graph, "huffman")
        entry = graph.entry_id
        artifacts.payloads[entry] = artifacts.payloads[entry][:1]
        artifacts.plaintext.pop(entry, None)
        configs = [SimulationConfig(codec=codec, k_compress=2, **_FAST)
                   for codec in ("shared-dict", "huffman")]
        swept = sweep_module.sweep([workload], configs)
        leader, follower = swept.runs
        assert leader.error is None
        assert follower.error is not None
        assert follower.error.startswith("CodecError")

        [(recorded, *_)] = sweep_module._trace_cache[graph].values()
        prepared = PreparedTrace(graph, recorded.trace)
        with pytest.raises(Exception) as raised:
            CodeCompressionManager(graph, configs[1],
                                   trace=prepared).run()
        assert follower.error == \
            f"{type(raised.value).__name__}: {raised.value}"
