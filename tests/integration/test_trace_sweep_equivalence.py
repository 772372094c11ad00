"""A swept cell must equal the same cell run alone.

A sweep replays one recorded block trace per workload instead of
interpreting every grid cell.  Because compression policy is
transparent to program semantics, every metric the experiments
consume — cycles, counters, footprint timeline, image sizes — must
come out *exactly* equal to an interpreting run of the cell alone,
which replays its own trace: an independent trace source.
These tests pin that contract on the kernel suite, hold the replay
kernel to the frozen layered loop (``tests/oracle``) cell by cell, and
cover the E12 policy-injection path.
"""

import importlib
from collections import Counter

import pytest

import repro.core.manager as manager_module
from oracle.layered import LayeredManager, image_state, tracer_state
from repro import api
from repro.cfg import build_cfg
from repro.cfg.profile import EdgeProfile
from repro.core import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.obs.tracer import SpanTracer
from repro.runtime import PreparedTrace, simulate_trace
from repro.strategies import (
    STRATEGIES,
    KEdgeCompression,
    OnDemandDecompression,
    RecencyWindowCompression,
)
from repro.strategies.predictor import available_predictors
from repro.workloads import get_workload

# The module (the package re-exports a ``sweep`` function over it).
sweep_module = importlib.import_module("repro.analysis.sweep")
events_module = importlib.import_module("repro.runtime.events")

_FAST = dict(trace_events=False, record_trace=False)

#: Kernel suite slice used for the grid comparison (kept small enough
#: for test time; the bench compares a larger grid on every run).
_WORKLOADS = ("composite", "cold_paths", "fsm", "gcd")

_CONFIGS = [
    SimulationConfig(decompression="ondemand", k_compress=1),
    SimulationConfig(decompression="ondemand", k_compress=8),
    SimulationConfig(decompression="ondemand", k_compress=None),
    SimulationConfig(decompression="pre-all", k_compress=8,
                     k_decompress=2),
    SimulationConfig(decompression="pre-single", k_compress=8,
                     k_decompress=2),
]

_METRICS = (
    "total_cycles", "execution_cycles", "average_footprint",
    "peak_footprint", "average_saving", "peak_saving",
    "cycle_overhead", "compressed_size", "uncompressed_size",
)


def _assert_results_equal(left, right, context):
    for metric in _METRICS:
        assert getattr(left, metric) == getattr(right, metric), \
            f"{context}: {metric}"
    assert left.counters == right.counters, f"{context}: counters"
    assert left.footprint.samples == right.footprint.samples, \
        f"{context}: footprint timeline"


def _cells_alone(workload, configs, fast=True):
    """Every cell run alone: an interpreting run that replays its own
    trace, so each swept cell meets an independent trace source."""
    return [
        sweep_module.run_one_safe(
            workload, sweep_module.effective_config(config, fast)
        )
        for config in configs
    ]


def _assert_sweep_matches_cells_alone(swept, alone, context):
    """Cell by cell: metrics, oracle verdict and error equal the cell
    run alone; a completed cell was replayed, so it is labelled
    ``trace`` and carries no registers."""
    assert len(swept.runs) == len(alone), context
    for s_run, a_run in zip(swept.runs, alone):
        where = f"{context}/{a_run.config.strategy_name}"
        assert s_run.config == a_run.config, where
        _assert_results_equal(a_run.result, s_run.result, where)
        assert (s_run.validation, s_run.error) == \
            (a_run.validation, a_run.error), where
        if a_run.error is None:
            assert (s_run.result.engine, s_run.result.registers) == \
                ("trace", None), where


class TestSweepEngineEquivalence:
    @pytest.mark.parametrize("name", _WORKLOADS)
    def test_grid_metrics_identical(self, name):
        workload = get_workload(name)
        swept = sweep_module.sweep([workload], _CONFIGS)
        _assert_sweep_matches_cells_alone(
            swept, _cells_alone(workload, _CONFIGS), name
        )

    @pytest.mark.parametrize("name, fields", [
        ("fib", dict(max_steps=50)),
        ("quicksort", dict(data_words=16)),
    ])
    def test_each_cell_replays_its_own_recording(self, name, fields,
                                                 monkeypatch):
        # The block trace depends on each cell's data_words and
        # max_steps: a cell whose own values make the program fail must
        # fail in the sweep too, not replay the first cell's recording.
        # Each distinct pair is recorded once, failed recordings
        # included.
        recorded = []
        recorded_trace = sweep_module._recorded_trace

        def counting(workload, graph, template, max_blocks):
            recorded.append((template.data_words, template.max_steps))
            return recorded_trace(workload, graph, template, max_blocks)

        monkeypatch.setattr(sweep_module, "_recorded_trace", counting)
        workload = get_workload(name)
        configs = [SimulationConfig(**_FAST),
                   SimulationConfig(**fields, **_FAST),
                   SimulationConfig(k_compress=None, **fields, **_FAST)]
        swept = sweep_module.sweep([workload], configs)
        assert len(recorded) == len(set(recorded)) == 2
        alone = _cells_alone(workload, configs)
        assert [run.ok for run in alone] == [True, False, False]
        assert alone[1].error.startswith("MachineError")
        _assert_sweep_matches_cells_alone(swept, alone, name)

    def test_replays_build_no_machine(self, monkeypatch):
        # Only the recordings interpret: one Machine per workload, none
        # per replayed cell.
        built = []
        machine_class = manager_module.Machine

        def counting_machine(cfg, *args, **kwargs):
            built.append(cfg.name)
            return machine_class(cfg, *args, **kwargs)

        monkeypatch.setattr(manager_module, "Machine", counting_machine)
        workloads = [get_workload("fib"), get_workload("gcd")]
        result = sweep_module.sweep(workloads, _CONFIGS)
        assert [run.result.engine for run in result.runs] == \
            ["trace"] * 2 * len(_CONFIGS)
        assert sorted(built) == ["fib", "gcd"]

    def test_trace_engine_rejects_unknown_engine(self):
        # The sweep takes no engine; only a spec still names one, and
        # only the two legacy names pass.
        with pytest.raises(TypeError, match="engine"):
            sweep_module.sweep([get_workload("gcd")], _CONFIGS[:1],
                               engine="trace")
        with pytest.raises(api.SpecError, match="unknown sweep engine"):
            api.ExperimentSpec(workloads=["gcd"], engine="warp")

    def test_policy_injection_replay_matches_machine(self):
        # The E12 path: a non-config compression policy injected into a
        # trace replay must match the interpreted run with the same
        # policy.
        workload = get_workload("cold_paths")
        cfg = build_cfg(workload.program)
        recorder = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="none", trace_events=False,
                             record_trace=True),
        )
        recorder.run()
        prepared = PreparedTrace(cfg, recorder.block_trace)
        for window in (2, 4, 8):
            config = SimulationConfig(
                decompression="ondemand", k_compress=1, **_FAST
            )
            interpreted = CodeCompressionManager(
                cfg, config,
                compression_policy=RecencyWindowCompression(window),
            ).run()
            replayed = simulate_trace(
                cfg, prepared, config,
                compression_policy=RecencyWindowCompression(window),
            )
            _assert_results_equal(
                interpreted, replayed, f"window={window}"
            )


# ----------------------------------------------------------------------
# The replay kernel against the frozen layered loop (tests/oracle)
# ----------------------------------------------------------------------

#: Workloads for the per-cell differential grid (``modular`` has real
#: functions for the function-granularity cells).
_KERNEL_WORKLOADS = ("cold_paths", "modular")


def _cell(label, **fields):
    return pytest.param(fields, id=label)


#: Cells the kernel must replay block by block (``stepped``): each has
#: pre-decompression, a budget or an event log, so the batched path
#: (and its decision sharing) stays off.  ``memory_budget="tight"`` is
#: sized per workload (and granularity) so that evictions fire;
#: ``profile="offline"`` is the workload's recorded edge profile.
_KERNEL_CELLS = [
    _cell(f"{strategy}-kc{'inf' if kc is None else kc}-kd{kd}",
          decompression=strategy, k_compress=kc, k_decompress=kd)
    for strategy in ("pre-all", "pre-single")
    for kc in (1, 2, None)
    for kd in (1, 4)
] + [
    _cell(f"pre-single-{predictor}", decompression="pre-single",
          k_compress=4, k_decompress=2, predictor=predictor,
          profile="offline")
    for predictor in available_predictors()
] + [
    _cell(f"{strategy}-budget-{eviction}", decompression=strategy,
          k_compress=None, k_decompress=2, memory_budget="tight",
          eviction=eviction)
    for strategy in ("ondemand", "pre-all", "pre-single")
    for eviction in ("lru", "fifo", "largest")
] + [
    _cell("pre-all-contention", decompression="pre-all", k_compress=2,
          k_decompress=2, contention=0.5),
    _cell("pre-single-contention", decompression="pre-single",
          k_compress=4, k_decompress=4, contention=0.25),
    _cell("pre-all-function", decompression="pre-all", k_compress=2,
          k_decompress=2, granularity="function"),
    _cell("pre-single-function-budget", decompression="pre-single",
          k_compress=None, k_decompress=2, granularity="function",
          memory_budget="tight"),
    _cell("ondemand-events", decompression="ondemand", k_compress=4,
          trace_events=True),
    _cell("uncompressed-events", decompression="none", trace_events=True),
    _cell("pre-all-events", decompression="pre-all", k_compress=2,
          k_decompress=2, trace_events=True),
    _cell("pre-single-budget-events", decompression="pre-single",
          k_compress=None, k_decompress=4, memory_budget="tight",
          eviction="fifo", trace_events=True),
]


@pytest.fixture(scope="module")
def kernel_traces():
    """Per workload: (cfg, prepared trace, offline profile)."""
    out = {}
    for name in _KERNEL_WORKLOADS:
        workload = get_workload(name)
        cfg = build_cfg(workload.program)
        recorder = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="none", trace_events=False,
                             record_trace=True),
        )
        recorder.run()
        out[name] = (cfg, PreparedTrace(cfg, recorder.block_trace),
                     api.profile_workload(workload))
    return out


def _tight_budget(cfg, config):
    """The compressed image plus the three largest units a fault can
    need at once (running, came-from, incoming) — evictions fire, but
    the budget can always be met — and the number of units."""
    residency = CodeCompressionManager(
        cfg, config.replace(memory_budget=None)
    ).residency
    units = residency._unit_blocks
    largest = max(residency.unit_uncompressed_size(unit) for unit in units)
    return residency.image.compressed_image_size + 3 * largest, len(units)


def _run(cfg, config, prepared=None, **kwargs):
    """Interpret (no ``prepared``) or replay one cell on the kernel;
    (manager, result)."""
    manager = CodeCompressionManager(cfg, config, trace=prepared, **kwargs)
    return manager, manager.run()


def _oracle(cfg, config, prepared=None, max_blocks=None, **kwargs):
    """The same cell on the frozen layered loop; (manager, result)."""
    oracle = LayeredManager(cfg, config, trace=prepared, **kwargs)
    return oracle, oracle.run(max_blocks=max_blocks)


def _workers(owner):
    """Both background workers' clocks and tallies (a manager's, or the
    oracle's timing model's)."""
    return [
        (worker.free_at, worker.busy_cycles, worker.jobs_completed,
         worker.jobs_cancelled)
        for worker in (owner.decompress_worker, owner.compress_worker)
    ]


def _without(monkeypatch, *entries):
    """Turn the named replay-kernel entry points off in the manager."""
    for entry in entries:
        monkeypatch.setattr(manager_module, entry, lambda m: False)


class TestKernelEnvelopeEquivalence:
    """machine == replay kernel == frozen layered loop, per cell, and the
    kernel provably ran."""

    @pytest.mark.parametrize("name", _KERNEL_WORKLOADS)
    @pytest.mark.parametrize("fields", _KERNEL_CELLS)
    def test_cell_identical_on_every_path(self, kernel_traces, name,
                                          fields):
        cfg, prepared, profile = kernel_traces[name]
        fields = dict(fields, record_trace=False)
        fields.setdefault("trace_events", False)
        if fields.get("profile") == "offline":
            fields["profile"] = profile
        budgeted = fields.get("memory_budget") == "tight"
        if budgeted:
            fields["memory_budget"] = None
        config = SimulationConfig(**fields)
        if budgeted:
            budget, units = _tight_budget(cfg, config)
            config = config.replace(memory_budget=budget)

        machine, interpreted = _run(cfg, config)
        kernel, stepped = _run(cfg, config, prepared)
        oracle, layered = _oracle(cfg, config)

        context = f"{name}/{config.strategy_name}"
        for run in (machine, kernel):
            assert run.replay_path == "stepped", \
                f"{context}: kernel declined ({run.replay_declined})"
            assert run.replay_declined in (
                "predecompress", "budget", "events"
            ), context
        assert (interpreted.engine, stepped.engine) == ("machine", "trace")
        _assert_results_equal(layered, interpreted, context)
        _assert_results_equal(layered, stepped, context)
        # The decompression worker's FIFO (retired as a prefix) and the
        # compression worker's end as the oracle's do.
        assert _workers(kernel) == _workers(machine) == \
            _workers(oracle.timing), context
        # An interpreting run drives the live allocator block by block.
        assert image_state(machine.residency.image) == \
            image_state(oracle.residency.image), context
        if budgeted and units > 3:
            # (A one-function program has nothing to evict.)
            assert stepped.counters.evictions > 0, context
        if config.trace_events:
            assert kernel.log.events, context
            assert kernel.log.events == oracle.log.events, context
            assert machine.log.events == oracle.log.events, context

    @pytest.mark.parametrize("name", _KERNEL_WORKLOADS)
    @pytest.mark.parametrize("k_compress", [1, 4, None])
    def test_batched_replay_matches_stepped_replay(
        self, kernel_traces, name, k_compress, monkeypatch
    ):
        cfg, prepared, _ = kernel_traces[name]
        config = SimulationConfig(k_compress=k_compress, **_FAST)
        kernel, batched = _run(cfg, config, prepared)
        _without(monkeypatch, "try_batched_replay")
        _, stepped = _run(cfg, config, prepared)
        monkeypatch.undo()
        _, layered = _oracle(cfg, config, prepared)
        assert (batched.replay_path, stepped.replay_path) == \
            ("batched", "stepped")
        _assert_results_equal(batched, stepped, config.strategy_name)
        _assert_results_equal(layered, batched, config.strategy_name)

    def test_sweep_runs_every_cell_on_the_kernel(self):
        # The sweep layer end to end: pre-decompression, a budget and
        # an event-logging cell, every replay run by the kernel.
        configs = [
            SimulationConfig(decompression="pre-all", k_compress=2,
                             k_decompress=2, **_FAST),
            SimulationConfig(decompression="pre-single", k_compress=4,
                             k_decompress=1, **_FAST),
            SimulationConfig(k_compress=None, memory_budget=1200, **_FAST),
            SimulationConfig(k_compress=4, trace_events=True,
                             record_trace=False),
        ]
        workload = get_workload("composite")
        swept = sweep_module.sweep([workload], configs, fast=False)
        _assert_sweep_matches_cells_alone(
            swept, _cells_alone(workload, configs, fast=False),
            "composite",
        )
        assert {run.result.replay_path for run in swept.runs} == \
            {"stepped"}
        assert [run.result.replay_declined for run in swept.runs] == \
            ["predecompress", "predecompress", "budget", "events"]


# ----------------------------------------------------------------------
# Stepped replays: table-read predictions and a flat event log
# ----------------------------------------------------------------------

#: Logged cells whose logs are capped below their event count.
_CAPPED_CELLS = [
    _cell("pre-all-kc2-kd2", decompression="pre-all", k_compress=2,
          k_decompress=2),
    _cell("ondemand-k4", decompression="ondemand", k_compress=4),
]


class _PeakList(list):
    """An event log's flat field list that remembers its longest length."""

    peak = 0

    def extend(self, fields):
        super().extend(fields)
        self.peak = max(self.peak, len(self))


class TestSteppedFastPaths:
    """The stepped path's fast paths ran, and keep what the slow ones
    kept."""

    @pytest.mark.parametrize("name", _KERNEL_WORKLOADS)
    @pytest.mark.parametrize("fields", _CAPPED_CELLS)
    def test_capped_log_keeps_what_emit_keeps(self, kernel_traces, name,
                                              fields):
        # The kernel appends unchecked and trims every step, so the
        # list outgrows the capacity by at most one step's events; the
        # oracle emits one event at a time.
        cfg, prepared, _ = kernel_traces[name]
        config = SimulationConfig(trace_events=True, record_trace=False,
                                  **fields)
        events = _run(cfg, config, prepared)[0].log.events
        for capacity in (0, 1, len(events) // 2, len(events) - 1):
            runs = [CodeCompressionManager(cfg, config, trace=prepared),
                    CodeCompressionManager(cfg, config),
                    LayeredManager(cfg, config, trace=prepared)]
            context = f"{name}/{config.strategy_name}/capacity={capacity}"
            for manager in runs:
                manager.log.capacity = capacity
                manager.log._flat = _PeakList()
                manager.run()
                assert manager.log._flat.peak <= 4 * (capacity + 64), \
                    context
                assert manager.log.events == events[:capacity], context
                assert len(manager.log) == capacity, context
                assert manager.log.dropped == len(events) - capacity, \
                    context
            assert runs[0].replay_path == "stepped", context

    def test_logged_replay_builds_no_event_per_emit(self, kernel_traces,
                                                    monkeypatch):
        built = []
        event_class = events_module.Event

        def counting(*fields):
            built.append(fields)
            return event_class(*fields)

        monkeypatch.setattr(events_module, "Event", counting)
        cfg, prepared, _ = kernel_traces["cold_paths"]
        config = SimulationConfig(decompression="pre-all", k_compress=2,
                                  k_decompress=2, trace_events=True,
                                  record_trace=False)
        manager, _ = _run(cfg, config, prepared)
        assert len(manager.log) > 0 and built == []
        # Reading the log builds each event once.
        assert len(manager.log.events) == len(built) == len(manager.log)

    @pytest.mark.parametrize("predictor", available_predictors())
    def test_pre_single_replay_rederives_no_prediction(
        self, kernel_traces, predictor, monkeypatch
    ):
        # Binding builds the predictor's table; the replay only reads
        # and updates it.
        cfg, prepared, profile = kernel_traces["cold_paths"]
        config = SimulationConfig(decompression="pre-single", k_compress=4,
                                  k_decompress=4, predictor=predictor,
                                  profile=profile, **_FAST)
        manager = CodeCompressionManager(cfg, config, trace=prepared)
        calls = []
        most_likely_among = EdgeProfile.most_likely_among

        def counting(profile, *args):
            calls.append(args)
            return most_likely_among(profile, *args)

        monkeypatch.setattr(EdgeProfile, "most_likely_among", counting)
        result = manager.run()
        assert result.replay_path == "stepped"
        assert result.counters.predictions > 0 and calls == []


# ----------------------------------------------------------------------
# k-edge expiry: deadlines instead of a per-step scan of the resident set
# ----------------------------------------------------------------------


def _k_counters(manager):
    """The k-edge policy's end-state counters: unit -> ticks since its
    last reset."""
    return dict(getattr(manager.compression, "_counters", {}))


class _CountingDict(dict):
    """A dict that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class _KEdgeWitness(KEdgeCompression):
    """The oracle's counter-based k-edge policy, counting the cases a
    deadline has to get right.

    ``seen`` counts ``superseded`` (a unit entered again before its
    counter reached k), ``fill superseded`` (the same for a unit whose
    last reset was a prefetch fill), ``destination due`` (a tick's
    destination whose counter would have reached k) and keeps the most
    ``fills expired together`` on one tick."""

    def __init__(self, k):
        super().__init__(k)
        self.filled = set()
        self.seen = Counter()

    def on_unit_decompressed(self, unit_id):
        super().on_unit_decompressed(unit_id)
        self.filled.add(unit_id)

    def on_unit_released(self, unit_id):
        super().on_unit_released(unit_id)
        self.filled.discard(unit_id)

    def on_unit_enter(self, unit_id):
        if 0 < self._counters.get(unit_id, 0) < self.k:
            self.seen["superseded"] += 1
            if unit_id in self.filled:
                self.seen["fill superseded"] += 1
        super().on_unit_enter(unit_id)
        self.filled.discard(unit_id)

    def on_edge(self, src_unit, dst_unit):
        if self._counters.get(dst_unit) == self.k - 1 \
                and self.view.is_unit_resident(dst_unit):
            self.seen["destination due"] += 1
        expired = super().on_edge(src_unit, dst_unit)
        together = len(self.filled.intersection(expired))
        if together > self.seen["fills expired together"]:
            self.seen["fills expired together"] = together
        return expired


@pytest.fixture(scope="module")
def deadline_traces():
    """Per workload: (cfg, prepared trace) for the deadline cells."""
    out = {}
    for name in ("composite", "cold_paths"):
        cfg = build_cfg(get_workload(name).program)
        recorder = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="none", trace_events=False,
                             record_trace=True),
        )
        recorder.run()
        out[name] = (cfg, PreparedTrace(cfg, recorder.block_trace))
    return out


#: Cells whose oracle run must show the case in ``witness`` (a
#: ``_KEdgeWitness.seen`` key and its least value), replayed on the path
#: named in ``path``.
_DEADLINE_CELLS = [
    _cell("several-fills-expire-on-one-tick", workload="composite",
          witness=("fills expired together", 2), path="stepped",
          decompression="pre-all", k_compress=2, k_decompress=4),
    _cell("deadline-on-the-destination", workload="composite",
          witness=("destination due", 1), path="batched", k_compress=4),
    _cell("entry-supersedes-a-deadline", workload="composite",
          witness=("superseded", 1), path="batched", k_compress=16),
    _cell("entry-supersedes-a-fill-deadline", workload="composite",
          witness=("fill superseded", 1), path="stepped",
          decompression="pre-single", k_compress=2, k_decompress=2),
    _cell("end-counters-k16", workload="cold_paths",
          witness=("superseded", 1), path="batched", k_compress=16),
    _cell("end-counters-k32", workload="composite",
          witness=("superseded", 1), path="batched", k_compress=32),
]


class TestKEdgeDeadlines:
    """k-edge expiry runs as deadlines: the kernel never walks the
    resident set per step, and every case a deadline must get right
    matches the oracle's per-edge counters, end-state counters
    included."""

    @pytest.mark.parametrize("decompression", ["ondemand", "pre-all"])
    def test_kernel_does_not_scan_the_resident_set(
        self, deadline_traces, decompression
    ):
        cfg, prepared = deadline_traces["composite"]
        for plan in prepared._plans.values():
            plan.decisions.clear()
        config = SimulationConfig(decompression=decompression,
                                  k_compress=32, k_decompress=2, **_FAST)
        manager = CodeCompressionManager(cfg, config, trace=prepared)
        ready = manager.residency._ready_at = _CountingDict()
        result = manager.run()
        assert not result.replay_shared
        assert result.counters.blocks_executed == len(prepared.trace) > 1000
        assert result.counters.recompressions > 0
        # Only settling the allocator at the end of the run reads it;
        # a per-step tick would read it once per step.
        assert ready.iterations <= 1

    @pytest.mark.parametrize("fields", _DEADLINE_CELLS)
    def test_cell_identical_to_the_oracle(self, deadline_traces, fields):
        fields = dict(fields)
        cfg, prepared = deadline_traces[fields.pop("workload")]
        key, least = fields.pop("witness")
        path = fields.pop("path")
        config = SimulationConfig(**fields, **_FAST)
        witness = _KEdgeWitness(config.k_compress)
        oracle, expected = _oracle(cfg, config, prepared,
                                   compression_policy=witness)
        assert witness.seen[key] >= least, dict(witness.seen)

        for plan in prepared._plans.values():
            plan.decisions.clear()
        kernel, replayed = _run(cfg, config, prepared)
        machine, interpreted = _run(cfg, config)
        context = config.strategy_name
        assert (replayed.replay_path, replayed.replay_shared) == \
            (path, False), context
        _assert_results_equal(expected, replayed, context)
        _assert_results_equal(expected, interpreted, context)
        assert _k_counters(oracle), context
        assert _k_counters(kernel) == _k_counters(machine) == \
            _k_counters(oracle), context
        assert image_state(machine.residency.image) == \
            image_state(oracle.residency.image), context

        # A replay that follows the decision pass restores its counters.
        follower, shared = _run(cfg, config, prepared)
        assert shared.replay_shared == (path == "batched"), context
        assert _k_counters(follower) == _k_counters(oracle), context


# ----------------------------------------------------------------------
# Runs the layered loop used to take: tracing, injected and plug-in
# policies, the in-place image, record_trace, max_blocks
# ----------------------------------------------------------------------


class _Lookahead(OnDemandDecompression):
    """A plug-in pre-decompression strategy: warm the entry's successors,
    then at every exit the successor the live edge profile has taken
    most often.  It reads the manager's profile and residency through
    the ManagerView, and observes every edge."""

    uses_thread = True

    def __init__(self):
        self.edges = 0

    def on_program_start(self, entry_block):
        return sorted(self.view.cfg.successors(entry_block))

    def on_block_exit(self, block_id):
        choice = self.view.profile.most_likely_successor(
            self.view.cfg, block_id
        )
        if choice is None or self.view.is_unit_resident(
            self.view.unit_of(choice)
        ):
            return []
        return [choice]

    def on_edge(self, src_block, dst_block):
        self.edges += 1


@pytest.fixture(scope="module")
def lookahead_strategy():
    """Register :class:`_Lookahead` as ``test-lookahead`` for the module."""
    STRATEGIES.register("test-lookahead")(_Lookahead)
    yield
    STRATEGIES.remove("test-lookahead")

#: One cell per run kind the kernel took over, with the kernel path
#: (and declined condition) it must take.  ``window`` injects a fresh
#: RecencyWindowCompression of that size into every run, ``tracer``
#: arms a SpanTracer, ``max_blocks`` bounds the run.
_TAKEOVER_CELLS = [
    _cell("tracer-ondemand", path=("batched", None), tracer=True,
          k_compress=1),
    _cell("tracer-pre-single-slow-patches",
          path=("stepped", "predecompress"), tracer=True,
          decompression="pre-single", k_compress=1, k_decompress=4,
          patch_cycles=400),
    _cell("tracer-pre-all-budget-contention",
          path=("stepped", "predecompress"), tracer=True,
          decompression="pre-all", k_compress=2, k_decompress=2,
          memory_budget="tight", contention=0.25),
    _cell("tracer-uncompressed-spm", path=("batched", None), tracer=True,
          decompression="none", hierarchy="spm-front"),
    _cell("window-ondemand", path=("stepped", "policy"), window=4,
          k_compress=1),
    _cell("window-pre-single", path=("stepped", "predecompress"),
          window=2, decompression="pre-single", k_compress=1,
          k_decompress=2),
    _cell("plugin", path=("stepped", "predecompress"), tracer=True,
          decompression="test-lookahead", k_compress=2),
    _cell("inplace-ondemand", path=("batched", None),
          image_scheme="inplace", k_compress=2),
    _cell("inplace-pre-all-events", path=("stepped", "predecompress"),
          image_scheme="inplace", decompression="pre-all", k_compress=1,
          k_decompress=2, trace_events=True),
    _cell("record-trace", path=("batched", None), record_trace=True,
          k_compress=4),
    _cell("max-blocks", path=("batched", None), max_blocks=100,
          k_compress=2),
    _cell("max-blocks-pre-single", path=("stepped", "predecompress"),
          max_blocks=100, decompression="pre-single", k_compress=2,
          k_decompress=2),
    _cell("uncompressed-budget", path=("stepped", "budget"),
          decompression="none", memory_budget=4000),
    _cell("uncompressed-budget-events", path=("stepped", "budget"),
          decompression="none", memory_budget=4000, trace_events=True),
]


def _takeover_runs(cfg, prepared, fields):
    """One cell four ways — interpreted and replayed, on the kernel and
    on the oracle.  Each run gets fresh policies, a fresh tracer when
    armed, and a cold plaintext memo (so decode spans match)."""
    fields = dict(fields)
    fields.pop("path")
    window = fields.pop("window", None)
    traced = fields.pop("tracer", False)
    max_blocks = fields.pop("max_blocks", None)
    fields.setdefault("trace_events", False)
    fields.setdefault("record_trace", False)
    budgeted = fields.get("memory_budget") == "tight"
    if budgeted:
        fields["memory_budget"] = None
    config = SimulationConfig(**fields)
    if budgeted:
        config = config.replace(
            memory_budget=_tight_budget(cfg, config)[0]
        )
    runs = {}
    for name, factory in (("machine", CodeCompressionManager),
                          ("oracle", LayeredManager)):
        for replayed in (False, True):
            kwargs = {}
            if window is not None:
                kwargs["compression_policy"] = \
                    RecencyWindowCompression(window)
            if traced:
                kwargs["tracer"] = SpanTracer(cfg.name)
            if replayed:
                kwargs["trace"] = prepared
            manager = factory(cfg, config, **kwargs)
            if manager.residency.artifacts is not None:
                manager.residency.artifacts.plaintext.clear()
            result = manager.run(max_blocks=max_blocks)
            key = f"{name}-{'trace' if replayed else 'interp'}"
            runs[key] = (manager, result)
    return config, runs


class TestKernelTakeoverEquivalence:
    """The runs the layered loop used to take now run on the kernel —
    interpreting and replaying — and match the frozen oracle exactly:
    results, events, tracer spans, budget recency and allocator state."""

    @pytest.mark.parametrize("name", _KERNEL_WORKLOADS)
    @pytest.mark.parametrize("fields", _TAKEOVER_CELLS)
    def test_cell_identical_to_the_oracle(self, kernel_traces, name,
                                          fields, lookahead_strategy):
        cfg, prepared, _ = kernel_traces[name]
        config, runs = _takeover_runs(cfg, prepared, fields)
        context = f"{name}/{config.strategy_name}"
        reference, expected = runs["oracle-interp"]
        assert expected.replay_path == "layered"

        for key in ("machine-interp", "machine-trace", "oracle-trace"):
            manager, result = runs[key]
            where = f"{context} [{key}]"
            if key.startswith("machine"):
                assert (result.replay_path, result.replay_declined) == \
                    fields["path"], where
            _assert_results_equal(expected, result, where)
            assert result.block_trace == expected.block_trace, where
            assert result.trace_truncated == expected.trace_truncated, \
                where
            assert manager.log.events == reference.log.events, where
            if manager.tracer.enabled:
                assert tracer_state(manager.tracer) == \
                    tracer_state(reference.tracer), where
            if config.memory_budget is not None:
                budget = manager.residency.budget
                oracle_budget = reference.residency.budget
                assert (budget._clock, budget._last_use,
                        budget._resident_since) == \
                    (oracle_budget._clock, oracle_budget._last_use,
                     oracle_budget._resident_since), where
            if key == "machine-interp":
                assert result.registers == expected.registers, where
            if manager.residency.image is not None and (
                key != "machine-trace" or config.image_scheme == "inplace"
            ):
                # Every run but an arithmetic trace replay drives the
                # live image block by block.
                assert image_state(manager.residency.image) == \
                    image_state(reference.residency.image), where
                assert (manager.residency.image.allocator.hole_count,
                        manager.residency.image.address_space_bytes) == \
                    (reference.residency.image.allocator.hole_count,
                     reference.residency.image.address_space_bytes), where

        if config.record_trace:
            assert len(expected.block_trace) == \
                expected.counters.blocks_executed > 0
        if fields.get("max_blocks") is not None:
            assert expected.counters.blocks_executed == \
                fields["max_blocks"]
        if fields.get("tracer"):
            assert sum(expected.phases.values()) == expected.total_cycles
        if fields.get("window") is not None:
            assert expected.counters.recompressions > 0, context
        if config.image_scheme == "inplace":
            assert reference.residency.image.relocations > 0, context
        if config.decompression == "test-lookahead":
            for key in ("machine-interp", "machine-trace"):
                manager = runs[key][0]
                assert manager.decompression.edges == \
                    reference.decompression.edges > 0


# ----------------------------------------------------------------------
# Long interpreting runs: the trace reaches the kernel in segments
# ----------------------------------------------------------------------

#: Segment lengths: shorter than most k-edge deadlines, and one below
#: the max-blocks cells' 100.
_SEGMENTS = (7, 97)

#: The takeover cells plus the batched path at k=16 and k=inf, the
#: predictor, budget and event paths, and generic hooks without an
#: image.
_SEGMENTED_CELLS = _TAKEOVER_CELLS + [
    _cell("ondemand-k16", path=("batched", None), k_compress=16),
    _cell("ondemand-kinf", path=("batched", None), k_compress=None),
    _cell("uncompressed-window", path=("stepped", "policy"),
          decompression="none", window=4),
    _cell("pre-single-events", path=("stepped", "predecompress"),
          decompression="pre-single", k_compress=1, k_decompress=4,
          trace_events=True),
    _cell("pre-all-budget-events", path=("stepped", "predecompress"),
          decompression="pre-all", k_compress=None, k_decompress=2,
          memory_budget="tight", eviction="fifo", trace_events=True),
    _cell("ondemand-budget", path=("stepped", "budget"),
          k_compress=4, memory_budget="tight", tracer=True),
    _cell("uncompressed", path=("batched", None), decompression="none"),
]


def _profile_state(profile):
    return (list(profile.edge_counts.items()),
            list(profile.block_counts.items()))


class TestSegmentedInterpretation:
    """An interpreting run longer than one segment hands the kernel its
    trace a segment at a time — bounded memory — and still matches the
    frozen oracle exactly."""

    @pytest.mark.parametrize("segment", _SEGMENTS)
    @pytest.mark.parametrize("name", _KERNEL_WORKLOADS)
    @pytest.mark.parametrize("fields", _SEGMENTED_CELLS)
    def test_cell_identical_to_the_oracle(self, kernel_traces, name,
                                          fields, segment, monkeypatch,
                                          lookahead_strategy):
        cfg, prepared, _ = kernel_traces[name]
        lengths = []

        class _Spy(manager_module.ReplayPlan):
            __slots__ = ()

            def __init__(self, trace, cycles, unit_of):
                lengths.append(len(trace))
                super().__init__(trace, cycles, unit_of)

        monkeypatch.setattr(manager_module, "_SEGMENT", segment)
        monkeypatch.setattr(manager_module, "ReplayPlan", _Spy)
        config, runs = _takeover_runs(cfg, prepared, fields)
        context = f"{name}/{config.strategy_name}/segment={segment}"
        reference, expected = runs["oracle-interp"]
        manager, result = runs["machine-interp"]

        steps = expected.counters.blocks_executed
        assert manager.prepared is None, context
        assert sum(lengths) == steps and max(lengths) == segment, context
        assert (result.replay_path, result.replay_declined) == \
            fields["path"], context
        _assert_results_equal(expected, result, context)
        assert result.registers == expected.registers, context
        assert (result.block_trace, result.trace_truncated) == \
            (expected.block_trace, expected.trace_truncated), context
        assert manager.log.events == reference.log.events, context
        assert _profile_state(manager.profile) == \
            _profile_state(reference.profile), context
        if manager.tracer.enabled:
            assert tracer_state(manager.tracer) == \
                tracer_state(reference.tracer), context
        if config.memory_budget is not None:
            budget = manager.residency.budget
            oracle_budget = reference.residency.budget
            assert (budget._clock, budget._last_use,
                    budget._resident_since) == \
                (oracle_budget._clock, oracle_budget._last_use,
                 oracle_budget._resident_since), context
        if manager.residency.image is not None:
            assert image_state(manager.residency.image) == \
                image_state(reference.residency.image), context
        if config.decompression == "test-lookahead":
            assert manager.decompression.edges == \
                reference.decompression.edges > 0

    @pytest.mark.parametrize("segment, k_compress", [
        (97, 4), (97, 16), (97, None),
        # Deadlines that reach back across several segments.
        (7, 16),
    ])
    def test_batched_replay_in_segments(self, segment, k_compress,
                                        monkeypatch):
        monkeypatch.setattr(manager_module, "_SEGMENT", segment)
        cfg = build_cfg(get_workload("composite").program)
        config = SimulationConfig(k_compress=k_compress, **_FAST)
        manager, result = _run(cfg, config)
        oracle, expected = _oracle(cfg, config)
        assert (manager.prepared, result.replay_path) == (None, "batched")
        _assert_results_equal(expected, result, config.strategy_name)
        assert _profile_state(manager.profile) == \
            _profile_state(oracle.profile)
        assert _k_counters(manager) == _k_counters(oracle)
        assert image_state(manager.residency.image) == \
            image_state(oracle.residency.image)

    def test_short_run_is_prepared_whole(self, kernel_traces):
        cfg, prepared, _ = kernel_traces["cold_paths"]
        manager, result = _run(cfg, SimulationConfig(**_FAST))
        assert manager.prepared.trace == prepared.trace
        assert result.counters.blocks_executed == len(prepared.trace)

    def test_sweep_replays_a_segmented_recording(self, monkeypatch):
        # A recording longer than one segment is prepared from its
        # recorded block trace; every cell still matches the cell run
        # alone, which is interpreted in segments too.
        prepared = []

        def spy(cfg, trace):
            prepared.append(len(trace))
            return PreparedTrace(cfg, trace)

        monkeypatch.setattr(manager_module, "_SEGMENT", 50)
        monkeypatch.setattr(sweep_module, "PreparedTrace", spy)
        workload = get_workload("composite")
        swept = sweep_module.sweep([workload], _CONFIGS)
        assert prepared == [4817]
        _assert_sweep_matches_cells_alone(
            swept, _cells_alone(workload, _CONFIGS), "composite"
        )
