"""Executor transparency: parallel == serial, byte for byte.

The acceptance bar for the repro.api executor layer: running the E1
k-edge grid with ``ParallelExecutor(jobs=4)`` must produce a ResultSet
equal to ``SerialExecutor`` — same cells in the same order, same
metrics, same serialised JSON once the execution-provenance block
(executor, jobs, wall-clock) is dropped.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.analysis.sweep import effective_config
from repro.core import SimulationConfig
from repro.log import parse_kv

#: The E1 grid: the experiment kernels x the k-edge sweep, exactly as
#: benchmarks/test_e1_kedge_sweep.py runs it.
E1_WORKLOADS = (
    "composite", "cold_paths", "modular", "fsm",
    "dijkstra", "quicksort", "adpcm", "crc32",
)
E1_K_VALUES = (1, 2, 4, 8, 16, 32, "inf")


@pytest.fixture(scope="module")
def e1_spec():
    return api.ExperimentSpec(
        name="e1-parallel-equivalence",
        workloads=list(E1_WORKLOADS),
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=api.grid(k_compress=list(E1_K_VALUES)),
    )


@pytest.fixture(scope="module")
def serial_result(e1_spec):
    return api.run_experiment(e1_spec, executor="serial")


class TestParallelEqualsSerial:
    def test_e1_grid_identical_under_4_jobs(self, e1_spec,
                                            serial_result):
        parallel = api.run_experiment(
            e1_spec, executor=api.ParallelExecutor(jobs=4)
        )
        assert parallel.meta["executor"] == "parallel"
        assert parallel.meta["jobs"] == 4
        assert serial_result.meta["executor"] == "serial"

        assert len(parallel) == len(serial_result) == \
            len(E1_WORKLOADS) * len(E1_K_VALUES)
        # Same cells, same order.
        assert [(r.workload, r.config.strategy_name)
                for r in parallel.runs] == \
            [(r.workload, r.config.strategy_name)
             for r in serial_result.runs]
        # Same metrics, cell by cell.
        for mine, ref in zip(parallel.runs, serial_result.runs):
            assert mine.result.summary() == ref.result.summary()
            assert mine.validation == ref.validation
        # Same serialised JSON minus the execution/timing block.
        assert parallel.to_json(include_execution=False) == \
            serial_result.to_json(include_execution=False)

    def test_no_validation_failures(self, serial_result):
        assert serial_result.failures() == []


class TestEngineAgreementThroughApi:
    def test_sweep_agrees_with_cells_alone(self):
        spec = api.ExperimentSpec(
            workloads=["fsm", "crc32"],
            base={"codec": "shared-dict", "decompression": "ondemand"},
            axes=api.grid(k_compress=[2, 8]),
        )
        swept = api.run_experiment(spec)
        alone = api.ResultSet([
            api.run_cell(name, effective_config(config))
            for name, configs in spec.partitions() for config in configs
        ])
        assert swept.to_dict(include_execution=False)["cells"] == \
            alone.to_dict(include_execution=False)["cells"]

    @pytest.mark.parametrize("executor", ["serial", "parallel",
                                          "caching"])
    def test_legacy_names_agree_on_every_executor(self, executor,
                                                  tmp_path):
        # Either legacy name on any executor gives one result: every
        # cell replayed (labelled "trace", no registers) and no engine
        # in the meta.  The caching run under the second name is served
        # from the first name's cells.
        jobs = 1 if executor == "serial" else 2
        store = str(tmp_path / "store") if executor == "caching" \
            else False
        results = [
            api.run_experiment(
                api.ExperimentSpec(
                    workloads=["fsm", "crc32"],
                    base={"codec": "shared-dict",
                          "decompression": "pre-single"},
                    axes=api.grid(k_compress=[2, 8]),
                    engine=name, executor=executor, jobs=jobs,
                ),
                store=store,
            )
            for name in ("machine", "trace")
        ]
        for result in results:
            assert (result.meta["executor"], result.meta["jobs"]) == \
                (executor, jobs)
            assert "engine" not in result.meta
            assert [(run.result.engine, run.result.registers)
                    for run in result.runs] == [("trace", None)] * 4
        if executor == "caching":
            assert results[1].meta["cache"]["hits"] == 4
        assert results[0].to_dict(include_execution=False) == \
            results[1].to_dict(include_execution=False)


class TestUnregisteredWorkloadFallback:
    def test_parallel_runs_unpicklable_workload_locally(self):
        # A Workload whose oracle is a closure cannot be shipped to a
        # worker process; the parallel executor must fall back to
        # in-process execution and still match serial output.
        from repro.runtime.machine import Machine
        from repro.workloads import Workload, generate_sized_program, \
            get_workload

        marker = []  # captured: makes the closure unpicklable

        def check(machine: Machine):
            marker.append(1)
            return []

        synth = Workload(
            name="synth-local",
            description="generated app",
            program=generate_sized_program(seed=3, target_bytes=2000),
            check=check,
        )
        workloads = [get_workload("fib"), synth]
        configs = [
            SimulationConfig(decompression="ondemand", k_compress=k,
                             trace_events=False, record_trace=False)
            for k in (1, 4)
        ]
        serial = api.run_grid(workloads, configs, executor="serial")
        parallel = api.run_grid(workloads, configs, executor="parallel",
                                jobs=2)
        assert parallel.to_json(include_execution=False) == \
            serial.to_json(include_execution=False)
        assert [r.workload for r in parallel.runs] == \
            ["fib", "fib", "synth-local", "synth-local"]


class _FakePool:
    """A stand-in process pool: runs submissions inline, records its
    shutdown arguments, and can simulate a broken pool (every future
    failing the way a died worker does)."""

    def __init__(self, fail=False):
        self.fail = fail
        self.shutdown_calls = []

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        future = Future()
        if self.fail:
            future.set_exception(BrokenProcessPool("a worker died"))
        else:
            future.set_result(fn(*args, **kwargs))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls.append(
            {"wait": wait, "cancel_futures": cancel_futures}
        )


def _grid():
    configs = [
        SimulationConfig(decompression="ondemand", k_compress=k,
                         trace_events=False, record_trace=False)
        for k in (1, 4)
    ]
    return [api.Partition(workload=name, configs=list(configs))
            for name in ("fib", "gcd")]


class TestGracefulDegradation:
    def _serial_reference(self):
        return [
            (r.workload, r.config.strategy_name, r.result.summary())
            for r in api.SerialExecutor().run(_grid())
        ]

    def test_broken_pool_is_rebuilt_once(self, caplog):
        import logging

        pools = []
        executor = api.ParallelExecutor(jobs=2)
        original = executor._make_pool

        def make_pool(workers):
            if not pools:
                pools.append(_FakePool(fail=True))
            else:
                pools.append(_FakePool(fail=False))
            return pools[-1]

        executor._make_pool = make_pool
        del original
        with caplog.at_level(logging.WARNING,
                             logger="repro.api.executor"):
            runs = executor.run(_grid())
        assert len(pools) == 2
        assert executor.pool_rebuilds == 1
        assert executor.serial_fallback is False
        # The broken pool was torn down with its futures cancelled.
        assert pools[0].shutdown_calls == \
            [{"wait": False, "cancel_futures": True}]
        events = [parse_kv(r.message) for r in caplog.records]
        assert any(e.get("event") == "executor.pool_rebuild"
                   and e.get("reason") == "worker_died"
                   for e in events)
        # Degradation is invisible in the results.
        got = [(r.workload, r.config.strategy_name, r.result.summary())
               for r in runs]
        assert got == self._serial_reference()

    def test_double_breakage_falls_back_to_serial(self, caplog):
        import logging

        executor = api.ParallelExecutor(jobs=2)
        executor._make_pool = lambda workers: _FakePool(fail=True)
        with caplog.at_level(logging.WARNING,
                             logger="repro.api.executor"):
            runs = executor.run(_grid())
        assert executor.pool_rebuilds == 1
        assert executor.serial_fallback is True
        events = [parse_kv(r.message) for r in caplog.records]
        assert any(e.get("event") == "executor.serial_fallback"
                   for e in events)
        got = [(r.workload, r.config.strategy_name, r.result.summary())
               for r in runs]
        assert got == self._serial_reference()


class TestKeyboardInterruptCleanup:
    def test_interrupt_cancels_outstanding_futures(self):
        # Ctrl-C mid-drain must shut the pool down with
        # cancel_futures=True (no leaked workers grinding on) and still
        # propagate the interrupt.
        from concurrent.futures import Future

        class _InterruptingPool(_FakePool):
            def submit(self, fn, *args, **kwargs):
                future = Future()
                future.set_exception(KeyboardInterrupt())
                return future

        pool = _InterruptingPool()
        executor = api.ParallelExecutor(jobs=2)
        executor._make_pool = lambda workers: pool
        with pytest.raises(KeyboardInterrupt):
            executor.run(_grid())
        assert pool.shutdown_calls == \
            [{"wait": False, "cancel_futures": True}]
