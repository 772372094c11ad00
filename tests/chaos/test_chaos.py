"""Chaos suite: sweeps must survive injected faults byte-for-byte.

Every scenario here is seeded and deterministic (``make chaos`` runs
them in CI).  The invariant under test, from ``repro.faults``: a sweep
run under an active fault plan either recovers every cell — and its
``canonical_json`` is **byte-identical** to a fault-free run — or
degrades exhausted cells into structured error rows; it never aborts,
never caches a failure, and never serves damaged store bytes.

Scenarios:

* mixed transient/hang cell faults, recovered by retry + timeout;
* corrupt CAS reads on a warm store, recovered by checksum-miss +
  recompute;
* a worker process crashing mid-cell under the parallel executor
  (pool rebuild, then serial fallback);
* store fsck: corrupt exactly N cell blobs, verify/repair, and prove
  the next cached sweep recomputes exactly those N cells;
* two processes racing one store while one of them dies mid-write.
"""

from __future__ import annotations

import multiprocessing
import os

from repro import api
from repro.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    install_plan,
)
from repro.store import ExperimentStore


def _spec(**overrides):
    fields = dict(
        name="chaos",
        workloads=["fib", "gcd"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=api.grid(k_compress=[1, "inf"]),
    )
    fields.update(overrides)
    return api.ExperimentSpec(**fields)


def _retry(**overrides):
    fields = dict(attempts=3, backoff_base=0.0, jitter=0.0)
    fields.update(overrides)
    return RetryPolicy(**fields)


class TestCellFaultRecovery:
    def test_mixed_transient_and_hang_faults_recover_byte_identical(
        self,
    ):
        spec = _spec()
        baseline = api.run_experiment(spec)
        plan = FaultPlan(
            rules=(
                FaultRule(kind="transient", site="cell", match="fib",
                          times=2),
                FaultRule(kind="hang", site="cell", match="gcd",
                          seconds=5.0, times=1),
            ),
            seed=1,
        )
        with install_plan(plan):
            survived = api.run_experiment(
                spec, retry=_retry(timeout=0.5)
            )
        assert survived.errors() == []
        assert survived.canonical_json() == baseline.canonical_json()

    def test_machine_engine_survives_too(self):
        # A spec may still carry the legacy engine name; it runs the
        # same sweep.
        spec = _spec(engine="machine")
        baseline = api.run_experiment(spec)
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", times=3),
        ))
        with install_plan(plan):
            survived = api.run_experiment(spec, retry=_retry())
        assert survived.canonical_json() == baseline.canonical_json()

    def test_exhaustion_degrades_to_error_rows_never_aborts(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="fib",
                      times=None),
        ))
        with install_plan(plan):
            rs = api.run_experiment(_spec(), retry=_retry(attempts=2))
        # fib cells exhausted, gcd cells untouched — all rows present.
        assert len(rs.runs) == 4
        assert len(rs.errors()) == 2
        assert {r.workload for r in rs.errors()} == {"fib"}
        for cell in rs.to_dict()["cells"]:
            if "error" in cell:
                assert len(cell["attempts"]) == 2


class TestCorruptReads:
    def test_corrupt_cas_read_recomputes_and_matches(self, tmp_path):
        store = str(tmp_path / "store")
        spec = _spec()
        baseline = api.run_experiment(spec)
        warm = api.run_experiment(spec, store=store)
        assert warm.canonical_json() == baseline.canonical_json()
        plan = FaultPlan(rules=(
            FaultRule(kind="corrupt", site="cas.read", times=1),
        ))
        with install_plan(plan):
            reread = api.run_experiment(spec, store=store)
        # The poisoned read became a checksum miss: one cell was
        # recomputed instead of served, and nothing leaked into the
        # results.
        assert reread.canonical_json() == baseline.canonical_json()
        assert reread.meta["cache"]["misses"] >= 1
        assert ExperimentStore(store).stats()["corrupt_misses"] >= 1

    def test_error_rows_are_never_cached(self, tmp_path):
        store = str(tmp_path / "store")
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="fib",
                      times=None),
        ))
        with install_plan(plan):
            first = api.run_experiment(_spec(), store=store,
                                       retry=_retry(attempts=2))
        assert len(first.errors()) == 2
        # Chaos off: the second run recomputes the failed cells (they
        # were never cached) and comes back clean.
        second = api.run_experiment(_spec(), store=store)
        assert second.errors() == []
        assert second.meta["cache"]["misses"] == 2
        assert second.canonical_json() == \
            api.run_experiment(_spec()).canonical_json()


class TestWorkerCrash:
    def test_crashing_worker_degrades_not_corrupts(self):
        spec = _spec()
        baseline = api.run_experiment(spec)
        executor = api.ParallelExecutor(jobs=2)
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", site="cell", match="fib",
                      times=1),
        ))
        with install_plan(plan):
            # Workers inherit the plan via $REPRO_FAULTS and die with
            # os._exit(70) mid-cell; each fresh worker process re-arms
            # the rule, so the rebuilt pool breaks again and the run
            # finishes on the serial fallback (where crash rules are
            # inert by design).
            survived = api.run_experiment(spec, executor=executor)
        assert survived.canonical_json() == baseline.canonical_json()
        assert executor.pool_rebuilds == 1
        assert executor.serial_fallback is True


class TestFsckAcceptance:
    def test_repair_then_recompute_exactly_the_damaged_cells(
        self, tmp_path
    ):
        from tests.integration.test_store_executor import CountingSerial
        from repro.store.executor import CachingExecutor

        store_dir = str(tmp_path / "store")
        spec = _spec()
        baseline = api.run_experiment(spec)
        api.run_experiment(spec, store=store_dir)

        # Corrupt exactly two cell-record blobs (cells/ refs point at
        # them; artifact bundles are left alone).
        store = ExperimentStore(store_dir)
        damaged = []
        for path in store._walk_refs("cells"):
            if len(damaged) == 2:
                break
            with open(path, "r", encoding="ascii") as handle:
                digest = handle.read().strip()
            blob_path = store._fan_path("objects", digest)
            with open(blob_path, "ab") as handle:
                handle.write(b"bitrot")
            damaged.append(digest)

        report = store.verify()
        assert report["corrupt_objects"] == 2
        assert report["dangling_refs"] == 2
        assert not report["ok"]

        repair = store.verify(repair=True)
        assert repair["quarantined"] == 2
        assert repair["pruned_refs"] == 2
        for digest in damaged:
            assert os.path.exists(
                os.path.join(store_dir, "quarantine", digest)
            )
        assert store.verify()["ok"]

        # The next cached sweep recomputes exactly the two quarantined
        # cells and restores a byte-identical result set.
        counting = CountingSerial()
        executor = CachingExecutor(store=store_dir, inner=counting)
        healed = api.run_experiment(spec, executor=executor)
        assert counting.cells_computed == 2
        assert executor.hits == 2
        assert healed.canonical_json() == baseline.canonical_json()
        assert ExperimentStore(store_dir).verify()["ok"]


def _racing_worker(store_dir, barrier, crash):
    """One of two processes racing the same cells into one store; with
    ``crash`` the first CAS write kills this process mid-write."""
    if crash:
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", site="cas.write", times=1),
        ))
        os.environ[FAULTS_ENV] = plan.to_json()
    from repro import api as worker_api

    spec = worker_api.ExperimentSpec(
        name="chaos",
        workloads=["fib", "gcd"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=worker_api.grid(k_compress=[1, "inf"]),
    )
    barrier.wait(timeout=60)
    result = worker_api.run_experiment(spec, store=store_dir)
    if result.failures():
        raise SystemExit(3)


class TestConcurrentCrash:
    def test_store_survives_a_writer_dying_mid_write(self, tmp_path):
        store_dir = str(tmp_path / "store")
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        workers = [
            context.Process(target=_racing_worker,
                            args=(store_dir, barrier, crash))
            for crash in (True, False)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        # The chaos child died with the injected crash exit code; the
        # clean child finished.
        assert workers[0].exitcode == 70
        assert workers[1].exitcode == 0
        # The store is consistent — no torn object is visible (the
        # crash lost a .tmp at worst) — and a run in this process is
        # byte-equal to a fault-free recomputation.
        spec = _spec()
        survivor = api.run_experiment(spec, store=store_dir)
        assert survivor.errors() == []
        assert survivor.canonical_json() == \
            api.run_experiment(spec).canonical_json()
        report = ExperimentStore(store_dir).verify()
        assert report["corrupt_objects"] == 0
        assert report["dangling_refs"] == 0


class TestBatchedReplayChaos:
    """The batched trace-replay kernel composes with fault injection.

    Replayed cells run inside the batched kernel's envelope
    (:mod:`repro.core.replay`); an injected ``$REPRO_FAULTS`` transient
    must surface as a normal cell fault that per-cell retry recovers.
    Faulted cells re-run through the same sweep row, so they replay
    like their untouched neighbours, and the canonical results are
    byte-identical to a fault-free sweep.
    """

    def test_replay_faults_recover_byte_identical(self, monkeypatch):
        spec = _spec()  # every cell replays
        baseline = api.run_experiment(spec)
        assert all(
            run.result.engine == "trace" for run in baseline.runs
        )
        plan = FaultPlan(
            rules=(
                FaultRule(kind="transient", site="cell", match="fib",
                          times=2),
                FaultRule(kind="hang", site="cell", match="gcd",
                          seconds=5.0, times=1),
            ),
            seed=9,
        )
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        survived = api.run_experiment(
            spec, retry=_retry(timeout=0.5)
        )
        assert survived.errors() == []
        # Faulted cells (both of fib's, one of gcd's) were replayed
        # again, like the untouched cell.
        assert all(
            run.result.engine == "trace" for run in survived.runs
        )
        assert survived.canonical_json() == baseline.canonical_json()

    def test_exhausted_replay_cell_degrades_to_error_row(
        self, monkeypatch
    ):
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="fib",
                      times=None),
        ))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        rs = api.run_experiment(_spec(), retry=_retry(attempts=2))
        # fib exhausted into error rows; gcd still replayed cleanly.
        assert len(rs.runs) == 4
        assert {r.workload for r in rs.errors()} == {"fib"}
        clean = [r for r in rs.runs if r.error is None]
        assert clean and all(
            run.result.engine == "trace" for run in clean
        )
