"""Chaos scenarios for the sweep service (`repro.service`).

The service inherits the executor stack's fault semantics, and this
suite pins the service-level consequences: a worker hitting injected
faults mid-job must finish the job with **structured error rows**
(never a dead job, never an abort), failed cells are **never cached**
(neither as cell records nor via job dedup), and a resubmission after
the fault clears recomputes **exactly** the failed cells.

Faults are installed via ``$REPRO_FAULTS`` — the same environment
contract worker processes use — with ``transient`` rules: ``crash``
rules are deliberately inert outside worker subprocesses and SIGALRM
deadlines only arm on main threads, so transient faults are the kind
that actually penetrates the service's worker threads.
"""

from __future__ import annotations

import json
import time

from repro import api
from repro.faults import FAULTS_ENV, FaultPlan, FaultRule, RetryPolicy
from repro.service import JobManager


def _spec_dict():
    return {
        "name": "chaos-service",
        "workloads": ["fib", "gcd"],
        "base": {"codec": "shared-dict", "decompression": "ondemand"},
        "axes": {"grid": {"k_compress": [1, "inf"]}},
    }


def _wait_state(job, state, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.state == state:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"job stuck in {job.state!r} (error={job.error!r}), "
        f"wanted {state!r}"
    )


def _fib_fault_plan():
    """Every fib cell fails on every attempt; gcd is untouched."""
    return FaultPlan(rules=(
        FaultRule(kind="transient", site="cell", match="fib",
                  times=None),
    ))


class TestServiceUnderCellFaults:
    def test_faulted_job_degrades_to_error_rows_and_resubmission_recomputes_exactly_the_failed_cells(  # noqa: E501
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, _fib_fault_plan().to_json())
        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            job, _ = manager.submit(_spec_dict())
            _wait_state(job, "done")

            # The job FINISHED (not failed): fib's 2 cells degraded
            # into structured error rows, gcd's 2 computed fine.
            assert job.error is None
            assert job.progress["done"] == 4
            assert job.progress["errors"] == 2
            assert len(job.error_rows) == 2
            assert all(r["workload"] == "fib" for r in job.error_rows)
            assert all("TransientFault" in r["error"]
                       for r in job.error_rows)
            served = json.loads(manager.job_result(job))
            errored = [c for c in served["cells"] if c.get("error")]
            assert len(errored) == 2

            # Errors are never cached: only gcd's cells were stored.
            stats = manager.store.stats()
            assert stats["puts"] == 2
            assert stats["cells"] == 2

            # Fault clears; resubmitting must NOT dedup onto the
            # error-carrying job...
            monkeypatch.delenv(FAULTS_ENV)
            retry, deduped = manager.submit(_spec_dict())
            assert not deduped and retry is not job
            _wait_state(retry, "done")

            # ...and recomputes exactly the 2 failed fib cells: gcd
            # comes from cache, misses/puts move by exactly 2.
            assert retry.error_rows == []
            assert retry.progress["hits"] == 2
            assert retry.progress["computed"] == 2
            after = manager.store.stats()
            assert after["puts"] == stats["puts"] + 2
            assert after["cells"] == 4
            assert after["misses"] == stats["misses"] + 2

            # The recovered result is byte-identical to a fault-free
            # run on a fresh store.
            clean = api.run_experiment(
                api.ExperimentSpec.from_dict(_spec_dict())
            )
            assert manager.job_result(retry) == clean.canonical_json()
        finally:
            manager.shutdown()

    def test_retry_policy_recovers_bounded_faults_cleanly(
        self, tmp_path, monkeypatch
    ):
        # 2 injected failures, 3 attempts per cell: the job recovers
        # with zero error rows and records the retries in progress.
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="fib",
                      times=2),
        ))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        manager = JobManager(
            store=str(tmp_path), workers=1,
            retry=RetryPolicy(attempts=3, backoff_base=0.0,
                              jitter=0.0),
        )
        try:
            job, _ = manager.submit(_spec_dict())
            _wait_state(job, "done")
            assert job.error_rows == []
            assert job.progress["errors"] == 0
            assert job.progress["retried"] == 2
            # A recovered cell is cacheable like any other.
            assert manager.store.stats()["cells"] == 4
            monkeypatch.delenv(FAULTS_ENV)
            clean = api.run_experiment(
                api.ExperimentSpec.from_dict(_spec_dict())
            )
            assert manager.job_result(job) == clean.canonical_json()
        finally:
            manager.shutdown()
