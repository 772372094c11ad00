"""Unit tests for :mod:`repro.faults` — plans, retry policies, hooks.

The chaos *scenarios* (whole sweeps surviving injected faults) live in
``tests/chaos/``; this file pins the building blocks: plan parsing and
env round-trips, rule matching/budget semantics, deterministic backoff,
the per-cell deadline, and the retry pass on real (tiny) cells.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import api
from repro.faults import (
    FAULTS_ENV,
    CellTimeoutError,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    RetryPolicy,
    TransientFault,
    cell_deadline,
    classify_fault,
    corrupt_bytes,
    current_plan,
    install_plan,
    maybe_fire,
    plan_from_env,
    truncate_bytes,
)
from repro.store.records import run_to_record


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="transient", site="cell", match="fib",
                          times=2),
                FaultRule(kind="corrupt", site="cas.read", rate=0.5,
                          times=None),
            ),
            seed=7,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_env_inline_json_and_file(self, tmp_path, monkeypatch):
        plan = FaultPlan(rules=(FaultRule(kind="hang", seconds=1.5),))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert plan_from_env() == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        monkeypatch.setenv(FAULTS_ENV, str(path))
        assert plan_from_env() == plan

    def test_env_unset_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert plan_from_env() is None
        assert current_plan() is None

    def test_malformed_env_is_loud(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "{not json")
        with pytest.raises(FaultPlanError):
            plan_from_env()

    def test_invalid_rules_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultRule(kind="meteor")
        with pytest.raises(FaultPlanError):
            FaultRule(kind="transient", site="gpu")
        with pytest.raises(FaultPlanError):
            FaultRule(kind="transient", times=-1)
        with pytest.raises(FaultPlanError):
            FaultRule(kind="transient", rate=1.5)

    def test_fraction_is_deterministic(self):
        plan = FaultPlan(rules=(FaultRule(kind="corrupt", rate=0.5),),
                         seed=3)
        one = plan.fraction(0, "cas.read", "abc", 0)
        two = plan.fraction(0, "cas.read", "abc", 0)
        assert one == two
        assert 0.0 <= one < 1.0
        assert one != plan.fraction(0, "cas.read", "abc", 1)


class TestMaybeFire:
    def test_no_plan_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert maybe_fire("cell", "fib:ondemand") is None

    def test_times_budget(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", times=2),
        ))
        with install_plan(plan):
            with pytest.raises(TransientFault):
                maybe_fire("cell", "a")
            with pytest.raises(TransientFault):
                maybe_fire("cell", "b")
            assert maybe_fire("cell", "c") is None  # budget spent

    def test_match_filters_by_key_substring(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="fib",
                      times=None),
        ))
        with install_plan(plan):
            assert maybe_fire("cell", "gcd:ondemand") is None
            assert maybe_fire("cas.read", "fib") is None  # wrong site
            with pytest.raises(TransientFault):
                maybe_fire("cell", "fib:ondemand")

    def test_crash_rule_is_inert_in_the_main_process(self):
        # A crash firing here would os._exit the pytest process; the
        # rule must neither fire nor consume its budget outside a
        # worker subprocess.
        plan = FaultPlan(rules=(FaultRule(kind="crash", times=1),))
        with install_plan(plan):
            assert maybe_fire("cell", "fib:ondemand") is None
            assert maybe_fire("cell", "fib:ondemand") is None

    def test_install_plan_exports_and_restores_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        plan = FaultPlan(rules=(FaultRule(kind="hang"),))
        with install_plan(plan):
            assert json.loads(os.environ[FAULTS_ENV]) == \
                json.loads(plan.to_json())
            assert current_plan() == plan
        assert FAULTS_ENV not in os.environ
        assert current_plan() is None


class TestByteMutations:
    def test_corrupt_changes_and_preserves_length(self):
        data = b"hello world"
        assert corrupt_bytes(data) != data
        assert len(corrupt_bytes(data)) == len(data)
        assert corrupt_bytes(b"") == b"\xff"

    def test_truncate_halves(self):
        assert truncate_bytes(b"abcdef") == b"abc"
        assert truncate_bytes(b"") == b""


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_delay_schedule_is_deterministic_and_bounded(self):
        policy = RetryPolicy(attempts=5, backoff_base=0.1,
                             backoff_factor=2.0, backoff_max=0.3,
                             jitter=0.25, seed=1)
        assert policy.delay(1, "k") == 0.0
        delays = [policy.delay(n, "k") for n in (2, 3, 4, 5)]
        assert delays == [policy.delay(n, "k") for n in (2, 3, 4, 5)]
        # Exponential up to the cap, jitter only ever adds (<= 25%).
        assert 0.1 <= delays[0] <= 0.1 * 1.25
        assert 0.2 <= delays[1] <= 0.2 * 1.25
        assert delays[2] <= 0.3 * 1.25  # capped
        assert policy.delay(2, "k") != policy.delay(2, "other")


class TestCellDeadline:
    def test_deadline_interrupts_a_sleep(self):
        started = time.perf_counter()
        with pytest.raises(CellTimeoutError):
            with cell_deadline(0.1):
                time.sleep(5.0)
        assert time.perf_counter() - started < 2.0

    def test_none_and_nested_are_noops(self):
        with cell_deadline(None):
            pass
        with cell_deadline(10.0):
            with cell_deadline(0.001):  # inner must not arm
                time.sleep(0.05)


class TestClassifyFault:
    @pytest.mark.parametrize("message,expected", [
        ("TransientFault: injected", "transient"),
        ("CellTimeoutError: 0.5s deadline", "timeout"),
        ("WorkerCrashError: died", "crash"),
        ("BrokenProcessPool: pool died", "crash"),
        ("ZeroDivisionError: division by zero", "error"),
        ("", None),
        (None, None),
    ])
    def test_classes(self, message, expected):
        assert classify_fault(message) == expected


class TestRetryThroughTheApi:
    SPEC_KWARGS = dict(
        workloads=["fib"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=api.grid(k_compress=[1, 2]),
    )

    def test_transient_fault_becomes_an_error_row_without_retry(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="kc=1",
                      times=1),
        ))
        with install_plan(plan):
            rs = api.run_experiment(api.ExperimentSpec(**self.SPEC_KWARGS))
        assert len(rs.errors()) == 1
        assert "TransientFault" in rs.errors()[0].error

    def test_retry_recovers_and_stays_byte_identical(self):
        spec = api.ExperimentSpec(**self.SPEC_KWARGS)
        baseline = api.run_experiment(spec)
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="fib",
                      times=2),
        ))
        with install_plan(plan):
            recovered = api.run_experiment(
                spec,
                retry=RetryPolicy(attempts=3, backoff_base=0.0,
                                  jitter=0.0),
            )
        assert recovered.errors() == []
        assert recovered.canonical_json() == baseline.canonical_json()

    def test_recovered_cell_stays_on_its_sweep_engine(self):
        # A retried cell re-runs through its sweep's row (a replay, not
        # an interpreting run), so the record the store keeps for it
        # does not depend on whether a fault fired.
        spec = api.ExperimentSpec(**self.SPEC_KWARGS)
        baseline = api.run_experiment(spec)
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="kc=1",
                      times=1),
        ))
        with install_plan(plan):
            recovered = api.run_experiment(
                spec,
                retry=RetryPolicy(attempts=3, backoff_base=0.0,
                                  jitter=0.0),
            )
        assert recovered.errors() == []
        assert {run.result.engine for run in recovered.runs} == {"trace"}
        assert [run_to_record(run, "") for run in recovered.runs] == \
            [run_to_record(run, "") for run in baseline.runs]

    def test_exhausted_cell_carries_attempt_provenance(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="fib",
                      times=None),
        ))
        with install_plan(plan):
            rs = api.run_experiment(
                api.ExperimentSpec(**self.SPEC_KWARGS),
                retry=RetryPolicy(attempts=2, backoff_base=0.0,
                                  jitter=0.0),
            )
        assert len(rs.errors()) == 2
        cells = rs.to_dict()["cells"]
        for cell in cells:
            assert "error" in cell
            attempts = cell["attempts"]
            assert [a["attempt"] for a in attempts] == [1, 2]
            assert all(a["fault"] == "transient" for a in attempts)
            assert attempts[0]["duration_ms"] is None
            assert attempts[1]["duration_ms"] >= 0

    def test_recovered_cell_serialises_without_attempts(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="fib",
                      times=1),
        ))
        with install_plan(plan):
            rs = api.run_experiment(
                api.ExperimentSpec(**self.SPEC_KWARGS),
                retry=RetryPolicy(attempts=2, backoff_base=0.0,
                                  jitter=0.0),
            )
        assert rs.errors() == []
        assert "attempts" not in json.dumps(rs.to_dict())

    def test_hang_plus_timeout_recovers(self):
        spec = api.ExperimentSpec(**self.SPEC_KWARGS)
        baseline = api.run_experiment(spec)
        plan = FaultPlan(rules=(
            FaultRule(kind="hang", site="cell", match="fib",
                      seconds=5.0, times=1),
        ))
        with install_plan(plan):
            rs = api.run_experiment(
                spec,
                retry=RetryPolicy(attempts=2, timeout=0.3,
                                  backoff_base=0.0, jitter=0.0),
            )
        assert rs.canonical_json() == baseline.canonical_json()
