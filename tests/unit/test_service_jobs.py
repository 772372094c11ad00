"""Unit tests for the service job layer (no HTTP involved).

Covers the pieces the HTTP integration suite builds on: job-key
semantics (what dedups and what must not), submission/dedup/rollback
on a full queue, the resumable journal, and snapshot shapes.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro import api
from repro.service import JobManager, QueueFullError, job_key
from repro.service.jobs import JOURNAL_VERSION
from repro.store import ExperimentStore, StoreError
from repro.store.executor import plan_cells
from repro.store.records import RECORD_VERSION, record_to_run


def _spec_dict(**overrides):
    fields = {
        "name": "unit-service",
        "workloads": ["fib"],
        "base": {"codec": "shared-dict", "decompression": "ondemand"},
        "axes": {"grid": {"k_compress": [1, "inf"]}},
    }
    fields.update(overrides)
    return fields


def _spec(**overrides):
    return api.ExperimentSpec.from_dict(_spec_dict(**overrides))


def _wait_state(job, state, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.state == state:
            return
        if job.state == "failed" and state != "failed":
            raise AssertionError(f"job failed: {job.error}")
        time.sleep(0.01)
    raise AssertionError(
        f"job stuck in {job.state!r}, wanted {state!r}"
    )


class TestJobKey:
    def test_stable_across_equal_specs(self):
        assert job_key(_spec()) == job_key(_spec())

    def test_execution_fields_do_not_affect_the_key(self):
        base = job_key(_spec())
        assert job_key(_spec(executor="parallel", jobs=4)) == base
        assert job_key(_spec(store="/elsewhere")) == base
        # The legacy engine names run one computation.
        assert job_key(_spec(engine="machine")) == base
        assert job_key(_spec(engine="trace")) == base

    def test_result_affecting_fields_change_the_key(self):
        base = job_key(_spec())
        assert job_key(_spec(name="other")) != base
        assert job_key(_spec(workloads=["gcd"])) != base
        assert job_key(
            _spec(axes={"grid": {"k_compress": [1, 2]}})
        ) != base
        assert job_key(_spec(max_blocks=5)) != base

    def test_store_salt_is_folded_in(self, monkeypatch):
        base = job_key(_spec())
        monkeypatch.setenv("REPRO_STORE_SALT", "tenant-b")
        assert job_key(_spec()) != base


class TestSubmitAndDedup:
    def test_submit_runs_to_done_and_dedups(self, tmp_path):
        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            job, deduped = manager.submit(_spec_dict())
            assert not deduped
            _wait_state(job, "done")
            assert job.progress["done"] == job.progress["total"] == 2
            again, deduped = manager.submit(_spec_dict())
            assert deduped and again is job
            text = manager.job_result(job)
            assert len(json.loads(text)["cells"]) == 2
        finally:
            manager.shutdown()

    def test_both_engine_names_dedup_onto_one_job(self, tmp_path):
        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            job, _ = manager.submit(_spec_dict(engine="machine"))
            _wait_state(job, "done")
            again, deduped = manager.submit(_spec_dict(engine="trace"))
            assert deduped and again is job
        finally:
            manager.shutdown()

    def test_dict_and_spec_submissions_share_a_key(self, tmp_path):
        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            job, _ = manager.submit(_spec_dict())
            _wait_state(job, "done")
            again, deduped = manager.submit(_spec())
            assert deduped and again is job
        finally:
            manager.shutdown()

    def test_done_job_with_error_rows_never_dedups(self, tmp_path):
        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            job, _ = manager.submit(_spec_dict())
            _wait_state(job, "done")
            # Forge an error row: the next identical submission must
            # get a fresh job, mirroring errors-are-never-cached.
            job.error_rows.append({"cell": 0, "error": "boom"})
            again, deduped = manager.submit(_spec_dict())
            assert not deduped and again is not job
            _wait_state(again, "done")
            assert not again.error_rows
        finally:
            manager.shutdown()

    def test_full_queue_rejects_and_rolls_back(
        self, tmp_path, monkeypatch
    ):
        gate = threading.Event()
        picked_up = threading.Event()
        real_execute = JobManager._execute

        def gated_execute(self, job):
            picked_up.set()
            gate.wait(60.0)
            real_execute(self, job)

        monkeypatch.setattr(JobManager, "_execute", gated_execute)
        manager = JobManager(
            store=str(tmp_path), workers=1, queue_size=1
        )
        try:
            running, _ = manager.submit(_spec_dict(name="a"))
            assert picked_up.wait(30.0)  # worker parked on gate
            queued, _ = manager.submit(_spec_dict(name="b"))
            with pytest.raises(QueueFullError):
                manager.submit(_spec_dict(name="c"))
            # Rollback: "c" left no trace — no journal entry, and a
            # later submit gets a fresh (non-deduped) job.
            entries = os.listdir(manager.journal_dir)
            assert len(entries) == 2
            gate.set()
            _wait_state(running, "done")
            _wait_state(queued, "done")
            retry, deduped = manager.submit(_spec_dict(name="c"))
            assert not deduped
            _wait_state(retry, "done")
        finally:
            gate.set()
            manager.shutdown()


class TestUndecodableRecords:
    def test_a_record_that_fails_to_decode_is_recomputed(self, tmp_path):
        spec = _spec()
        clean = api.run_experiment(spec, store=str(tmp_path))
        partitions = [
            api.Partition(workload=name, configs=configs)
            for name, configs in spec.partitions()
        ]
        [[(fingerprint, cell_config), _]] = plan_cells(
            partitions, fast=spec.fast, max_blocks=spec.max_blocks,
        )
        store = ExperimentStore(str(tmp_path))
        record = store.get_cell(fingerprint)
        record["version"] = RECORD_VERSION + 1
        store.put_cell(fingerprint, record)
        with pytest.raises(StoreError):
            record_to_run(record, cell_config, fingerprint)

        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            job, _ = manager.submit(_spec_dict())
            _wait_state(job, "done")
            assert [(e["cell"], e["source"])
                    for e in job.events_since(0)] == \
                [(1, "cache"), (0, "computed")]
            assert (job.progress["hits"], job.progress["computed"]) == \
                (1, 1)
            assert manager.job_result(job) == clean.canonical_json()
            # The recomputed record replaced the undecodable one.
            assert store.get_cell(fingerprint)["version"] == \
                RECORD_VERSION
        finally:
            manager.shutdown()


class TestJournal:
    def test_done_jobs_rejoin_the_dedup_index_after_reboot(
        self, tmp_path
    ):
        manager = JobManager(store=str(tmp_path), workers=1)
        job, _ = manager.submit(_spec_dict())
        _wait_state(job, "done")
        result = manager.job_result(job)
        manager.shutdown()

        reborn = JobManager(store=str(tmp_path), workers=1)
        try:
            again, deduped = reborn.submit(_spec_dict())
            assert deduped
            assert again.id == job.id
            assert again.state == "done"
            assert reborn.job_result(again) == result
        finally:
            reborn.shutdown()

    def test_queued_journal_entries_run_on_the_next_boot(
        self, tmp_path
    ):
        # A manager that died before running its queue: model it by
        # writing the journal entry a dead manager would have left.
        dead = JobManager(store=str(tmp_path), workers=1, resume=False)
        dead.shutdown()
        spec = _spec()
        entry = {
            "version": JOURNAL_VERSION,
            "id": "j9-deadbeef",
            "seq": 9,
            "key": job_key(spec),
            "state": "queued",
            "spec": spec.to_dict(),
            "created": 0.0,
            "finished": None,
            "progress": {},
            "error_rows": [],
            "error": None,
        }
        os.makedirs(dead.journal_dir, exist_ok=True)
        with open(os.path.join(dead.journal_dir, "j9-deadbeef.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(entry, handle)

        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            job = manager.get("j9-deadbeef")
            assert job is not None
            _wait_state(job, "done")
            # Resumed seq numbering continues past the journal's.
            fresh, _ = manager.submit(_spec_dict(name="later"))
            assert fresh.seq > 9
        finally:
            manager.shutdown()

    def test_journalled_spec_naming_an_engine_still_runs(self, tmp_path):
        # Journals written before the engine left the job key carry
        # the name in their spec and a key of the old shape: the job
        # loads, keeps its key and its result has no engine.
        dead = JobManager(store=str(tmp_path), workers=1, resume=False)
        dead.shutdown()
        old_key = "0" * 64
        entry = {
            "version": JOURNAL_VERSION,
            "id": "j3-oldspec",
            "seq": 3,
            "key": old_key,
            "state": "queued",
            "spec": {**_spec().to_dict(), "engine": "machine"},
            "created": 0.0,
            "finished": None,
            "progress": {},
            "error_rows": [],
            "error": None,
        }
        os.makedirs(dead.journal_dir, exist_ok=True)
        with open(os.path.join(dead.journal_dir, "j3-oldspec.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(entry, handle)

        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            job = manager.get("j3-oldspec")
            assert job is not None and job.key == old_key
            _wait_state(job, "done")
            data = json.loads(manager.job_result(job))
            assert data["version"] == api.SCHEMA_VERSION
            assert "engine" not in data["meta"]
            assert len(data["cells"]) == 2
        finally:
            manager.shutdown()

    def test_unloadable_spec_entries_are_skipped_not_fatal(
        self, tmp_path
    ):
        dead = JobManager(store=str(tmp_path), workers=1, resume=False)
        dead.shutdown()
        os.makedirs(dead.journal_dir, exist_ok=True)
        with open(os.path.join(dead.journal_dir, "j1-bad.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({
                "version": JOURNAL_VERSION, "id": "j1-bad", "seq": 1,
                "key": "x", "state": "queued", "created": 0.0,
                "spec": {"workloads": ["no-such-workload"]},
            }, handle)
        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            assert manager.get("j1-bad") is None
            job, _ = manager.submit(_spec_dict())
            _wait_state(job, "done")
        finally:
            manager.shutdown()

    def test_no_resume_ignores_the_journal(self, tmp_path):
        manager = JobManager(store=str(tmp_path), workers=1)
        job, _ = manager.submit(_spec_dict())
        _wait_state(job, "done")
        manager.shutdown()
        fresh = JobManager(
            store=str(tmp_path), workers=1, resume=False
        )
        try:
            assert fresh.get(job.id) is None
            # The cell/job stores still dedup the actual work.
            again, deduped = fresh.submit(_spec_dict())
            assert not deduped
            _wait_state(again, "done")
            assert again.progress["hits"] == again.progress["total"]
        finally:
            fresh.shutdown()


class TestSnapshots:
    def test_snapshot_shape(self, tmp_path):
        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            job, _ = manager.submit(_spec_dict())
            _wait_state(job, "done")
            snapshot = job.snapshot()
            assert set(snapshot) == {
                "id", "key", "state", "deduped", "created", "started",
                "finished", "progress", "error_rows", "error",
                "phases",
            }
            assert set(snapshot["phases"]) == {
                "execute", "stall", "background",
            }
            assert snapshot["phases"]["execute"] > 0
            assert set(snapshot["progress"]) == {
                "total", "done", "hits", "computed", "shared",
                "errors", "retried",
            }
            assert snapshot["state"] == "done"
            assert snapshot["error"] is None
            events = job.events_since(0)
            assert len(events) == snapshot["progress"]["total"]
            assert [e["seq"] for e in events] == [0, 1]
            assert job.events_since(1) == events[1:]
        finally:
            manager.shutdown()

    def test_job_counts_and_queue_depth(self, tmp_path):
        manager = JobManager(store=str(tmp_path), workers=1)
        try:
            job, _ = manager.submit(_spec_dict())
            _wait_state(job, "done")
            counts = manager.job_counts()
            assert counts["done"] == 1
            assert counts["failed"] == 0
            assert manager.queue_depth == 0
        finally:
            manager.shutdown()
