"""Job queue and execution core of the sweep service.

A *job* is one submitted :class:`~repro.api.spec.ExperimentSpec`.  The
:class:`JobManager` owns a bounded queue feeding a pool of worker
threads; a worker runs a job as one :func:`repro.api.run_experiment`
call through a :class:`~repro.store.executor.CachingExecutor` on the
shared :class:`~repro.store.cas.ExperimentStore`, so the service and
``repro exp`` share one cell loop:

* cell identity, store hits, and retries, per-cell deadlines and fault
  injection (``RetryPolicy``) behave exactly as they do under
  ``repro exp``;
* the executor's process-wide *claim map* computes every cell at most
  once across concurrent jobs: a job wanting a cell another job has
  claimed waits and is served the stored record (``shared``) — and,
  via the CAS write, at most once per store across processes racing
  on distinct cells;
* the executor's ``on_cell`` callback is :meth:`Job.emit`, which feeds
  the job's progress counters and its SSE event stream.

Whole jobs dedup too: :func:`job_key` fingerprints the result-affecting
spec fields plus the code/catalog versions, and a completed job's
canonical result JSON is stored under that key
(:meth:`ExperimentStore.put_job_result`), so resubmitting a finished
spec is answered from the store at byte-equality without touching a
single cell — the fast path the ``bench_service_cached_rps`` benchmark
measures.

Every job state transition is journalled atomically under
``<store>/service/jobs/<id>.json``.  Graceful shutdown stops pulling
from the queue and drains only in-flight jobs; on the next boot the
journal is replayed — finished jobs re-join the dedup index, unfinished
ones re-enter the queue.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from ..api import run_experiment
from ..api.spec import ExperimentSpec, SpecError
from ..faults.retry import RetryPolicy
from ..log import kv
from ..obs.spans import span, span_event
from ..registry import catalog_signature
from ..store.cas import ExperimentStore, _atomic_write
from ..store.executor import CachingExecutor, artifact_scope
from ..store.fingerprint import canonical_dumps, code_version

_log = logging.getLogger("repro.service")

#: Journal schema version (bumped on incompatible entry changes).
JOURNAL_VERSION = 1


class ServiceError(RuntimeError):
    """Raised for invalid service operations."""


class QueueFullError(ServiceError):
    """Raised when a submission does not fit the bounded job queue."""


def job_key(spec: ExperimentSpec) -> str:
    """Content key of one job: the result-affecting spec fields only.

    Executor choice, job count, the legacy ``engine`` name and the
    spec's own ``store`` field do not change results, so they are
    excluded — two clients asking for the same grid with different
    parallelism, or under either engine name, share one key.  The code
    version and component catalog are folded in for the same reason
    they are part of cell fingerprints: a semantic change must miss.
    """
    payload = {
        "kind": "service-job",
        "code": code_version(),
        "catalog": catalog_signature(),
        "salt": os.environ.get("REPRO_STORE_SALT", ""),
        "name": spec.name,
        "workloads": spec.workload_names(),
        "base": dict(spec.base),
        "axes": [dict(override) for override in spec.axes],
        "fast": spec.fast,
        "max_blocks": spec.max_blocks,
    }
    return hashlib.sha256(
        canonical_dumps(payload).encode("utf-8")
    ).hexdigest()


def _dedupable(job: "Job") -> bool:
    """Whether a later identical submission may be served by ``job``."""
    if job.state == "failed":
        return False
    return not (job.state == "done" and job.error_rows)


class Job:
    """One submitted experiment and its observable lifecycle.

    States: ``queued`` → ``running`` → ``done`` (also reached by error
    rows — a cell failure is a structured result, not a job failure) or
    ``failed`` (the spec could not be executed at all).  All mutation
    happens under the job's lock; readers take snapshots.
    """

    def __init__(self, job_id: str, spec: ExperimentSpec, key: str,
                 seq: int) -> None:
        self.id = job_id
        self.spec = spec
        self.key = key
        self.seq = seq
        self.state = "queued"
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.error: Optional[str] = None
        self.result_text: Optional[str] = None
        self.deduped = False
        total = len(spec.workload_names()) * len(spec.configs())
        self.progress: Dict[str, int] = {
            "total": total, "done": 0, "hits": 0, "computed": 0,
            "shared": 0, "errors": 0, "retried": 0,
        }
        self.error_rows: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        #: Aggregate cycle-phase breakdown of the finished result
        #: (execute / stall / background), filled in by the worker.
        #: Snapshot-only diagnostics — not journalled, so resumed done
        #: jobs simply lack it.
        self.phases: Optional[Dict[str, int]] = None
        self._lock = threading.Lock()

    # -- mutation (worker side) ---------------------------------------

    def emit(self, cell: int, workload: str, label: str, source: str,
             run: Any) -> None:
        """Count one finished cell and append its event (SSE consumers
        poll); the caching executor's ``on_cell`` callback."""
        ok, error = run.ok, run.error
        with self._lock:
            self.progress["done"] += 1
            self.progress[
                "hits" if source == "cache"
                else "shared" if source == "shared"
                else "computed"
            ] += 1
            if run.attempts:
                self.progress["retried"] += len(run.attempts) - 1
            if not ok:
                self.progress["errors"] += 1
                self.error_rows.append({
                    "cell": cell, "workload": workload, "label": label,
                    "error": error,
                })
            self.events.append({
                "seq": len(self.events), "cell": cell,
                "workload": workload, "label": label, "source": source,
                "ok": ok, "error": error,
            })

    # -- observation (HTTP side) --------------------------------------

    def events_since(self, cursor: int) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self.events[cursor:])

    def snapshot(self) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` status document."""
        with self._lock:
            return {
                "id": self.id,
                "key": self.key,
                "state": self.state,
                "deduped": self.deduped,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "progress": dict(self.progress),
                "error_rows": [dict(r) for r in self.error_rows],
                "error": self.error,
                "phases": dict(self.phases) if self.phases else None,
            }

    def to_journal(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "version": JOURNAL_VERSION,
                "id": self.id,
                "seq": self.seq,
                "key": self.key,
                "state": self.state,
                "spec": self.spec.to_dict(),
                "created": self.created,
                "finished": self.finished,
                "progress": dict(self.progress),
                "error_rows": [dict(r) for r in self.error_rows],
                "error": self.error,
            }


class JobManager:
    """Bounded job queue + worker threads over one experiment store."""

    def __init__(
        self,
        store: Union[ExperimentStore, str, None] = None,
        workers: int = 2,
        inner_jobs: int = 1,
        retry: Optional[RetryPolicy] = None,
        queue_size: int = 64,
        resume: bool = True,
    ) -> None:
        if isinstance(store, ExperimentStore):
            self.store = store
        else:
            self.store = ExperimentStore(store)
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.inner_jobs = max(1, inner_jobs)
        self.retry = retry
        self._queue: "queue.Queue[str]" = queue.Queue(maxsize=queue_size)
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._stopping = False
        self._seq = itertools.count(1)
        # The store serves compressed-image artifacts to every job for
        # the manager's whole lifetime (restored on shutdown); each
        # job's executor also opens a scope of its own over it.
        self._artifacts = artifact_scope(self.store)
        self._artifacts.__enter__()
        if resume:
            self._resume_journal()
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-service-worker-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission / lookup
    # ------------------------------------------------------------------

    @property
    def journal_dir(self) -> str:
        return os.path.join(self.store.root, "service", "jobs")

    def submit(self, spec: Union[ExperimentSpec, Dict[str, Any]]
               ) -> Tuple[Job, bool]:
        """Queue ``spec``; returns ``(job, deduped)``.

        A spec whose :func:`job_key` matches a queued, running, or
        cleanly completed job returns that job instead of queueing a
        duplicate — the second ``(job, True)`` element flags the dedup
        hit.  Failed jobs and done jobs with error rows never dedup
        (mirroring the store's errors-are-never-cached rule), so a
        resubmission after a transient fault recomputes exactly the
        failed cells.
        """
        if not isinstance(spec, ExperimentSpec):
            spec = ExperimentSpec.from_dict(spec)
        key = job_key(spec)
        with self._lock:
            if self._stopping:
                raise ServiceError("service is shutting down")
            existing_id = self._by_key.get(key)
            if existing_id is not None:
                existing = self._jobs.get(existing_id)
                if existing is not None and _dedupable(existing):
                    return existing, True
            seq = next(self._seq)
            job = Job(f"j{seq}-{key[:8]}", spec, key, seq)
            self._jobs[job.id] = job
            self._by_key[key] = job.id
        self._write_journal(job)
        try:
            self._queue.put_nowait(job.id)
        except queue.Full:
            with self._lock:
                self._jobs.pop(job.id, None)
                if self._by_key.get(key) == job.id:
                    del self._by_key[key]
            self._drop_journal(job.id)
            raise QueueFullError(
                f"job queue is full ({self._queue.maxsize} queued)"
            ) from None
        return job, False

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def job_result(self, job: Job) -> Optional[str]:
        """A done job's canonical result JSON (store-backed)."""
        if job.result_text is not None:
            return job.result_text
        data = self.store.get_job_result(job.key)
        if data is None:
            return None
        text = data.decode("utf-8")
        job.result_text = text
        return text

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def list_jobs(self) -> List[Dict[str, Any]]:
        """All job snapshots, oldest first (``GET /jobs``)."""
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.seq)
        return [job.snapshot() for job in jobs]

    def job_counts(self) -> Dict[str, int]:
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Journal / resume
    # ------------------------------------------------------------------

    def _journal_path(self, job_id: str) -> str:
        return os.path.join(self.journal_dir, f"{job_id}.json")

    def _write_journal(self, job: Job) -> None:
        os.makedirs(self.journal_dir, exist_ok=True)
        entry = job.to_journal()
        try:
            _atomic_write(
                self._journal_path(job.id),
                (canonical_dumps(entry) + "\n").encode("utf-8"),
            )
        except OSError:
            pass  # a read-only store degrades resume, never submission

    def _drop_journal(self, job_id: str) -> None:
        try:
            os.unlink(self._journal_path(job_id))
        except OSError:
            pass

    def _resume_journal(self) -> None:
        """Replay journalled jobs: done ones re-join the dedup index,
        unfinished ones re-enter the queue."""
        if not os.path.isdir(self.journal_dir):
            return
        entries: List[Dict[str, Any]] = []
        for name in sorted(os.listdir(self.journal_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.journal_dir, name), "r",
                          encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                continue
            if (
                isinstance(entry, dict)
                and entry.get("version") == JOURNAL_VERSION
            ):
                entries.append(entry)
        entries.sort(key=lambda e: e.get("seq", 0))
        top_seq = 0
        for entry in entries:
            try:
                spec = ExperimentSpec.from_dict(entry["spec"])
            except (KeyError, SpecError):
                _log.warning(kv(
                    "service.journal_skip", id=entry.get("id"),
                    reason="spec_no_longer_loads",
                ))
                continue
            key = entry.get("key") or job_key(spec)
            seq = int(entry.get("seq", 0))
            top_seq = max(top_seq, seq)
            job = Job(entry["id"], spec, key, seq)
            job.created = entry.get("created", job.created)
            if entry.get("state") == "done":
                job.state = "done"
                job.finished = entry.get("finished")
                job.progress.update(entry.get("progress", {}))
                job.error_rows = list(entry.get("error_rows", []))
            else:
                job.state = "queued"
            self._jobs[job.id] = job
            if _dedupable(job):
                self._by_key.setdefault(key, job.id)
            if job.state == "queued":
                try:
                    self._queue.put_nowait(job.id)
                except queue.Full:
                    _log.warning(kv(
                        "service.journal_skip", id=job.id,
                        reason="queue_full_on_resume",
                    ))
                    self._jobs.pop(job.id, None)
        self._seq = itertools.count(top_seq + 1)

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._stopping:
                    return
                continue
            if self._stopping:
                # Drain only in-flight work: this job stays journalled
                # as queued and resumes on the next boot.
                return
            job = self.get(job_id)
            if job is None or job.state != "queued":
                continue
            try:
                self._execute(job)
            except BaseException as exc:  # noqa: BLE001 - worker survives
                with job._lock:
                    job.state = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.finished = time.time()
                self._write_journal(job)
                _log.warning(kv(
                    "service.job_failed", id=job.id,
                    error=f"{type(exc).__name__}: {exc}",
                ))

    def _execute(self, job: Job) -> None:
        with job._lock:
            job.state = "running"
            job.started = time.time()
        self._write_journal(job)
        # Queue wait = created -> started; a span event so an armed
        # recorder sees service latency next to the compute spans.
        span_event(
            "job.queue_wait", cat="queue", job=job.id,
            wait_ms=round((job.started - job.created) * 1000.0, 3),
        )
        with span(f"job:{job.id}", cat="job", key=job.key[:12],
                  cells=job.progress["total"]):
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        result = run_experiment(job.spec, executor=CachingExecutor(
            jobs=self.inner_jobs, store=self.store, retry=self.retry,
            on_cell=job.emit,
        ))
        text = result.canonical_json()
        self.store.put_job_result(job.key, text)
        phases = self._aggregate_phases(result.runs)
        with job._lock:
            job.result_text = text
            job.phases = phases
            job.state = "done"
            job.finished = time.time()
        self._write_journal(job)

    @staticmethod
    def _aggregate_phases(runs: List[Any]) -> Dict[str, int]:
        """Cycle-phase totals across a job's runs (dashboard bars).

        Works for cached cells too — the breakdown comes from the
        stored metrics, not from live tracing.
        """
        phases = {"execute": 0, "stall": 0, "background": 0}
        for run in runs:
            res = getattr(run, "result", None)
            if res is None:
                continue
            phases["execute"] += res.execution_cycles
            phases["stall"] += res.counters.stall_cycles
            phases["background"] += (
                res.counters.background_decompress_cycles
                + res.counters.background_compress_cycles
            )
        return phases

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self, timeout: float = 60.0) -> None:
        """Drain in-flight jobs, stop the workers, restore providers.

        Queued-but-unstarted jobs stay journalled (state ``queued``)
        and re-enter the queue when a manager next boots on this store
        — the resumable-journal half of graceful shutdown.
        """
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._artifacts.__exit__(None, None, None)
