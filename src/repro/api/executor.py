"""Pluggable experiment executors.

An executor takes the expanded grid as workload-major *partitions* (one
workload's full config row per partition) and produces the flat run list
in deterministic cell order.  Partitioning by workload is what preserves
the shared-artifact fast paths under parallelism: within a partition
the sweep records each program once and replays every cell, and the
per-(CFG, codec) shared-artifact cache never recompresses identical
block bytes.

* :class:`SerialExecutor` runs partitions in order in this process — the
  reference behaviour.
* :class:`ParallelExecutor` fans partitions out to a
  ``ProcessPoolExecutor`` (one task per workload) and reassembles the
  results in submission order, so its output is byte-identical to the
  serial executor's (asserted by
  ``tests/integration/test_parallel_executor.py``).  Workloads are
  shipped to workers *by registry name*; unregistered
  :class:`~repro.workloads.suite.Workload` objects (whose oracle
  closures do not pickle) silently run in-process instead.

Fault tolerance (see :mod:`repro.faults` and ``docs/operations.md``):

* every executor carries an optional
  :class:`~repro.faults.retry.RetryPolicy`; failing cells are retried
  with deterministic backoff and per-cell wall-clock deadlines, and a
  cell that exhausts its attempts becomes a structured error row
  carrying its attempt provenance (never an abort, never cached);
* :class:`ParallelExecutor` survives worker crashes: a broken process
  pool is rebuilt once, and if it breaks again the remaining
  partitions fall back to in-process serial execution with a warning —
  a dying worker degrades throughput, not results;
* Ctrl-C is clean: any exception escaping the dispatch loop shuts the
  pool down with ``cancel_futures=True`` so no worker processes leak.

Simulation runs have no wall-clock or cross-cell dependence, so cell
results do not depend on which process computed them.
"""

from __future__ import annotations

import abc
import logging
import os
import pickle
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..analysis.sweep import SweepRun, sweep
from ..core.config import SimulationConfig
from ..faults.retry import RetryPolicy
from ..faults.runtime import classify_fault, retry_scope
from ..log import kv
from ..obs.spans import span
from ..registry import Registry
from ..workloads.suite import Workload, get_workload

_log = logging.getLogger("repro.api.executor")

#: The executor family, in the unified component catalog.
EXECUTORS = Registry("executors")


@dataclass
class Partition:
    """One workload's full grid row — the unit of dispatch.

    ``workload`` is a registry name (shippable to worker processes) or a
    concrete :class:`Workload` object (runs wherever it pickles to).
    """

    workload: Union[str, Workload]
    configs: List[SimulationConfig] = field(default_factory=list)

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, str):
            return self.workload
        return self.workload.name


def _retry_cell(
    workload: Workload,
    run: SweepRun,
    retry: RetryPolicy,
    max_blocks: Optional[int],
) -> SweepRun:
    """Re-attempt one errored cell under ``retry``.

    Each attempt re-runs the cell through the same sweep row as the
    first, so a recovered cell is labelled like its untroubled
    neighbours; the recording is cached, so an attempt costs one
    replay.  Returns either a recovered run or the final error row;
    both carry the attempt provenance (attempt number, fault class,
    error message, per-attempt duration — the first attempt's duration
    is not measured, to keep the fault-free path instrumentation-free).
    """
    if run.error is None:
        return run
    key = f"{run.workload}:{run.config.strategy_name}"
    attempts: List[Dict[str, object]] = [{
        "attempt": 1,
        "fault": classify_fault(run.error),
        "error": run.error,
        "duration_ms": None,
    }]
    current = run
    for attempt in range(2, retry.attempts + 1):
        delay = retry.delay(attempt, key)
        if delay > 0:
            time.sleep(delay)
        started = time.perf_counter()
        with span("cell.retry", cat="retry", cell=key,
                  attempt=attempt):
            # run.config is already effective: fast=False keeps it.
            current = sweep(
                [workload], [run.config], fast=False,
                max_blocks=max_blocks,
            ).runs[0]
        duration_ms = round((time.perf_counter() - started) * 1000, 3)
        attempts.append({
            "attempt": attempt,
            "fault": classify_fault(current.error),
            "error": current.error,
            "duration_ms": duration_ms,
        })
        if current.error is None:
            break
    current.attempts = attempts
    return current


def run_partition(
    workload: Union[str, Workload],
    configs: Sequence[SimulationConfig],
    fast: bool,
    max_blocks: Optional[int],
    retry: Optional[RetryPolicy] = None,
) -> List[SweepRun]:
    """Run one partition through the sweep (any process).

    With a :class:`RetryPolicy`, the partition first runs normally
    (fast paths intact, per-cell deadlines armed); only cells that
    errored are then retried individually — so the fault-free path pays
    nothing for the retry machinery.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    with retry_scope(retry), span(
        f"partition:{workload.name}", cat="compute",
        workload=workload.name, cells=len(configs),
    ):
        runs = sweep(
            [workload], list(configs), fast=fast, max_blocks=max_blocks,
        ).runs
        if retry is not None and retry.attempts > 1 and any(
            run.error is not None for run in runs
        ):
            runs = [
                _retry_cell(workload, run, retry, max_blocks)
                for run in runs
            ]
    return runs


class Executor(abc.ABC):
    """Runs expanded experiment partitions, deterministically ordered."""

    name: str = "abstract"

    def __init__(
        self,
        jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.jobs = jobs if jobs is not None else 1
        self.retry = retry

    @abc.abstractmethod
    def run(
        self,
        partitions: Sequence[Partition],
        fast: bool = True,
        max_blocks: Optional[int] = None,
    ) -> List[SweepRun]:
        """Execute every partition; returns runs in cell order (the
        partition order given, configs in order within each)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(jobs={self.jobs})"


@EXECUTORS.register("serial")
class SerialExecutor(Executor):
    """In-process, in-order execution — the reference executor."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(1, retry)  # always one job, whatever was asked

    def run(
        self,
        partitions: Sequence[Partition],
        fast: bool = True,
        max_blocks: Optional[int] = None,
    ) -> List[SweepRun]:
        runs: List[SweepRun] = []
        for partition in partitions:
            runs.extend(
                run_partition(partition.workload, partition.configs,
                              fast, max_blocks, self.retry)
            )
        return runs


def _shippable(partition: Partition) -> bool:
    """True when the partition can be sent to a worker process."""
    if isinstance(partition.workload, str):
        return True
    try:
        pickle.dumps(partition.workload)
        return True
    except Exception:
        return False


@EXECUTORS.register("parallel")
class ParallelExecutor(Executor):
    """Process-pool execution, one task per workload partition.

    ``jobs=None`` uses ``os.cpu_count()``.  Results are reassembled in
    partition order, so the output is identical to
    :class:`SerialExecutor` — parallelism changes wall-clock time only.

    Degradation ladder on a broken pool (a crashed/killed worker):
    rebuild the pool once and resubmit the unfinished partitions; if it
    breaks again, finish them serially in this process.  Both steps log
    a warning and count into :attr:`pool_rebuilds` /
    :attr:`serial_fallback`; neither changes any result.
    """

    #: Pool rebuilds attempted before degrading to serial execution.
    MAX_POOL_REBUILDS = 1

    def __init__(
        self,
        jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(jobs if jobs is not None else os.cpu_count() or 1,
                         retry)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        #: Cumulative count of pools rebuilt after worker crashes.
        self.pool_rebuilds = 0
        #: True once any partition had to fall back to serial execution.
        self.serial_fallback = False

    def _make_pool(self, workers: int) -> _ProcessPool:
        """Pool factory (separate so tests can substitute doubles)."""
        return _ProcessPool(max_workers=workers)

    def _run_local(
        self,
        partition: Partition,
        fast: bool,
        max_blocks: Optional[int],
    ) -> List[SweepRun]:
        return run_partition(partition.workload, partition.configs,
                             fast, max_blocks, self.retry)

    def run(
        self,
        partitions: Sequence[Partition],
        fast: bool = True,
        max_blocks: Optional[int] = None,
    ) -> List[SweepRun]:
        partitions = list(partitions)
        shippable = [i for i, p in enumerate(partitions) if _shippable(p)]
        workers = min(self.jobs, len(shippable))
        per_partition: List[Optional[List[SweepRun]]] = (
            [None] * len(partitions)
        )
        local = [i for i in range(len(partitions))
                 if i not in set(shippable)]
        if workers > 1:
            pending = list(shippable)
            rebuilds = 0
            first_pass = True
            while pending:
                pool = self._make_pool(min(workers, len(pending)))
                broken = False
                try:
                    futures = {
                        i: pool.submit(
                            run_partition, partitions[i].workload,
                            partitions[i].configs, fast,
                            max_blocks, self.retry,
                        )
                        for i in pending
                    }
                    if first_pass:
                        # Local (unpicklable) partitions overlap with
                        # the pool.
                        first_pass = False
                        for i in local:
                            per_partition[i] = self._run_local(
                                partitions[i], fast, max_blocks
                            )
                    for i in list(pending):
                        try:
                            per_partition[i] = futures[i].result()
                            pending.remove(i)
                        except BrokenExecutor:
                            broken = True
                            break  # the pool is dead; stop draining
                except BrokenExecutor:
                    broken = True  # pool died during submission
                except BaseException:
                    # KeyboardInterrupt (and anything else unexpected):
                    # kill outstanding work so no worker process leaks,
                    # then let the exception propagate.
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
                pool.shutdown(wait=not broken, cancel_futures=broken)
                if not pending:
                    break
                if not broken:  # pragma: no cover - defensive
                    continue
                rebuilds += 1
                if rebuilds > self.MAX_POOL_REBUILDS:
                    _log.warning(kv(
                        "executor.serial_fallback",
                        reason="pool_broke_after_rebuild",
                        pending_partitions=len(pending),
                    ))
                    self.serial_fallback = True
                    for i in list(pending):
                        per_partition[i] = self._run_local(
                            partitions[i], fast, max_blocks
                        )
                        pending.remove(i)
                    break
                self.pool_rebuilds += 1
                _log.warning(kv(
                    "executor.pool_rebuild",
                    reason="worker_died",
                    pending_partitions=len(pending),
                ))
        else:
            for i, partition in enumerate(partitions):
                per_partition[i] = self._run_local(
                    partition, fast, max_blocks
                )
        runs: List[SweepRun] = []
        for result in per_partition:
            runs.extend(result or [])
        return runs


def make_executor(
    name_or_executor: Union[str, Executor, None],
    jobs: Optional[int] = None,
    store: Union[str, bool, None] = None,
    retry: Optional[RetryPolicy] = None,
) -> Executor:
    """Resolve an executor argument: an instance passes through, a name
    is instantiated from the registry, ``None`` picks serial for one job
    and parallel otherwise.

    ``store`` selects the persistent result cache
    (:mod:`repro.store`): a directory path (or ``True``/``""`` for the
    default directory) wraps the chosen executor in the
    :class:`~repro.store.executor.CachingExecutor`; ``None`` consults
    ``$REPRO_STORE_DIR`` (the opt-in used by the E1-E15 benchmarks);
    ``False`` disables caching outright.

    ``retry`` is the :class:`~repro.faults.retry.RetryPolicy` failing
    cells run under (None = fail fast, the zero-cost default).  It
    applies to registry-built executors; an explicit instance keeps
    whatever policy it was constructed with.
    """
    # Late imports: repro.store.executor imports this module.
    from ..store.cas import resolve_store_dir
    from ..store.executor import CachingExecutor

    kwargs = {"jobs": jobs}
    if retry is not None:
        kwargs["retry"] = retry
    resolved = resolve_store_dir(store)
    if isinstance(name_or_executor, Executor):
        # An explicitly requested store still applies to instance
        # executors (it would be silently lost otherwise).
        if resolved is not None and not isinstance(
            name_or_executor, CachingExecutor
        ):
            return CachingExecutor(
                jobs=jobs, store=resolved, inner=name_or_executor
            )
        return name_or_executor
    if name_or_executor is None:
        name_or_executor = "parallel" if jobs and jobs > 1 else "serial"
    if name_or_executor == "caching":
        if store is False:
            # --no-cache wins over a spec that named the caching
            # executor: fall back to the plain equivalent.
            name_or_executor = (
                "parallel" if jobs and jobs > 1 else "serial"
            )
            return EXECUTORS.create(name_or_executor, **kwargs)
        return CachingExecutor(store=resolved, **kwargs)
    if resolved is not None:
        return CachingExecutor(
            store=resolved, inner=name_or_executor, **kwargs
        )
    return EXECUTORS.create(name_or_executor, **kwargs)
