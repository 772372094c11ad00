"""The cache-aware executor: the one store-backed cell loop.

:class:`CachingExecutor` (registered as ``"caching"``) sits between the
api facade and the Serial/Parallel executors; sweep-service jobs run
through it too.  For every cell of the expanded grid it computes the
canonical fingerprint, claims the cell, reads it from the
:class:`~repro.store.cas.ExperimentStore`, groups the misses back into
workload-major partitions (preserving the trace-replay and
shared-artifact fast paths within each partition), dispatches only
those to the wrapped executor, and writes the fresh results back.  The
reassembled run list is in the exact cell order an uncached executor
would produce, so a fully- or partially-cached run is byte-identical
to a cold one — and a re-run of an interrupted sweep only computes the
cells that never landed.

Concurrent runs in one process compute each cell at most once, through
a process-wide *claim map* keyed by (store root, fingerprint):

* a run claims a cell before it reads it; a hit releases the claim at
  once, a miss holds it until the fresh record is stored;
* a cell another run has claimed is waited for (at most
  :data:`CELL_WAIT_TIMEOUT_S`) and then read once — a claimant always
  stores before it releases, so that read finds every cell the
  claimant stored, and the cell is served as ``shared``;
* a waiter whose claimant stored nothing (an error row, or the
  claimant raised) computes the cell itself.

Across processes the CAS write keeps racing writers safe.  ``on_cell``
sees every cell once: the hits in cell order, then each computed
partition as it lands, then the shared cells.

While the inner executor runs, the store is also exposed as the
persistent *artifact* provider (both in-process and, through the
``REPRO_STORE_ARTIFACTS`` environment variable, to worker processes
forked by the parallel executor), so compressed-image payloads built by
any process are reused by every later one.
"""

from __future__ import annotations

import contextlib
import logging
import os
import threading
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.sweep import SweepRun, effective_config
from ..api.executor import EXECUTORS, Executor, Partition, make_executor
from ..log import kv
from ..memory.image import set_artifact_provider
from ..obs.spans import span, span_event
from ..registry import catalog_signature
from ..workloads.suite import get_workload
from .cas import ExperimentStore, StoreError, resolve_store_dir
from .fingerprint import cell_fingerprint, config_signature, workload_digest
from .records import is_cacheable, record_to_run, run_to_record

_log = logging.getLogger("repro.store.executor")

#: Environment variable carrying the artifact-store directory into
#: worker processes (installed below at import time).
ARTIFACTS_ENV = "REPRO_STORE_ARTIFACTS"

#: How long a run waits on another run's claim before computing the
#: cell itself (the claimant may be wedged).
CELL_WAIT_TIMEOUT_S = 300.0

#: In-flight cells of this process: (store root, fingerprint) -> the
#: event the claimant sets when it releases the claim.
_CLAIMS: Dict[Tuple[str, str], threading.Event] = {}
_CLAIMS_LOCK = threading.Lock()

def _claim(key: Tuple[str, str]) -> Optional[threading.Event]:
    """Claim ``key``: None when granted, else the holder's event."""
    with _CLAIMS_LOCK:
        event = _CLAIMS.get(key)
        if event is None:
            _CLAIMS[key] = threading.Event()
        return event


def _release(key: Tuple[str, str]) -> None:
    with _CLAIMS_LOCK:
        event = _CLAIMS.pop(key, None)
    if event is not None:
        event.set()


class StoreArtifactProvider:
    """Adapts an :class:`ExperimentStore` to the
    :func:`~repro.memory.image.set_artifact_provider` protocol."""

    def __init__(self, store: ExperimentStore) -> None:
        self.store = store

    def load(
        self, codec_name: str, block_data: Sequence[bytes]
    ) -> Optional[List[bytes]]:
        return self.store.get_artifact_bundle(codec_name, block_data)

    def save(
        self,
        codec_name: str,
        block_data: Sequence[bytes],
        payloads: Sequence[bytes],
    ) -> None:
        self.store.put_artifact_bundle(codec_name, block_data, payloads)


def _install_env_provider() -> None:
    """Install the artifact provider named by ``$REPRO_STORE_ARTIFACTS``.

    Worker processes import this module while unpickling
    ``run_partition``, which makes artifact reuse reach into the
    process pool without any explicit plumbing.
    """
    root = os.environ.get(ARTIFACTS_ENV)
    if not root:
        return
    try:
        set_artifact_provider(StoreArtifactProvider(
            ExperimentStore(root)
        ))
    except (StoreError, OSError) as exc:
        # A broken env var must never kill a worker; it just runs
        # without artifact reuse.  Say so in a parseable line.
        _log.warning(kv(
            "store.artifact_provider_skipped",
            store=root, error=str(exc),
        ))


_install_env_provider()


def plan_cells(
    partitions: Sequence[Partition],
    fast: bool = True,
    max_blocks: Optional[int] = None,
    catalog: Optional[str] = None,
) -> List[List[Tuple[str, object]]]:
    """Fingerprint every cell of ``partitions``.

    Returns one row per partition, each a list of ``(fingerprint,
    cell_config)`` pairs in config order, where ``cell_config`` is the
    sweep's *effective* config (fast overrides applied) — the config a
    cached record must be reattached to so a hit is indistinguishable
    from a fresh run.  Each distinct config object gets its effective
    config and signature once per call (partitions share config
    objects across workloads); the memo is keyed by identity and keeps
    the config alive, because a config carrying an edge profile is
    unhashable.
    """
    if catalog is None:
        catalog = catalog_signature()
    # id(config) -> (config, its effective config, that one's signature)
    planned: Dict[int, tuple] = {}
    rows: List[List[Tuple[str, object]]] = []
    for partition in partitions:
        workload = partition.workload
        if isinstance(workload, str):
            workload = get_workload(workload)
        workload_id = workload_digest(workload)  # once per program
        row: List[Tuple[str, object]] = []
        for config in partition.configs:
            entry = planned.get(id(config))
            if entry is None:
                cell_config = effective_config(config, fast)
                entry = planned[id(config)] = (
                    config, cell_config, config_signature(cell_config)
                )
            _, cell_config, signature = entry
            row.append((
                cell_fingerprint(
                    workload, cell_config, fast=fast,
                    max_blocks=max_blocks, workload_id=workload_id,
                    catalog=catalog, signature=signature,
                ),
                cell_config,
            ))
        rows.append(row)
    return rows


#: Open artifact scopes, oldest first, as (provider, store root), and
#: the provider and variable in effect before the first one opened.
_SCOPES: List[Tuple[StoreArtifactProvider, str]] = []
_SCOPES_LOCK = threading.Lock()
_OUTSIDE_SCOPES: list = [None, None]


@contextlib.contextmanager
def artifact_scope(store: ExperimentStore):
    """Expose ``store`` as the compressed-image artifact provider.

    Installed in this process and advertised to (forked) worker
    processes through ``$REPRO_STORE_ARTIFACTS``.  Scopes of concurrent
    runs may close out of order: the most recently entered open scope's
    store is installed, and the state before the first is restored
    once none is open, so caching stays scoped to the callers.
    """
    scope = (StoreArtifactProvider(store), store.root)
    with _SCOPES_LOCK:
        previous = set_artifact_provider(scope[0])
        if not _SCOPES:
            _OUTSIDE_SCOPES[:] = [previous, os.environ.get(ARTIFACTS_ENV)]
        _SCOPES.append(scope)
        os.environ[ARTIFACTS_ENV] = store.root
    try:
        yield
    finally:
        with _SCOPES_LOCK:
            _SCOPES.remove(scope)
            provider, root = _SCOPES[-1] if _SCOPES else _OUTSIDE_SCOPES
            set_artifact_provider(provider)
            if root is None:
                os.environ.pop(ARTIFACTS_ENV, None)
            else:
                os.environ[ARTIFACTS_ENV] = root


class _Cell:
    """One grid cell on its way through :meth:`CachingExecutor.run`."""

    __slots__ = ("index", "partition", "config", "fingerprint",
                 "cell_config", "key", "claimed", "run", "source")

    def __init__(self, index: int, partition: Partition, config,
                 fingerprint: str, cell_config, root: str) -> None:
        self.index = index
        self.partition = partition
        self.config = config
        self.fingerprint = fingerprint
        self.cell_config = cell_config
        self.key = (root, fingerprint)
        self.claimed = False
        self.run: Optional[SweepRun] = None
        self.source: Optional[str] = None

    def release(self) -> None:
        """Give up this cell's claim, if it holds one."""
        if self.claimed:
            self.claimed = False
            _release(self.key)


@EXECUTORS.register("caching")
class CachingExecutor(Executor):
    """Store-backed executor wrapper (see module docstring).

    ``store`` is an :class:`ExperimentStore`, a directory path, or None
    (resolve ``$REPRO_STORE_DIR``, falling back to the default
    directory).  ``inner`` names the wrapped executor — default serial
    for one job, parallel otherwise.  ``on_cell(cell, workload, label,
    source, run)`` is called once per cell, ``source`` being
    ``"cache"``, ``"computed"`` or ``"shared"``; the sweep service
    streams its progress events from it.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Union[ExperimentStore, str, None] = None,
        inner: Union[str, Executor, None] = None,
        retry=None,
        on_cell: Optional[
            Callable[[int, str, str, str, SweepRun], None]
        ] = None,
    ) -> None:
        super().__init__(jobs, retry)
        if isinstance(store, ExperimentStore):
            self.store = store
        else:
            self.store = ExperimentStore(resolve_store_dir(store))
        if inner is None:
            inner = "parallel" if (jobs or 1) > 1 else "serial"
        self.inner = (
            inner if isinstance(inner, Executor)
            else make_executor(inner, jobs=jobs, store=False,
                               retry=retry)
        )
        if isinstance(self.inner, CachingExecutor):
            raise ValueError(
                "the caching executor cannot wrap another caching "
                "executor"
            )
        self.jobs = self.inner.jobs
        self.on_cell = on_cell
        #: Session counters for the most recent lifetime of this
        #: executor (the persistent totals live in the store itself).
        self.hits = 0
        self.misses = 0

    def run(
        self,
        partitions: Sequence[Partition],
        fast: bool = True,
        max_blocks: Optional[int] = None,
    ) -> List[SweepRun]:
        partitions = list(partitions)
        with span("store.plan", cat="store",
                  partitions=len(partitions)):
            plan = plan_cells(partitions, fast=fast,
                              max_blocks=max_blocks)
        root = os.path.abspath(self.store.root)
        cells: List[_Cell] = []
        missing: List[Tuple[Partition, List[_Cell]]] = []
        waiting: List[Tuple[_Cell, threading.Event]] = []
        puts = 0
        try:
            with span("store.lookup", cat="store",
                      cells=sum(len(row) for row in plan)):
                for partition, row in zip(partitions, plan):
                    misses: List[_Cell] = []
                    for config, (fingerprint, cell_config) in zip(
                        partition.configs, row
                    ):
                        cell = _Cell(len(cells), partition, config,
                                     fingerprint, cell_config, root)
                        cells.append(cell)
                        event = _claim(cell.key)
                        if event is not None:
                            waiting.append((cell, event))
                            continue
                        cell.claimed = True  # held until its record lands
                        cell.run = self._read(cell)
                        if cell.run is None:
                            misses.append(cell)
                        else:
                            cell.release()
                    if misses:
                        missing.append((
                            Partition(workload=partition.workload,
                                      configs=[c.config for c in misses]),
                            misses,
                        ))
            for cell in cells:
                if cell.run is not None:
                    self._emit(cell, "cache")

            if missing:
                puts += self._compute(missing, fast, max_blocks)
            for cell, event in waiting:
                event.wait(CELL_WAIT_TIMEOUT_S)
                cell.run = self._read(cell)
                if cell.run is not None:
                    self._emit(cell, "shared")
                    continue
                # The claimant stored nothing: compute it here.
                puts += self._compute([(
                    Partition(workload=cell.partition.workload,
                              configs=[cell.config]),
                    [cell],
                )], fast, max_blocks)
        finally:
            for cell in cells:
                cell.release()

        # Shared cells were computed by another run but served to this
        # one from the store: hits from this run's perspective.
        computed = sum(cell.source == "computed" for cell in cells)
        hits = len(cells) - computed
        self.hits += hits
        self.misses += computed
        self.store.add_usage(hits=hits, misses=computed, puts=puts)
        return [cell.run for cell in cells]

    def _read(self, cell: _Cell) -> Optional[SweepRun]:
        """The cell's stored run; None on a miss or an undecodable
        (stale or corrupt) record, which is recomputed like a miss."""
        record = self.store.get_cell(cell.fingerprint)
        run: Optional[SweepRun] = None
        if record is not None:
            try:
                run = record_to_run(
                    record, cell.cell_config, cell.fingerprint
                )
            except StoreError:
                run = None
        span_event("store.hit" if run is not None else "store.miss",
                   cat="store", fingerprint=cell.fingerprint[:12])
        return run

    def _compute(
        self,
        missing: Sequence[Tuple[Partition, List[_Cell]]],
        fast: bool,
        max_blocks: Optional[int],
    ) -> int:
        """Compute the missing cells, partition by partition, and store
        them; returns the puts made."""
        with artifact_scope(self.store), span(
            "store.compute", cat="store",
            cells=sum(len(cells) for _, cells in missing),
        ):
            if self.inner.jobs <= 1:
                # Serial inner: dispatch partition by partition and
                # persist each as it completes, so an interrupted sweep
                # keeps every finished partition and resumes from
                # there.  (A parallel inner needs the whole list in one
                # call to fan out across workloads; there, the
                # persistence boundary is the dispatch.)
                return sum(
                    self._store_computed(cells, self.inner.run(
                        [partition], fast=fast, max_blocks=max_blocks,
                    ))
                    for partition, cells in missing
                )
            runs = iter(self.inner.run(
                [partition for partition, _ in missing],
                fast=fast, max_blocks=max_blocks,
            ))
            return sum(
                self._store_computed(cells, islice(runs, len(cells)))
                for _, cells in missing
            )

    def _store_computed(self, cells: Sequence[_Cell], runs) -> int:
        """Persist fresh results, releasing each claim only after its
        put (a waiter woken by the release must find the record);
        returns the puts made."""
        puts = 0
        for cell, run in zip(cells, runs):
            if is_cacheable(run):
                self.store.put_cell(
                    cell.fingerprint, run_to_record(run, cell.fingerprint)
                )
                puts += 1
            cell.release()
            cell.run = run
            self._emit(cell, "computed")
        return puts

    def _emit(self, cell: _Cell, source: str) -> None:
        cell.source = source
        if self.on_cell is not None:
            self.on_cell(cell.index, cell.partition.workload_name,
                         cell.cell_config.strategy_name, source, cell.run)

    def __repr__(self) -> str:
        return (
            f"CachingExecutor(store={self.store.root!r}, "
            f"inner={self.inner!r})"
        )
