"""The cache-aware executor: consult the store, compute only the gaps.

:class:`CachingExecutor` (registered as ``"caching"``) sits between the
api facade and the Serial/Parallel executors.  For every cell of the
expanded grid it computes the canonical fingerprint, serves hits from
the :class:`~repro.store.cas.ExperimentStore`, groups the misses back
into workload-major partitions (preserving the trace-replay and
shared-artifact fast paths within each partition), dispatches only
those to the wrapped executor, and writes the fresh results back.  The
reassembled run list is in the exact cell order an uncached executor
would produce, so a fully- or partially-cached run is byte-identical
to a cold one — and a re-run of an interrupted sweep only computes the
cells that never landed.

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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.sweep import SweepRun, effective_config
from ..api.executor import EXECUTORS, Executor, Partition, make_executor
from ..log import kv
from ..memory.image import set_artifact_provider
from ..obs.spans import span, span_event
from ..registry import catalog_signature
from ..workloads.suite import get_workload
from .cas import ExperimentStore, StoreError, resolve_store_dir
from .fingerprint import cell_fingerprint, workload_digest
from .records import is_cacheable, record_to_run, run_to_record

_log = logging.getLogger("repro.store.executor")

#: Environment variable carrying the artifact-store directory into
#: worker processes (installed below at import time).
ARTIFACTS_ENV = "REPRO_STORE_ARTIFACTS"


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
    from a fresh run.  This is the single planning path shared by the
    :class:`CachingExecutor` and the sweep service's job runner, so
    both sides of a cache handoff always agree on the key.
    """
    if catalog is None:
        catalog = catalog_signature()
    rows: List[List[Tuple[str, object]]] = []
    for partition in partitions:
        workload = partition.workload
        if isinstance(workload, str):
            workload = get_workload(workload)
        workload_id = workload_digest(workload)  # once per program
        row: List[Tuple[str, object]] = []
        for config in partition.configs:
            cell_config = effective_config(config, fast)
            row.append((
                cell_fingerprint(
                    workload, cell_config, fast=fast,
                    max_blocks=max_blocks,
                    workload_id=workload_id, catalog=catalog,
                ),
                cell_config,
            ))
        rows.append(row)
    return rows


@contextlib.contextmanager
def artifact_scope(store: ExperimentStore):
    """Expose ``store`` as the compressed-image artifact provider.

    Installed in this process and advertised to (forked) worker
    processes through ``$REPRO_STORE_ARTIFACTS``; both are restored on
    exit so caching stays scoped to the caller.
    """
    previous_env = os.environ.get(ARTIFACTS_ENV)
    previous_provider = set_artifact_provider(
        StoreArtifactProvider(store)
    )
    os.environ[ARTIFACTS_ENV] = store.root
    try:
        yield
    finally:
        set_artifact_provider(previous_provider)
        if previous_env is None:
            os.environ.pop(ARTIFACTS_ENV, None)
        else:
            os.environ[ARTIFACTS_ENV] = previous_env


@EXECUTORS.register("caching")
class CachingExecutor(Executor):
    """Store-backed executor wrapper (see module docstring).

    ``store`` is an :class:`ExperimentStore`, a directory path, or None
    (resolve ``$REPRO_STORE_DIR``, falling back to the default
    directory).  ``inner`` names the wrapped executor — default serial
    for one job, parallel otherwise.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Union[ExperimentStore, str, None] = None,
        inner: Union[str, Executor, None] = None,
        retry=None,
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
        fingerprints: List[List[str]] = []
        cached: List[List[Optional[SweepRun]]] = []
        with span("store.lookup", cat="store",
                  cells=sum(len(row) for row in plan)):
            for row in plan:
                row_fps: List[str] = []
                row_runs: List[Optional[SweepRun]] = []
                for fingerprint, cell_config in row:
                    row_fps.append(fingerprint)
                    record = self.store.get_cell(fingerprint)
                    run: Optional[SweepRun] = None
                    if record is not None:
                        try:
                            run = record_to_run(record, cell_config)
                        except StoreError:
                            run = None  # stale/corrupt record: recompute
                    span_event(
                        "store.hit" if run is not None
                        else "store.miss",
                        cat="store", fingerprint=fingerprint[:12],
                    )
                    row_runs.append(run)
                fingerprints.append(row_fps)
                cached.append(row_runs)

        # Misses, regrouped into workload-major partitions so the
        # trace-replay and shared-artifact fast paths still apply.
        missing: List[Tuple[Partition, List[str]]] = []
        for partition, row_fps, row_runs in zip(
            partitions, fingerprints, cached
        ):
            configs: List = []
            fps: List[str] = []
            for config, fingerprint, run in zip(
                partition.configs, row_fps, row_runs
            ):
                if run is None:
                    configs.append(config)
                    fps.append(fingerprint)
            if configs:
                missing.append((
                    Partition(workload=partition.workload,
                              configs=configs),
                    fps,
                ))

        computed_by_fp: Dict[str, SweepRun] = {}
        puts = 0
        if missing:
            with self._artifact_store_scope(), span(
                "store.compute", cat="store",
                cells=sum(len(fps) for _, fps in missing),
            ):
                if self.inner.jobs <= 1 and len(missing) > 1:
                    # Serial inner: dispatch partition by partition and
                    # persist each as it completes, so an interrupted
                    # sweep keeps every finished partition and resumes
                    # from there.  (A parallel inner needs the whole
                    # list in one call to fan out across workloads;
                    # there, the persistence boundary is the dispatch.)
                    for partition, fps in missing:
                        part_runs = self.inner.run(
                            [partition], fast=fast, max_blocks=max_blocks,
                        )
                        puts += self._record_results(
                            fps, part_runs, computed_by_fp
                        )
                else:
                    flat = self.inner.run(
                        [partition for partition, _ in missing],
                        fast=fast, max_blocks=max_blocks,
                    )
                    cursor = 0
                    for _, fps in missing:
                        part_runs = flat[cursor:cursor + len(fps)]
                        cursor += len(fps)
                        puts += self._record_results(
                            fps, part_runs, computed_by_fp
                        )

        runs: List[SweepRun] = []
        hits = misses = 0
        for row_fps, row_runs in zip(fingerprints, cached):
            for fingerprint, cached_run in zip(row_fps, row_runs):
                if cached_run is not None:
                    hits += 1
                    runs.append(cached_run)
                else:
                    misses += 1
                    runs.append(computed_by_fp[fingerprint])
        self.hits += hits
        self.misses += misses
        self.store.add_usage(hits=hits, misses=misses, puts=puts)
        return runs

    def _record_results(
        self,
        fps: Sequence[str],
        part_runs: Sequence[SweepRun],
        computed_by_fp: Dict[str, SweepRun],
    ) -> int:
        """Persist one partition's fresh results; returns puts made."""
        puts = 0
        for fingerprint, run in zip(fps, part_runs):
            computed_by_fp[fingerprint] = run
            if is_cacheable(run):
                self.store.put_cell(
                    fingerprint, run_to_record(run, fingerprint)
                )
                puts += 1
        return puts

    def _artifact_store_scope(self):
        """Artifact sharing while the inner executor runs."""
        return artifact_scope(self.store)

    def __repr__(self) -> str:
        return (
            f"CachingExecutor(store={self.store.root!r}, "
            f"inner={self.inner!r})"
        )
