"""``repro.store`` — persistent, content-addressed experiment store.

The paper's decompression hardware amortises a link-time-built model
across the whole program lifetime; this package does the same for the
experiment platform's own expensive artifacts.  Every (workload,
configuration) cell of an experiment grid gets a deterministic
**fingerprint** (:mod:`repro.store.fingerprint`); cell results and
compressed-image artifacts live in an on-disk **content-addressed
store** (:mod:`repro.store.cas`) with atomic writes that are safe under
concurrent access from multiple processes; and the
:class:`~repro.store.executor.CachingExecutor` (registered as
``"caching"`` in the executors registry) consults the store before
dispatching to the serial/parallel executors, so re-running a spec only
computes missing or changed cells and an interrupted sweep resumes
where it left off.

A cell record (:mod:`repro.store.records`, version 3) keeps a run's
footprint timeline as two flat int lists, ``[cycles, footprints]``,
rather than one ``[cycle, footprint]`` row per fill and release.  The
timeline is most of a record's bytes, and a warm sweep is mostly
reading records: columns decode to two lists that are type-checked in
one pass and adopted as they are.  A record of any other version is a
miss, recomputed and rewritten.

Layering: this package sits between the sweep
(:mod:`repro.analysis.sweep`) and the API facade (:mod:`repro.api`).
Only :mod:`repro.store.executor` may import from :mod:`repro.api`;
everything else here depends only on the core/runtime layers, so the
facade can import the store without a cycle.

Invalidation rules — a cell fingerprint changes (and the cached record
is therefore ignored) whenever any of these change:

* any semantic source file of the simulator (``cfg``, ``compress``,
  ``core``, ``isa``, ``memory``, ``runtime``, ``selection``,
  ``strategies``, ``workloads``, or ``analysis/sweep.py``) — hashed
  into :func:`~repro.store.fingerprint.code_version`;
* the workload's program bytes (covers generated/synthetic programs);
* any :class:`~repro.core.config.SimulationConfig` field (the offline
  edge profile hashes by content);
* the ``fast`` flag or ``max_blocks``;
* the registered component catalog (a newly registered codec/strategy
  changes behaviour without changing repo sources);
* the ``REPRO_STORE_SALT`` environment variable (manual invalidation).
"""

from __future__ import annotations

from .cas import (
    DEFAULT_STORE_DIR,
    STORE_FORMAT_VERSION,
    ExperimentStore,
    StoreError,
    resolve_store_dir,
)
from .fingerprint import (
    canonical_dumps,
    cell_fingerprint,
    code_version,
    config_signature,
    workload_digest,
)
from .records import record_to_run, run_to_record

__all__ = [
    "CachingExecutor",
    "DEFAULT_STORE_DIR",
    "ExperimentStore",
    "STORE_FORMAT_VERSION",
    "StoreError",
    "canonical_dumps",
    "cell_fingerprint",
    "code_version",
    "config_signature",
    "record_to_run",
    "resolve_store_dir",
    "run_to_record",
    "workload_digest",
]


def __getattr__(name: str):
    # CachingExecutor lives behind a lazy import: repro.store.executor
    # imports repro.api.executor, and importing it eagerly here would
    # close an import cycle through the api package.
    if name == "CachingExecutor":
        from .executor import CachingExecutor

        return CachingExecutor
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
