"""The on-disk content-addressed store.

Layout under the store root (default ``~/.cache/repro-store``, or
``$REPRO_STORE_DIR``, or any ``--store DIR``)::

    format.json              # {"format": 1} store marker + version
    objects/ab/abcd...       # content-addressed blobs (sha256-named)
    cells/ab/<fingerprint>   # tiny ref file: the blob digest of the
                             # cell's canonical-JSON result record
    artifacts/ab/<key>       # ref file: blob digest of a pickled
                             # compressed-payload bundle
    jobs/ab/<key>            # ref file: blob digest of a completed
                             # service job's canonical result JSON
    stats.json               # cumulative hit/miss/put counters
    stats.lock               # flock target guarding stats.json

Concurrency model — safe for many processes sharing one store:

* blobs are content-addressed, so two processes racing to write the
  same blob write identical bytes; each write goes to a unique temp
  file and lands with an atomic :func:`os.replace`;
* cell/artifact refs for the same fingerprint always hold the same
  digest (results are deterministic), so the same replace-wins race is
  harmless;
* the mutable ``stats.json`` is the only read-modify-write file and is
  guarded by ``flock`` on ``stats.lock`` (best-effort: a read-only or
  lock-less filesystem degrades to in-memory counters, never an error);
* readers treat any missing/corrupt file as a cache miss, so a reader
  can never crash on a half-visible write.

Integrity: every blob read is checksummed end-to-end against its
content address; a mismatch is logged once, counted (the
``corrupt_misses`` stat), and served as a miss — never silently and
never a crash.  :meth:`ExperimentStore.verify` is the offline fsck
(``repro.cli store verify [--repair]``): it quarantines corrupt blobs
and prunes dangling refs so the next sweep recomputes exactly the
damaged cells.  The ``cas.read``/``cas.write`` fault-injection sites
(:mod:`repro.faults`) let the chaos suite exercise all of this
deterministically.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..faults.runtime import corrupt_bytes, maybe_fire, truncate_bytes
from ..log import kv
from .fingerprint import canonical_dumps, code_version

_log = logging.getLogger("repro.store")

#: Usage counters tracked in ``stats.json``.
_USAGE_KEYS = ("hits", "misses", "puts", "corrupt_misses")

#: Bumped on any backwards-incompatible change to the on-disk layout.
STORE_FORMAT_VERSION = 1

#: Where the store lives when nothing more specific is configured.
DEFAULT_STORE_DIR = os.path.join(
    os.path.expanduser("~"), ".cache", "repro-store"
)

#: Environment variable naming the store directory (opt-in cache reuse
#: for anything built on the api facade, including the E1-E15
#: benchmarks: ``REPRO_STORE_DIR=dir pytest benchmarks/``).
STORE_DIR_ENV = "REPRO_STORE_DIR"


class StoreError(RuntimeError):
    """Raised for invalid store operations (bad root, format skew)."""


def resolve_store_dir(
    store: Union[str, os.PathLike, bool, None],
) -> Optional[str]:
    """Resolve a store argument to a directory path or None (disabled).

    ``False`` disables caching outright; ``None`` consults
    ``$REPRO_STORE_DIR`` (unset means disabled); ``True`` or ``""``
    selects the default directory; anything else is used as the path.
    """
    if store is False:
        return None
    if store is None:
        env = os.environ.get(STORE_DIR_ENV, "")
        return env or None
    if store is True or store == "":
        return DEFAULT_STORE_DIR
    return os.fspath(store)


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a unique temp file + atomic rename.

    The ``cas.write`` fault site fires here (chaos only): ``torn``
    lands truncated content (still atomically — the damage surfaces at
    checksum time, like a real torn page would); ``crash`` kills the
    process mid-write, leaving a ``.tmp`` orphan and no visible ref —
    exactly the wreckage gc and ``store verify`` must tolerate.
    """
    kind = maybe_fire("cas.write", os.path.basename(path))
    if kind == "torn":
        data = truncate_bytes(data)
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            if kind == "crash":
                handle.write(data[: len(data) // 2])
                handle.flush()
                os._exit(70)  # died mid-write: orphan .tmp, no rename
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ExperimentStore:
    """A persistent content-addressed store for experiment results.

    ``root=None`` resolves through :func:`resolve_store_dir` and falls
    back to :data:`DEFAULT_STORE_DIR`.  The constructor creates the
    directory tree and the ``format.json`` marker; an existing marker
    with a different format version is refused loudly.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike, None] = None,
        create: bool = True,
    ) -> None:
        resolved = resolve_store_dir(root)
        self.root = resolved if resolved is not None else DEFAULT_STORE_DIR
        marker = os.path.join(self.root, "format.json")
        if create:
            os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)
            os.makedirs(os.path.join(self.root, "cells"), exist_ok=True)
            os.makedirs(os.path.join(self.root, "artifacts"),
                        exist_ok=True)
            os.makedirs(os.path.join(self.root, "jobs"), exist_ok=True)
        if os.path.exists(marker):
            try:
                with open(marker, "r", encoding="utf-8") as handle:
                    found = json.load(handle).get("format")
            except (OSError, ValueError):
                found = None
            if found != STORE_FORMAT_VERSION:
                raise StoreError(
                    f"store at {self.root} has format {found!r}; this "
                    f"build reads format {STORE_FORMAT_VERSION}"
                )
        elif create:
            _atomic_write(
                marker,
                (canonical_dumps({"format": STORE_FORMAT_VERSION})
                 + "\n").encode("utf-8"),
            )
        else:
            # Inspection mode (create=False) refuses paths without the
            # marker, so a mistyped --store can neither spawn an empty
            # store nor misreport an unrelated directory as one.
            raise StoreError(f"no experiment store at {self.root}")
        #: Corrupt blobs this instance served as misses (the persistent
        #: total accumulates into the ``corrupt_misses`` stat).
        self.corrupt_misses = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _fan_path(self, kind: str, name: str) -> str:
        return os.path.join(self.root, kind, name[:2], name)

    def _marker_path(self) -> str:
        return os.path.join(self.root, "format.json")

    # ------------------------------------------------------------------
    # Blobs
    # ------------------------------------------------------------------

    def put_blob(self, data: bytes) -> str:
        """Store ``data`` content-addressed; returns its digest."""
        digest = hashlib.sha256(data).hexdigest()
        path = self._fan_path("objects", digest)
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _atomic_write(path, data)
        return digest

    def get_blob(self, digest: str) -> Optional[bytes]:
        """The blob bytes, or None when absent or corrupt.

        Every read is validated end-to-end against the content address;
        a mismatch (bit rot, a torn write that somehow landed, or an
        injected ``cas.read`` fault) is logged, counted into the
        ``corrupt_misses`` stat, and served as a miss — the caller
        recomputes, never crashes, and never consumes damaged data.
        """
        try:
            with open(self._fan_path("objects", digest), "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        kind = maybe_fire("cas.read", digest)
        if kind == "corrupt":
            data = corrupt_bytes(data)
        elif kind == "torn":
            data = truncate_bytes(data)
        if hashlib.sha256(data).hexdigest() != digest:
            self._note_corrupt_blob(digest)
            return None
        return data

    def _note_corrupt_blob(self, digest: str) -> None:
        self.corrupt_misses += 1
        self.add_usage(corrupt_misses=1)
        _log.warning(kv(
            "store.corrupt_blob",
            store=self.root,
            blob=digest[:12],
            action="miss",
            hint="repro.cli store verify --repair",
        ))

    def _put_ref(self, kind: str, name: str, digest: str) -> None:
        path = self._fan_path(kind, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _atomic_write(path, (digest + "\n").encode("ascii"))

    def _get_ref_blob(self, kind: str, name: str) -> Optional[bytes]:
        try:
            with open(self._fan_path(kind, name), "r",
                      encoding="ascii") as handle:
                digest = handle.read().strip()
        except (OSError, UnicodeDecodeError):
            return None
        if not digest:
            return None
        # get_blob checksums the content against the address, so a
        # corrupt blob is a (counted, logged) miss, never a crash.
        return self.get_blob(digest)

    # ------------------------------------------------------------------
    # Cell records
    # ------------------------------------------------------------------

    def put_cell(self, fingerprint: str, record: Dict[str, Any]) -> str:
        """Store a cell result record; returns the blob digest.

        Identical records (e.g. the same cell computed by two racing
        processes) deduplicate onto one blob.
        """
        data = (canonical_dumps(record) + "\n").encode("utf-8")
        digest = self.put_blob(data)
        self._put_ref("cells", fingerprint, digest)
        return digest

    def get_cell(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored record for ``fingerprint``, or None (a miss)."""
        data = self._get_ref_blob("cells", fingerprint)
        if data is None:
            return None
        try:
            record = json.loads(data)
        except ValueError:
            return None
        return record if isinstance(record, dict) else None

    def has_cell(self, fingerprint: str) -> bool:
        """True when a record exists for ``fingerprint``."""
        return os.path.exists(self._fan_path("cells", fingerprint))

    # ------------------------------------------------------------------
    # Job results (whole-experiment records, used by repro.service)
    # ------------------------------------------------------------------

    def put_job_result(self, key: str, data: Union[str, bytes]) -> str:
        """Store one completed job's canonical result under ``key``.

        ``key`` is the service's job fingerprint (spec + code version +
        catalog); identical jobs deduplicate onto one blob, so a spec
        submitted twice is served back byte-identically without
        touching a single cell.  Returns the blob digest.
        """
        if isinstance(data, str):
            data = data.encode("utf-8")
        digest = self.put_blob(data)
        self._put_ref("jobs", key, digest)
        return digest

    def get_job_result(self, key: str) -> Optional[bytes]:
        """The stored result bytes for job ``key``, or None (a miss)."""
        return self._get_ref_blob("jobs", key)

    # ------------------------------------------------------------------
    # Compressed-image artifact bundles
    # ------------------------------------------------------------------

    def artifact_key(
        self, codec_name: str, block_data: Sequence[bytes]
    ) -> str:
        """Content key of one (program bytes, codec) artifact bundle.

        One SHA-256 stream: a canonical JSON header, then every block's
        bytes.  A JSON object ends where its braces balance, and the
        header lists the block lengths, so two images hash distinct
        streams even when their blocks join to the same bytes.
        """
        header = {
            "kind": "artifact",
            "code": code_version(),
            "salt": os.environ.get("REPRO_STORE_SALT", ""),
            "codec": codec_name,
            "lengths": [len(data) for data in block_data],
        }
        hasher = hashlib.sha256(canonical_dumps(header).encode("utf-8"))
        hasher.update(b"".join(block_data))
        return hasher.hexdigest()

    def put_artifact_bundle(
        self,
        codec_name: str,
        block_data: Sequence[bytes],
        payloads: Sequence[bytes],
    ) -> str:
        """Persist the compressed payloads of one code image.

        Returns the artifact key.  Payload order is block-id order, the
        same order :func:`~repro.memory.image.compression_artifacts`
        produces.
        """
        key = self.artifact_key(codec_name, block_data)
        blob = pickle.dumps(list(payloads), protocol=4)
        digest = self.put_blob(blob)
        self._put_ref("artifacts", key, digest)
        return key

    def get_artifact_bundle(
        self, codec_name: str, block_data: Sequence[bytes]
    ) -> Optional[List[bytes]]:
        """The stored payload list for this image, or None (a miss)."""
        key = self.artifact_key(codec_name, block_data)
        blob = self._get_ref_blob("artifacts", key)
        if blob is None:
            return None
        try:
            payloads = pickle.loads(blob)
        except Exception:
            return None
        if (
            not isinstance(payloads, list)
            or len(payloads) != len(block_data)
            or not all(isinstance(p, bytes) for p in payloads)
        ):
            return None
        return payloads

    # ------------------------------------------------------------------
    # Usage counters
    # ------------------------------------------------------------------

    def add_usage(self, hits: int = 0, misses: int = 0,
                  puts: int = 0, corrupt_misses: int = 0) -> None:
        """Accumulate usage counters into ``stats.json``.

        Best-effort: lock or write failures degrade silently (the store
        must keep working on read-only media).
        """
        if not (hits or misses or puts or corrupt_misses):
            return
        lock_path = os.path.join(self.root, "stats.lock")
        stats_path = os.path.join(self.root, "stats.json")
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            return
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            current = dict.fromkeys(_USAGE_KEYS, 0)
            try:
                with open(stats_path, "r", encoding="utf-8") as handle:
                    loaded = json.load(handle)
                if isinstance(loaded, dict):
                    current.update({
                        k: int(loaded.get(k, 0)) for k in _USAGE_KEYS
                    })
            except (OSError, ValueError, TypeError):
                pass
            current["hits"] += hits
            current["misses"] += misses
            current["puts"] += puts
            current["corrupt_misses"] += corrupt_misses
            _atomic_write(
                stats_path,
                (canonical_dumps(current) + "\n").encode("utf-8"),
            )
        except OSError:
            pass
        finally:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:
                    pass
            os.close(fd)

    # ------------------------------------------------------------------
    # Inventory / maintenance
    # ------------------------------------------------------------------

    def _walk_refs(self, kind: str):
        base = os.path.join(self.root, kind)
        if not os.path.isdir(base):
            return
        for fan in sorted(os.listdir(base)):
            fan_dir = os.path.join(base, fan)
            if not os.path.isdir(fan_dir):
                continue
            for name in sorted(os.listdir(fan_dir)):
                if name.endswith(".tmp"):
                    continue
                yield os.path.join(fan_dir, name)

    def stats(self) -> Dict[str, Any]:
        """Inventory + cumulative usage counters."""
        cells = sum(1 for _ in self._walk_refs("cells"))
        artifacts = sum(1 for _ in self._walk_refs("artifacts"))
        jobs = sum(1 for _ in self._walk_refs("jobs"))
        blobs = 0
        blob_bytes = 0
        for path in self._walk_refs("objects"):
            blobs += 1
            try:
                blob_bytes += os.path.getsize(path)
            except OSError:
                pass
        usage = dict.fromkeys(_USAGE_KEYS, 0)
        try:
            with open(os.path.join(self.root, "stats.json"), "r",
                      encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                usage.update({
                    k: int(loaded.get(k, 0)) for k in _USAGE_KEYS
                })
        except (OSError, ValueError, TypeError):
            pass
        return {
            "root": self.root,
            "format": STORE_FORMAT_VERSION,
            "cells": cells,
            "artifacts": artifacts,
            "jobs": jobs,
            "blobs": blobs,
            "blob_bytes": blob_bytes,
            **usage,
        }

    def _referenced_digests(self) -> set:
        referenced = set()
        for kind in ("cells", "artifacts", "jobs"):
            for path in self._walk_refs(kind):
                try:
                    with open(path, "r", encoding="ascii") as handle:
                        digest = handle.read().strip()
                except (OSError, UnicodeDecodeError):
                    continue
                if digest:
                    referenced.add(digest)
        return referenced

    def verify(self, repair: bool = False) -> Dict[str, Any]:
        """Fsck the store: checksum every blob, cross-check every ref.

        Pass one walks ``objects/`` re-hashing each blob against its
        name; with ``repair=True`` a corrupt blob moves (atomically)
        into ``quarantine/<digest>`` for post-mortem instead of being
        deleted.  Pass two walks the ``cells/`` and ``artifacts/`` refs:
        a ref that is unreadable, empty, or points at a missing or
        corrupt blob is *dangling* — with ``repair=True`` it is pruned,
        so the next cached sweep recomputes exactly those cells.  Stale
        ``.tmp`` orphans (older than the gc grace period, e.g. left by
        a writer that died mid-write) are counted and, on repair,
        removed.

        Returns the count report; ``"ok"`` is True when nothing was
        found wrong (an already-repaired store verifies clean).
        """
        report: Dict[str, Any] = {
            "objects": 0, "corrupt_objects": 0, "quarantined": 0,
            "refs": 0, "dangling_refs": 0, "pruned_refs": 0,
            "tmp_files": 0, "removed_tmp_files": 0,
        }
        corrupt: set = set()
        stale_before = time.time() - self.GC_TMP_GRACE_SECONDS
        base = os.path.join(self.root, "objects")
        if os.path.isdir(base):
            for fan in sorted(os.listdir(base)):
                fan_dir = os.path.join(base, fan)
                if not os.path.isdir(fan_dir):
                    continue
                for name in sorted(os.listdir(fan_dir)):
                    path = os.path.join(fan_dir, name)
                    if name.endswith(".tmp"):
                        try:
                            if os.path.getmtime(path) >= stale_before:
                                continue  # possibly in flight
                        except OSError:
                            continue
                        report["tmp_files"] += 1
                        if repair:
                            try:
                                os.unlink(path)
                                report["removed_tmp_files"] += 1
                            except OSError:
                                pass
                        continue
                    report["objects"] += 1
                    try:
                        with open(path, "rb") as handle:
                            digest = hashlib.sha256(
                                handle.read()
                            ).hexdigest()
                    except OSError:
                        digest = None
                    if digest == name:
                        continue
                    report["corrupt_objects"] += 1
                    corrupt.add(name)
                    if repair:
                        quarantine = os.path.join(
                            self.root, "quarantine", name
                        )
                        try:
                            os.makedirs(os.path.dirname(quarantine),
                                        exist_ok=True)
                            os.replace(path, quarantine)
                            report["quarantined"] += 1
                        except OSError:
                            pass
        for kind in ("cells", "artifacts", "jobs"):
            for path in self._walk_refs(kind):
                report["refs"] += 1
                try:
                    with open(path, "r", encoding="ascii") as handle:
                        digest = handle.read().strip()
                except (OSError, UnicodeDecodeError):
                    digest = ""
                if (
                    digest
                    and digest not in corrupt
                    and os.path.exists(
                        self._fan_path("objects", digest)
                    )
                ):
                    continue
                report["dangling_refs"] += 1
                if repair:
                    try:
                        os.unlink(path)
                        report["pruned_refs"] += 1
                    except OSError:
                        pass
        report["ok"] = not (
            report["corrupt_objects"]
            or report["dangling_refs"]
            or report["tmp_files"]
        )
        return report

    #: gc leaves ``.tmp`` files younger than this alone: they may be a
    #: concurrent writer's in-flight atomic write, and unlinking one
    #: would make that writer's os.replace raise.
    GC_TMP_GRACE_SECONDS = 3600

    def gc(self) -> Dict[str, int]:
        """Delete unreferenced blobs and stale temp files.

        Returns ``{"removed_blobs": n, "freed_bytes": b}``.  Safe to run
        while other processes read or write the store: fresh ``.tmp``
        files are left for their writer, and a concurrently *written*
        blob whose ref has not landed yet can be collected, in which
        case the writer's next reader simply misses and recomputes.
        """
        referenced = self._referenced_digests()
        removed = 0
        freed = 0
        stale_before = time.time() - self.GC_TMP_GRACE_SECONDS
        base = os.path.join(self.root, "objects")
        if os.path.isdir(base):
            for fan in sorted(os.listdir(base)):
                fan_dir = os.path.join(base, fan)
                if not os.path.isdir(fan_dir):
                    continue
                for name in sorted(os.listdir(fan_dir)):
                    path = os.path.join(fan_dir, name)
                    if name.endswith(".tmp"):
                        try:
                            if os.path.getmtime(path) >= stale_before:
                                continue  # possibly in flight
                        except OSError:
                            continue
                    elif name in referenced:
                        continue
                    try:
                        size = os.path.getsize(path)
                        os.unlink(path)
                    except OSError:
                        continue
                    removed += 1
                    freed += size
                try:
                    os.rmdir(fan_dir)  # only succeeds when empty
                except OSError:
                    pass
        return {"removed_blobs": removed, "freed_bytes": freed}

    def clear(self) -> None:
        """Empty the store (cells, artifacts, blobs, counters).

        Refuses to touch a directory that does not carry the store's
        ``format.json`` marker, so a mistyped ``--store`` path can never
        wipe unrelated data.
        """
        if not os.path.exists(self._marker_path()):
            raise StoreError(
                f"{self.root} is not an experiment store "
                f"(no format.json marker); refusing to clear it"
            )
        for kind in ("objects", "cells", "artifacts", "jobs"):
            path = os.path.join(self.root, kind)
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path, exist_ok=True)
        for name in ("stats.json", "stats.lock"):
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                pass

    def __repr__(self) -> str:
        return f"ExperimentStore({self.root!r})"
