"""Deterministic fingerprints for experiment cells.

A cell fingerprint is a SHA-256 over the canonical JSON encoding of
everything that determines a cell's result:

* a **code version salt** — the hash of every semantic source file of
  the simulator, so any code change invalidates the whole store rather
  than serving stale results;
* the **workload identity** — its name plus the hash of its linked
  program bytes (so generated/synthetic programs fingerprint by
  content, not by name);
* the full **configuration** — every :class:`SimulationConfig` field,
  with the in-memory edge profile replaced by a content digest;
* the ``fast`` flag and ``max_blocks``;
* the registered **component catalog** (externally registered codecs
  or strategies change behaviour without changing repo sources);
* the ``REPRO_STORE_SALT`` environment variable, for manual
  invalidation.

Simulation runs are deterministic (no wall clock, no threads), so equal
fingerprints imply byte-identical results — the property the
:class:`~repro.store.executor.CachingExecutor` relies on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Any, Dict, List, Optional

from ..cfg.profile import EdgeProfile
from ..compress.codec import is_pipeline_spec
from ..compress.pipeline import parse_pipeline_spec
from ..core.config import SimulationConfig
from ..memory.hierarchy import get_hierarchy
from ..registry import catalog_signature
from ..workloads.suite import Workload

#: Bumped on any change to the fingerprint payload shape itself.
#: v2: the sweep engine name left the payload.
FINGERPRINT_VERSION = 2

#: Subpackages whose sources determine simulation results.  ``api``,
#: ``analysis`` (bar the sweep itself), ``store``, and the CLI shape
#: output, not cell results, and are deliberately excluded so refactors
#: there keep the cache warm.
_SEMANTIC_SUBPACKAGES = (
    "cfg",
    "compress",
    "core",
    "isa",
    "memory",
    "runtime",
    "selection",
    "strategies",
    "workloads",
)

#: Individual semantic modules outside those subpackages.
_SEMANTIC_MODULES = ("analysis/sweep.py",)

_code_version_cache: Optional[str] = None


def canonical_dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, ASCII-only.

    The one serialisation used for fingerprint payloads and stored cell
    records, so identical data always produces identical bytes.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def code_version() -> str:
    """Hash of every semantic source file (cached per process).

    Any edit to the simulator's cfg/compress/core/isa/memory/runtime/
    selection/strategies/workloads code — or to the sweep itself —
    changes this value and therefore every cell fingerprint.
    """
    global _code_version_cache
    if _code_version_cache is not None:
        return _code_version_cache
    root = pathlib.Path(__file__).resolve().parent.parent
    files: List[pathlib.Path] = []
    for sub in _SEMANTIC_SUBPACKAGES:
        files.extend(sorted((root / sub).rglob("*.py")))
    for name in _SEMANTIC_MODULES:
        files.append(root / name)
    hasher = hashlib.sha256()
    for path in sorted(files):
        hasher.update(str(path.relative_to(root)).encode("utf-8"))
        hasher.update(b"\0")
        try:
            hasher.update(path.read_bytes())
        except OSError:  # pragma: no cover - frozen/zipped installs
            pass
        hasher.update(b"\0")
    _code_version_cache = hasher.hexdigest()
    return _code_version_cache


def workload_digest(workload: Workload) -> str:
    """Stable workload identity: name plus linked program bytes."""
    program = workload.program
    if not program.is_linked:
        program.link()
    digest = hashlib.sha256(program.encode()).hexdigest()
    return f"{workload.name}:{digest}"


def _profile_digest(profile: Optional[EdgeProfile]) -> Optional[str]:
    """Content digest of an offline edge profile (None passes through)."""
    if profile is None:
        return None
    payload = {
        "edges": sorted(
            f"{src}->{dst}:{count}"
            for (src, dst), count in profile.edge_counts.items()
        ),
        "blocks": sorted(
            f"{block}:{count}"
            for block, count in profile.block_counts.items()
        ),
    }
    return hashlib.sha256(
        canonical_dumps(payload).encode("utf-8")
    ).hexdigest()


def config_signature(config: SimulationConfig) -> Dict[str, Any]:
    """JSON-safe form of every config field, profiles hashed by content.

    The ``hierarchy`` field is expanded to the *resolved* preset's full
    geometry, not just its name: a user-registered custom hierarchy
    lives outside the repo sources (so ``code_version`` cannot see it),
    and re-registering different numbers under the same name must not
    serve stale cached results.
    """
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(SimulationConfig):
        value = getattr(config, f.name)
        if f.name == "profile":
            value = _profile_digest(value)
        elif f.name == "hierarchy":
            value = dataclasses.asdict(get_hierarchy(value))
        elif f.name == "codec" and is_pipeline_spec(value):
            # Pipeline specs expand to their parsed structure so the
            # fingerprint sees layer kinds and parameters explicitly
            # (and both spec spellings, already canonicalized by the
            # config, stay one cache entry).
            value = parse_pipeline_spec(value).to_json()
        out[f.name] = value
    return out


def cell_fingerprint(
    workload: Workload,
    config: SimulationConfig,
    fast: bool = True,
    max_blocks: Optional[int] = None,
    *,
    workload_id: Optional[str] = None,
    catalog: Optional[Dict[str, List[str]]] = None,
    signature: Optional[Dict[str, Any]] = None,
) -> str:
    """The canonical hash identifying one experiment cell.

    See the module docstring for exactly what participates; equal
    fingerprints imply byte-identical cell results.  ``workload_id``,
    ``catalog`` and ``signature`` accept precomputed
    :func:`workload_digest`, :func:`~repro.registry.catalog_signature`
    and :func:`config_signature` values so grid callers hash each
    program, the component catalog and each config once, not once per
    cell — on a warm run fingerprinting *is* the dominant cost.
    """
    payload = {
        "v": FINGERPRINT_VERSION,
        "code": code_version(),
        "salt": os.environ.get("REPRO_STORE_SALT", ""),
        "catalog": catalog if catalog is not None
        else catalog_signature(),
        "workload": workload_id if workload_id is not None
        else workload_digest(workload),
        "config": signature if signature is not None
        else config_signature(config),
        "fast": bool(fast),
        "max_blocks": max_blocks,
    }
    return hashlib.sha256(
        canonical_dumps(payload).encode("utf-8")
    ).hexdigest()
