"""``repro.api`` — the public experiment facade.

This package is the one entry point consumers (CLI subcommands, the
E1-E15 benchmarks, the examples) build on:

* **describe** a scenario grid declaratively with
  :class:`~repro.api.spec.ExperimentSpec` and the :func:`grid` /
  :func:`zip_axes` / :func:`cases` axis combinators (or a JSON spec
  file);
* **execute** it through a pluggable
  :class:`~repro.api.executor.Executor` — serial, or process-parallel
  across workloads with identical output;
* **consume** a versioned :class:`~repro.api.results.ResultSet` with
  ``filter``/``pivot``/``series`` helpers replacing per-benchmark table
  code.

``repro.analysis.sweep`` remains the internal sweep layer underneath;
everything pluggable (codecs, decompression strategies, predictors,
workloads, executors) registers through the unified
:class:`~repro.registry.Registry` catalog, listed by
:func:`list_components`.

Quickstart::

    from repro import api

    spec = api.ExperimentSpec(
        workloads=["composite", "fsm"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=api.grid(k_compress=[1, 2, 4, 8, "inf"]),
    )
    rs = api.run_experiment(spec, jobs=4)
    print(rs.pivot(value="average_saving", cols="k_compress").render())
    rs.to_json("results.json")
"""

from __future__ import annotations

import time
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from ..analysis.sweep import SweepRun, _recorded_trace, run_one
from ..cfg.builder import ProgramCFG, build_cfg, build_cfg_cached
from ..core.config import SimulationConfig
from ..core.manager import CodeCompressionManager
from ..faults import FaultPlan, FaultRule, RetryPolicy, install_plan
from ..registry import Registry, all_registries
from ..workloads.suite import Workload
from .executor import (
    EXECUTORS,
    Executor,
    ParallelExecutor,
    Partition,
    SerialExecutor,
    make_executor,
)
from .results import (
    SCHEMA_ID,
    SCHEMA_VERSION,
    ResultSet,
    config_to_dict,
    path_counts,
)
from .spec import (
    Cell,
    ExperimentSpec,
    SpecError,
    cases,
    grid,
    parse_k,
    zip_axes,
)

def run_cell(
    workload: Union[str, Workload],
    config: SimulationConfig,
    cfg: Optional[ProgramCFG] = None,
    max_blocks: Optional[int] = None,
):
    """Run one (workload, config) cell and validate it against the
    workload oracle.

    The facade sibling of the internal
    :func:`~repro.analysis.sweep.run_one`: it additionally resolves
    workload registry names, like :func:`run_grid` does.
    """
    if isinstance(workload, str):
        from ..workloads.suite import get_workload

        workload = get_workload(workload)
    return run_one(workload, config, cfg=cfg, max_blocks=max_blocks)


def _run_rows(
    chosen: Executor,
    rows: Iterable[Tuple[Union[str, Workload], Sequence[SimulationConfig]]],
    fast: bool,
    max_blocks: Optional[int],
    **meta: Any,
) -> ResultSet:
    """Run (workload, configs) rows on ``chosen``: the one place a
    sweep's :class:`ResultSet` is built.  Its ``meta`` is ``meta`` plus
    the execution provenance, with cache stats when the executor keeps
    any."""
    partitions = [
        Partition(workload=workload, configs=list(configs))
        for workload, configs in rows
    ]
    started = time.perf_counter()
    runs = chosen.run(partitions, fast=fast, max_blocks=max_blocks)
    meta.update(executor=chosen.name, jobs=chosen.jobs,
                timing={"elapsed_s": time.perf_counter() - started})
    hits = getattr(chosen, "hits", None)
    misses = getattr(chosen, "misses", None)
    if hits is not None and misses is not None:
        store = getattr(chosen, "store", None)
        meta["cache"] = {"hits": hits, "misses": misses,
                         "store": getattr(store, "root", None)}
    meta["paths"] = path_counts(runs)
    return ResultSet(runs, meta=meta)


def run_experiment(
    spec: ExperimentSpec,
    executor: Union[str, Executor, None] = None,
    jobs: Optional[int] = None,
    store: Union[str, bool, None] = None,
    retry: Optional[RetryPolicy] = None,
) -> ResultSet:
    """Expand and execute a spec; the declarative entry point.

    ``executor``/``jobs``/``store`` override the spec's own choices
    (the CLI's ``--jobs N`` and ``--store DIR``/``--no-cache`` flow
    through here).  ``jobs`` > 1 turns a serial spec parallel; a
    caching spec stays caching and computes its misses in parallel.
    A resolved store wraps the chosen executor in the
    :class:`~repro.store.executor.CachingExecutor`, so only missing or
    changed cells are computed.  ``retry`` is the
    :class:`~repro.faults.RetryPolicy` failing cells run under (the
    CLI's ``--retries``/``--cell-timeout``); None fails fast.
    """
    effective_jobs = jobs if jobs is not None else spec.jobs
    if executor is None:
        executor = spec.executor
        if executor == "serial" and jobs is not None and jobs > 1:
            executor = "parallel"
    if store is None:
        store = spec.store
    chosen = make_executor(executor, jobs=effective_jobs, store=store,
                           retry=retry)
    return _run_rows(chosen, spec.partitions(), spec.fast,
                     spec.max_blocks, name=spec.name)


def run_grid(
    workloads: Sequence[Union[str, Workload]],
    configs: Sequence[SimulationConfig],
    executor: Union[str, Executor, None] = None,
    jobs: Optional[int] = None,
    fast: bool = True,
    max_blocks: Optional[int] = None,
    store: Union[str, bool, None] = None,
    retry: Optional[RetryPolicy] = None,
) -> ResultSet:
    """Run an already-expanded (workloads x configs) grid.

    The imperative sibling of :func:`run_experiment`, for callers that
    build :class:`SimulationConfig` objects directly (the benchmarks) or
    hold unregistered :class:`Workload` objects (synthetic programs).
    ``store=None`` consults ``$REPRO_STORE_DIR`` — the opt-in that lets
    the E1-E15 benchmarks reuse cached cells with no code change.
    """
    chosen = make_executor(executor, jobs=jobs, store=store, retry=retry)
    return _run_rows(chosen, [(workload, configs) for workload in workloads],
                     fast, max_blocks)


def run_instrumented(
    workload: Union[Workload, ProgramCFG],
    config: Optional[SimulationConfig] = None,
    max_blocks: Optional[int] = None,
):
    """Run one cell and keep the live manager for introspection.

    Returns ``(manager, result)`` — for consumers that need the event
    log, the memory image, or the machine state (E8/E9-style analyses);
    grid runs should use :func:`run_grid` instead.
    """
    if isinstance(workload, ProgramCFG):
        cfg = workload
    else:
        cfg = build_cfg(workload.program)
    manager = CodeCompressionManager(cfg, config)
    result = manager.run(max_blocks=max_blocks)
    return manager, result


def run_traced(
    workload: Union[str, Workload, ProgramCFG],
    config: Optional[SimulationConfig] = None,
    max_blocks: Optional[int] = None,
):
    """Run one cell with cycle-domain span tracing armed.

    Returns ``(result, tracer)``: the normal
    :class:`~repro.runtime.metrics.SimulationResult` (with
    ``result.phases`` filled in) plus the
    :class:`~repro.obs.SpanTracer` holding the raw spans — feed it to
    :func:`repro.obs.chrome_trace` for a Perfetto-loadable file, or
    just read ``tracer.phases()``.

    Tracing never changes the result: the returned metrics are
    byte-identical to an untraced run of the same cell.
    """
    from ..obs.tracer import SpanTracer

    if isinstance(workload, ProgramCFG):
        cfg = workload
        name = cfg.name
    else:
        if isinstance(workload, str):
            from ..workloads.suite import get_workload

            workload = get_workload(workload)
        cfg = build_cfg(workload.program)
        name = workload.name
    tracer = SpanTracer(name)
    manager = CodeCompressionManager(cfg, config, tracer=tracer)
    return manager.run(max_blocks=max_blocks), tracer


def profile_workload(
    workload: Union[str, Workload],
    max_blocks: Optional[int] = None,
):
    """Record an offline edge profile for a workload.

    Folds the workload's recorded block trace — the uncompressed
    recording a sweep of the same workload object replays, so
    profiling and then sweeping interprets the program once — into an
    :class:`~repro.cfg.profile.EdgeProfile`: the input the
    profile-guided codec-assignment policies (:mod:`repro.selection`)
    and the "static-profile" predictor expect in
    ``SimulationConfig.profile``.  Deterministic, so profiled configs
    still fingerprint stably in the experiment store.
    """
    from ..cfg.profile import profile_from_trace
    from ..workloads.suite import get_workload

    if isinstance(workload, str):
        workload = get_workload(workload)
    prepared = _recorded_trace(
        workload, build_cfg_cached(workload.program), SimulationConfig(),
        max_blocks,
    )[0]
    if prepared is None:
        # A truncated trace would under-count everything executed
        # after the cap and silently mis-rank hot units; refuse, like
        # PreparedTrace does for replays.
        raise ValueError(
            "profiling run hit the block-trace recording cap, so the "
            "profile would silently miss late execution; profile a "
            "bounded prefix explicitly via max_blocks instead"
        )
    return profile_from_trace(prepared.trace)


def list_components() -> "dict[str, List[str]]":
    """Every pluggable component family, from the unified registry
    catalog (codecs, strategies, predictors, workloads, executors,
    hierarchies, assignment policies)."""
    return {
        kind: registry.names()
        for kind, registry in all_registries().items()
    }


# Registers the "caching" executor in EXECUTORS.  A module (not name)
# import: repro.store.executor imports this package, and during that
# circular first import the name would not be bound yet.
from ..store import executor as _store_executor  # noqa: E402


def __getattr__(name: str):
    if name == "CachingExecutor":
        return _store_executor.CachingExecutor
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "CachingExecutor",
    "Cell",
    "EXECUTORS",
    "Executor",
    "ExperimentSpec",
    "FaultPlan",
    "FaultRule",
    "ParallelExecutor",
    "Partition",
    "Registry",
    "RetryPolicy",
    "ResultSet",
    "SCHEMA_ID",
    "SCHEMA_VERSION",
    "SerialExecutor",
    "SpecError",
    "SweepRun",
    "all_registries",
    "cases",
    "config_to_dict",
    "grid",
    "install_plan",
    "list_components",
    "make_executor",
    "parse_k",
    "profile_workload",
    "run_cell",
    "run_experiment",
    "run_grid",
    "run_instrumented",
    "run_traced",
    "zip_axes",
]
