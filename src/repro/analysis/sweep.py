"""The internal sweep layer under :mod:`repro.api`.

One call = one grid of (workload x configuration) simulations, returned as
:class:`SweepResult` for table/series extraction.  Simulation runs are
deterministic (no threads, no wall-clock dependence) so experiment
output is stable across machines; parallelism lives a layer up, in the
:mod:`repro.api.executor` process pool, which dispatches whole-workload
partitions through this module.

The paper's runtime decides only *when* a block is decompressed and
recompressed, never which blocks the program runs, so one recorded
block sequence per program serves every cell of a grid row, and
:func:`sweep` runs exactly that computation: per workload, the CFG is
built once and the block trace is recorded *once* per distinct
(``data_words``, ``max_steps``) pair of its cells under the
uncompressed baseline config (``decompression="none"``), then every
grid cell replays its pair's recording through
:func:`~repro.runtime.trace_sim.simulate_trace` — the replay kernel
(:mod:`repro.core.replay`), whose batched path decides each (plan, k,
``fault_cycles``) once and lets the row's other cells reuse it.  The
recording itself is not a grid cell; its result is discarded (only its
prepared trace and oracle validation survive, cached per CFG so
repeated sweeps over the same workload objects never re-record).
Compressed payloads are shared across cells via the
:func:`~repro.memory.image.compression_artifacts` cache, so identical
block bytes are never recompressed.
``tests/integration/test_trace_sweep_equivalence.py`` holds every
swept cell to the same cell run alone and to the frozen layered oracle.

A replayed cell carries ``engine="trace"`` and no registers (replay
does not model register state) and reuses the recording's oracle
validation; a cell interpreted instead (see below) carries
``engine="machine"`` and its own final registers.  Injected
faults and per-cell deadlines (:func:`~repro.faults.runtime.cell_guard`)
wrap each cell's replay only; the recording runs outside them.

If the trace overflows the recording cap, the sweep emits a structured
``repro.log.kv`` fallback event and interprets the cells that share
that recording, as it does when the recording raises; a cell whose
replay raises becomes an error row naming the exception.  Every result
records which kernel path computed it (``SimulationResult.replay_path``).
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..cfg.builder import ProgramCFG, build_cfg_cached
from ..core.config import SimulationConfig
from ..core import manager as _manager_mod
from ..core.manager import CodeCompressionManager
from ..faults.runtime import cell_guard
from ..log import kv
from ..obs.spans import span
from ..runtime.metrics import Counters, FootprintTimeline, SimulationResult
from ..runtime.trace_sim import PreparedTrace, simulate_trace
from ..workloads.suite import Workload

_log = logging.getLogger("repro.sweep")

@dataclass
class SweepRun:
    """One (workload, config) cell of a sweep.

    ``error`` is set (and mirrored into ``validation``) when the cell
    raised instead of completing; its result is an all-zero placeholder
    so table extraction never crashes on a failed cell.  ``attempts``
    is the retry provenance a :class:`~repro.faults.retry.RetryPolicy`
    leaves behind (one dict per attempt: number, fault class, error,
    duration); it is serialised only on exhausted error rows, so a
    recovered cell stays byte-identical to an untroubled one.
    """

    workload: str
    config: SimulationConfig
    result: SimulationResult
    validation: List[str] = field(default_factory=list)
    error: Optional[str] = None
    attempts: Optional[List[Dict[str, object]]] = None

    @property
    def ok(self) -> bool:
        """True when the workload oracle accepted the final state."""
        return not self.validation


@dataclass
class SweepResult:
    """All runs of one sweep, with lookup helpers."""

    runs: List[SweepRun] = field(default_factory=list)

    def by_workload(self, name: str) -> List[SweepRun]:
        """Runs of one workload, in sweep order."""
        return [run for run in self.runs if run.workload == name]

    def by_label(self, label: str) -> List[SweepRun]:
        """Runs whose config label/strategy name matches ``label``."""
        return [
            run for run in self.runs
            if run.config.strategy_name == label
        ]

    def workloads(self) -> List[str]:
        """Distinct workload names in first-seen order."""
        seen: List[str] = []
        for run in self.runs:
            if run.workload not in seen:
                seen.append(run.workload)
        return seen

    def failures(self) -> List[SweepRun]:
        """Runs whose oracle rejected the final machine state."""
        return [run for run in self.runs if not run.ok]

    def errors(self) -> List[SweepRun]:
        """Runs whose cell raised instead of completing."""
        return [run for run in self.runs if run.error is not None]


#: Default fast-simulation overrides applied to every sweep config.
_FAST = {"trace_events": False, "record_trace": False}


def effective_config(
    config: SimulationConfig, fast: bool = True
) -> SimulationConfig:
    """The config a sweep cell actually reports under.

    ``fast=True`` disables event/trace recording; the sweep applies
    this before running, and cache fingerprints are computed on the
    result so a cell's identity matches what its runs carry.
    """
    return config.replace(**_FAST) if fast else config


def run_one(
    workload: Workload,
    config: SimulationConfig,
    cfg: Optional[ProgramCFG] = None,
    max_blocks: Optional[int] = None,
) -> SweepRun:
    """Simulate one workload under one config and validate the result.

    Runs under :func:`~repro.faults.runtime.cell_guard`: the active
    retry policy's per-cell wall-clock deadline is armed and any
    installed fault plan may fire — both no-ops in the default
    (no-policy, no-plan) configuration.
    """
    graph = cfg if cfg is not None else build_cfg_cached(workload.program)
    with cell_guard(workload.name, config.strategy_name), span(
        f"cell:{workload.name}:{config.strategy_name}", cat="cell",
        workload=workload.name, label=config.strategy_name,
    ):
        manager = CodeCompressionManager(graph, config)
        result = manager.run(max_blocks=max_blocks)
    return SweepRun(
        workload=workload.name,
        config=config,
        result=result,
        validation=workload.validate(manager.machine),
    )


def _failed_run(
    workload: Workload, config: SimulationConfig, exc: BaseException
) -> SweepRun:
    """An error cell: all-zero metrics, failure recorded loudly.

    The message lands in both ``error`` and ``validation`` so the run
    counts as a failure everywhere (``ok`` is False, ``failures()``
    finds it, the CLI exits nonzero and names the cell).
    """
    message = f"{type(exc).__name__}: {exc}"
    result = SimulationResult(
        program=workload.name,
        strategy=config.strategy_name,
        codec=config.codec,
        k_compress=config.k_compress,
        k_decompress=(
            config.k_decompress
            if config.decompression in ("pre-all", "pre-single")
            else None
        ),
        total_cycles=0,
        execution_cycles=0,
        counters=Counters(),
        footprint=FootprintTimeline(),
        uncompressed_size=0,
        compressed_size=0,
    )
    return SweepRun(
        workload=workload.name,
        config=config,
        result=result,
        validation=[f"cell raised {message}"],
        error=message,
    )


def run_one_safe(
    workload: Workload,
    config: SimulationConfig,
    cfg: Optional[ProgramCFG] = None,
    max_blocks: Optional[int] = None,
) -> SweepRun:
    """Like :func:`run_one`, but a raising cell becomes an error run
    instead of aborting the whole grid (KeyboardInterrupt excepted)."""
    try:
        return run_one(workload, config, cfg=cfg, max_blocks=max_blocks)
    except Exception as exc:
        return _failed_run(workload, config, exc)


def sweep(
    workloads: Sequence[Workload],
    configs: Sequence[SimulationConfig],
    fast: bool = True,
    max_blocks: Optional[int] = None,
) -> SweepResult:
    """Run the full (workload x config) grid.

    ``fast=True`` disables event/trace recording (the counters and
    footprint timeline are unaffected).  CFGs are built once per workload
    and shared across configs; each program is recorded once and every
    cell replays it (see the module docstring).
    """
    out = SweepResult()
    for workload in workloads:
        graph = build_cfg_cached(workload.program)
        out.runs.extend(
            _sweep_workload(workload, graph, configs, fast, max_blocks)
        )
    return out


#: Per-CFG recorded-trace cache of the sweep row:
#: ``graph -> {(max_blocks, data_words, max_steps, cap):
#: (PreparedTrace | None, validation, reason)}``.
#: ``PreparedTrace`` is None for a negative entry (the recording hit the
#: cap or came back incomplete) with ``reason`` saying why; positive
#: entries carry the prepared trace and the recording's oracle
#: validation.  Keyed weakly on the
#: :class:`ProgramCFG` so dead graphs evict their traces (a
#: :class:`PreparedTrace` refers to its CFG weakly, so no value keeps
#: its own key alive).
_trace_cache: "weakref.WeakKeyDictionary[ProgramCFG, Dict[tuple, tuple]]" \
    = weakref.WeakKeyDictionary()


def _recorded_trace(
    workload: Workload,
    graph: ProgramCFG,
    template: SimulationConfig,
    max_blocks: Optional[int],
):
    """The workload's recorded trace (cached per CFG), or a negative
    entry explaining why replay is off the table.

    Recording runs once under the uncompressed baseline
    (``decompression="none"``): the block sequence and final machine
    state are properties of the *program*, not the compression config
    (the differential oracle enforces this), so one recording serves
    every grid cell and every subsequent sweep over the same CFG.  The
    recording is deliberately not run under ``cell_guard`` — it is not
    a grid cell, so injected faults and per-cell deadlines do not apply.
    """
    # The recording cap is looked up through the module (not a frozen
    # import) so test fixtures that shrink it see truthful fallback
    # events; it is part of the cache key so entries recorded under a
    # different cap are never reused.
    cap = _manager_mod._TRACE_CAP
    key = (max_blocks, template.data_words, template.max_steps, cap)
    per_graph = _trace_cache.get(graph)
    if per_graph is None:
        per_graph = {}
        _trace_cache[graph] = per_graph
    entry = per_graph.get(key)
    if entry is not None:
        return entry
    recording = SimulationConfig(
        decompression="none",
        record_trace=True,
        trace_events=False,
        data_words=template.data_words,
        max_steps=template.max_steps,
    )
    with span(
        f"cell:{workload.name}:record", cat="cell",
        workload=workload.name, label="record", mode="record",
    ):
        manager = CodeCompressionManager(graph, recording)
        result = manager.run(max_blocks=max_blocks)
    validation = workload.validate(manager.machine)
    trace = result.block_trace
    complete = trace and not result.trace_truncated \
        and result.counters.blocks_executed == len(trace) \
        and len(trace) < cap
    if complete:
        # The recording's own replay already prepared the trace, unless
        # it was long enough to be interpreted in segments.
        prepared = manager.prepared or PreparedTrace(graph, trace)
        entry = (prepared, validation, None)
    else:
        reason = (
            "truncated" if result.trace_truncated
            or len(trace) >= cap else "incomplete"
        )
        _log.warning(kv(
            "sweep.trace_fallback",
            workload=workload.name,
            cap=cap,
            reason=reason,
        ))
        entry = (None, validation, reason)
    per_graph[key] = entry
    return entry


def _sweep_workload(
    workload: Workload,
    graph: ProgramCFG,
    configs: Sequence[SimulationConfig],
    fast: bool,
    max_blocks: Optional[int],
) -> List[SweepRun]:
    """One workload's grid row.

    The block trace depends on the program and on each cell's
    ``data_words`` and ``max_steps``: every distinct pair is recorded at
    most once (cached per CFG, see :func:`_recorded_trace`) and each
    cell replays its own pair's recording under ``cell_guard``.  A cell
    whose recording was truncated by the recording cap — announced with
    a parseable ``repro.log.kv`` event — or raised is interpreted
    instead.  A cell whose replay raises becomes an error row (the
    retry layer may re-run it).
    """
    runs: List[SweepRun] = []
    # (data_words, max_steps) -> _recorded_trace entry, or None when
    # the recording raised.
    recordings: Dict[tuple, Optional[tuple]] = {}
    for config in configs:
        effective = effective_config(config, fast)
        pair = (effective.data_words, effective.max_steps)
        if pair not in recordings:
            try:
                recordings[pair] = _recorded_trace(
                    workload, graph, effective, max_blocks
                )
            except Exception:
                # The recording itself raised (broken workload, a run
                # past max_steps or out of data memory): interpret the
                # cell, which captures its own error.
                recordings[pair] = None
        entry = recordings[pair]
        if entry is None or entry[0] is None:
            runs.append(run_one_safe(workload, effective, cfg=graph,
                                     max_blocks=max_blocks))
            continue
        prepared, validation, _reason = entry
        try:
            with cell_guard(
                workload.name, effective.strategy_name
            ), span(
                f"cell:{workload.name}:{effective.strategy_name}",
                cat="cell", workload=workload.name,
                label=effective.strategy_name, mode="replay",
            ):
                replayed = simulate_trace(graph, prepared, effective,
                                          max_blocks=max_blocks)
        except Exception as exc:
            # Interpreting the cell would run the same kernel again
            # and fail the same way: report the error row directly.
            runs.append(_failed_run(workload, effective, exc))
            continue
        runs.append(
            SweepRun(workload=workload.name, config=effective,
                     result=replayed, validation=list(validation))
        )
    return runs


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (values must be positive)."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError(
                f"geometric mean needs positive values, got {value}"
            )
        product *= value
    return product ** (1.0 / len(values))


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
