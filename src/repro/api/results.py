"""Versioned experiment results with table/series extraction.

A :class:`ResultSet` is the one return type of the ``repro.api`` layer:
the flat run list in deterministic cell order plus experiment metadata,
with the lookup helpers the benchmarks used to hand-roll per table
(:meth:`ResultSet.filter`, :meth:`ResultSet.pivot`,
:meth:`ResultSet.series`).

Serialisation is versioned: :data:`SCHEMA_VERSION` bumps on any
backwards-incompatible change to the JSON/CSV shape.  Stability policy —
within one schema version, existing keys never change meaning or
disappear; new keys may appear.  Execution provenance (executor, jobs,
wall-clock timing) lives only under the top-level ``"execution"`` key so
results from different machines or executors compare equal after
dropping it (``to_dict(include_execution=False)``) — executors are
required to be result-transparent, and the integration tests assert
exactly this equality.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..analysis.report import Series, Table
from ..analysis.sweep import SweepRun
from ..core.config import SimulationConfig

#: Bumped on any backwards-incompatible schema change.  v2: ``meta``
#: no longer carries ``engine`` (every sweep runs one computation).
SCHEMA_VERSION = 2

#: Schema identifier embedded in every serialised result set.
SCHEMA_ID = "repro.api.resultset"


def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    """JSON-safe form of a config.

    The offline edge profile is an in-memory training artefact, not
    data; it serialises as a presence marker.
    """
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "profile":
            value = None if value is None else "<edge-profile>"
        out[f.name] = value
    out["strategy_name"] = config.strategy_name
    return out


def run_metrics(run: SweepRun) -> Dict[str, float]:
    """Flat metric dict for one run: the headline summary plus every raw
    counter (counter names that overlap the summary agree by
    construction)."""
    metrics = dict(run.result.summary())
    for f in dataclasses.fields(run.result.counters):
        metrics[f.name] = float(getattr(run.result.counters, f.name))
    return metrics


def path_counts(runs: Sequence[SweepRun]) -> Dict[str, Any]:
    """How each cell was computed: ``batched`` (the batched kernel made
    its own decisions), ``shared`` (it charged its clock from another
    cell's decision pass), ``stepped``, ``stored`` (a store hit, which
    carries no path) and ``error``, plus ``declined``: the cells per
    condition that kept the batched kernel off (see
    :mod:`repro.core.replay`)."""
    counts: Dict[str, Any] = dict.fromkeys(
        ("batched", "shared", "stepped", "stored", "error"), 0
    )
    declined: Dict[str, int] = {}
    for run in runs:
        result = run.result
        if run.error is not None:
            path = "error"
        elif result.replay_path is None:
            path = "stored"
        elif result.replay_shared:
            path = "shared"
        else:
            path = result.replay_path
        counts[path] = counts.get(path, 0) + 1
        if run.error is None and result.replay_declined is not None:
            reason = result.replay_declined
            declined[reason] = declined.get(reason, 0) + 1
    counts["declined"] = dict(sorted(declined.items()))
    return counts


def metric_value(run: SweepRun, name: str) -> Any:
    """Resolve a metric by name: result summary/property first, then raw
    counters."""
    result = run.result
    summary = result.summary()
    if name in summary:
        return summary[name]
    if hasattr(result.counters, name):
        return getattr(result.counters, name)
    if hasattr(result, name):
        return getattr(result, name)
    raise KeyError(
        f"unknown metric '{name}'; available: "
        f"{sorted(set(summary) | {f.name for f in dataclasses.fields(run.result.counters)})}"
    )


def _field_value(run: SweepRun, name: str) -> Any:
    """Resolve a grouping field: workload, label, or any config field."""
    if name == "workload":
        return run.workload
    if name == "label":
        return run.config.strategy_name
    if hasattr(run.config, name):
        return getattr(run.config, name)
    raise KeyError(
        f"unknown field '{name}'; use 'workload', 'label', or a "
        f"SimulationConfig field"
    )


class ResultSet:
    """All runs of one experiment, with metadata and extraction helpers.

    ``runs`` is the live, deterministic-order run list;
    ``meta`` carries the spec name, executor, jobs, and timing.
    """

    def __init__(
        self,
        runs: Sequence[SweepRun],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.runs: List[SweepRun] = list(runs)
        self.meta: Dict[str, Any] = dict(meta or {})

    # ------------------------------------------------------------------
    # SweepResult-compatible lookups
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def by_workload(self, name: str) -> List[SweepRun]:
        """Runs of one workload, in cell order."""
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
        """Runs whose cell raised instead of completing (a subset of
        :meth:`failures`)."""
        return [run for run in self.runs if run.error is not None]

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------

    def filter(
        self,
        predicate: Optional[Callable[[SweepRun], bool]] = None,
        **field_filters: Any,
    ) -> "ResultSet":
        """Runs matching the predicate and/or field equalities.

        Field names resolve like :meth:`pivot` axes: ``workload``,
        ``label``, or any config field, e.g.
        ``rs.filter(workload="fsm", decompression="ondemand")``.
        """
        runs = []
        for run in self.runs:
            if predicate is not None and not predicate(run):
                continue
            if all(
                _field_value(run, name) == wanted
                for name, wanted in field_filters.items()
            ):
                runs.append(run)
        return ResultSet(runs, self.meta)

    def pivot(
        self,
        value: str,
        rows: str = "workload",
        cols: str = "label",
        title: Optional[str] = None,
        fmt: Optional[Callable[[Any], Any]] = None,
    ) -> Table:
        """A rows x cols table of one metric.

        ``rows``/``cols`` are grouping fields (``workload``, ``label``,
        or a config field); ``value`` is a metric name resolved against
        the result summary and counters.  Duplicate (row, col) cells keep
        the first run; missing combinations render as ``-``.
        """
        row_keys: List[Any] = []
        col_keys: List[Any] = []
        cells: Dict[Any, Dict[Any, Any]] = {}
        for run in self.runs:
            row, col = _field_value(run, rows), _field_value(run, cols)
            if row not in row_keys:
                row_keys.append(row)
            if col not in col_keys:
                col_keys.append(col)
            cells.setdefault(row, {}).setdefault(
                col, metric_value(run, value)
            )
        table = Table(
            title or f"{value} by {rows} x {cols}",
            [rows] + [str(col) for col in col_keys],
        )
        for row in row_keys:
            out_row: List[Any] = [row]
            for col in col_keys:
                got = cells.get(row, {}).get(col, "-")
                out_row.append(fmt(got) if fmt and got != "-" else got)
            table.add_row(*out_row)
        return table

    def series(
        self,
        x: str,
        y: str,
        by: str = "workload",
        x_transform: Optional[Callable[[Any], Any]] = None,
    ) -> Dict[str, Series]:
        """One (x, y) series per ``by`` group, keyed by group.

        ``x`` is a grouping field, ``y`` a metric; ``x_transform`` maps
        raw x values (e.g. k = None) onto plottable numbers.
        """
        out: Dict[str, Series] = {}
        for run in self.runs:
            group = str(_field_value(run, by))
            series = out.get(group)
            if series is None:
                series = out[group] = Series(group, x, y)
            raw_x = _field_value(run, x)
            series.add(
                x_transform(raw_x) if x_transform else raw_x,
                metric_value(run, y),
            )
        return out

    # ------------------------------------------------------------------
    # Versioned serialisation
    # ------------------------------------------------------------------

    #: Meta keys that describe *how* the grid ran rather than *what* it
    #: produced; serialised under "execution" and excluded from equality.
    #: Cache provenance (store hits/misses) and the path counts
    #: (:func:`path_counts`) are execution detail too: a fully cached
    #: run must compare equal to a cold one.
    EXECUTION_KEYS = ("executor", "jobs", "timing", "cache", "paths")

    def to_dict(self, include_execution: bool = True) -> Dict[str, Any]:
        """The versioned JSON-shaped form (see module docstring)."""
        meta = {
            k: v for k, v in self.meta.items()
            if k not in self.EXECUTION_KEYS
        }
        cells = []
        # id(config) -> (config, its dict): runs share config objects,
        # and a config carrying an edge profile is unhashable.
        configs: Dict[int, tuple] = {}
        for run in self.runs:
            entry = configs.get(id(run.config))
            if entry is None:
                entry = configs[id(run.config)] = (
                    run.config, config_to_dict(run.config)
                )
            config = entry[1]
            # Per-cell engine/registers stay off the serialised form on
            # purpose: they say how a cell got its block trace (replayed
            # or interpreted), which must not change what it reports
            # (the live SimulationResult.engine tag keeps it).
            cell: Dict[str, Any] = {
                "workload": run.workload,
                "label": config["strategy_name"],
                "config": dict(config),
                "metrics": run_metrics(run),
                "ok": run.ok,
                "validation": list(run.validation),
            }
            if run.error is not None:
                cell["error"] = run.error
                if run.attempts:
                    # Retry provenance rides only on exhausted error
                    # rows (recovered cells must stay byte-identical to
                    # untroubled ones — the chaos suite's invariant).
                    cell["attempts"] = [dict(a) for a in run.attempts]
            cells.append(cell)
        out: Dict[str, Any] = {
            "schema": SCHEMA_ID,
            "version": SCHEMA_VERSION,
            "meta": meta,
            "cells": cells,
        }
        if include_execution:
            out["execution"] = {
                "executor": self.meta.get("executor"),
                "jobs": self.meta.get("jobs"),
                "timing": dict(self.meta.get("timing", {})),
            }
            if "cache" in self.meta:
                out["execution"]["cache"] = dict(self.meta["cache"])
            if "paths" in self.meta:
                paths = dict(self.meta["paths"])
                paths["declined"] = dict(paths.get("declined", {}))
                out["execution"]["paths"] = paths
        return out

    def to_json(
        self,
        path: Optional[str] = None,
        include_execution: bool = True,
        indent: int = 2,
    ) -> str:
        """Serialise to JSON; also writes ``path`` when given.

        Serialisation is canonical — keys sorted, rows in deterministic
        cell order, floats emitted by the default repr — so identical
        experiments produce byte-identical files (given
        ``include_execution=False``, which drops wall-clock and
        executor provenance).
        """
        text = json.dumps(
            self.to_dict(include_execution=include_execution),
            indent=indent, sort_keys=True,
        )
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    def canonical_json(self, include_execution: bool = False) -> str:
        """The compact canonical form: sorted keys, no whitespace,
        execution provenance dropped by default.

        Two runs of the same experiment — cached, parallel, serial —
        produce byte-identical output here; the store smoke test and
        the cache-equivalence integration tests compare exactly this.
        """
        return json.dumps(
            self.to_dict(include_execution=include_execution),
            sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        )

    def merge(self, *others: "ResultSet") -> "ResultSet":
        """Compose partial result sets into one result set.

        Cells are identified by (workload, full config); the first
        occurrence wins, scanning ``self`` then ``others`` in order —
        so live results take precedence over (possibly older) cached
        or previously saved partial sets.  Meta comes from ``self``.
        """
        merged: List[SweepRun] = []
        seen = set()
        for result_set in (self, *others):
            for run in result_set.runs:
                key = (
                    run.workload,
                    json.dumps(config_to_dict(run.config),
                               sort_keys=True),
                )
                if key in seen:
                    continue
                seen.add(key)
                merged.append(run)
        return ResultSet(merged, self.meta)

    def to_csv(self, path: Optional[str] = None) -> str:
        """Flat CSV: one row per cell, config axes + all metrics."""
        config_cols = [
            "codec", "decompression", "k_compress", "k_decompress",
            "predictor", "granularity", "memory_budget", "eviction",
            "image_scheme", "hierarchy", "assignment",
        ]
        metric_cols = sorted(run_metrics(self.runs[0])) if self.runs \
            else []
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            ["workload", "label"] + config_cols + ["ok"] + metric_cols
        )
        for run in self.runs:
            metrics = run_metrics(run)
            writer.writerow(
                [run.workload, run.config.strategy_name]
                + [getattr(run.config, col) for col in config_cols]
                + [run.ok]
                + [metrics[col] for col in metric_cols]
            )
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        return text

    @staticmethod
    def load(path: str) -> Dict[str, Any]:
        """Load and schema-check a serialised result set.

        Returns the plain dict form (the stable interchange shape);
        live simulation objects are not reconstructed.
        """
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("schema") != SCHEMA_ID:
            raise ValueError(
                f"{path} is not a {SCHEMA_ID} file "
                f"(schema={data.get('schema')!r})"
            )
        if data.get("version") != SCHEMA_VERSION:
            raise ValueError(
                f"{path} has schema version {data.get('version')!r}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        return data

    def __repr__(self) -> str:
        return (
            f"ResultSet({len(self.runs)} runs, "
            f"{len(self.workloads())} workloads)"
        )
