"""Declarative experiment descriptions.

An :class:`ExperimentSpec` names *what* to run — workloads, a list of
configuration overrides (composed with :func:`grid`, :func:`zip_axes`,
and :func:`cases`) and the executor — without saying
*how*; expansion to concrete (workload, config) cells and execution are
the executor layer's job.  Specs are plain data: they round-trip through
JSON (:meth:`ExperimentSpec.from_file`) so the same grid can live in the
repo, on the CLI (``repro exp --spec FILE``), or inline in a benchmark.

The paper's design space maps directly onto the axes: codec x
decompression strategy x k-edge parameters x budget/granularity
(conf_date_OzturkSKK05, Figures 3-5)::

    spec = ExperimentSpec(
        workloads=["composite", "fsm"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=grid(k_compress=[1, 2, 4, 8, "inf"]),
    )
    result = repro.api.run_experiment(spec, jobs=4)
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.config import ConfigError, SimulationConfig
from ..workloads.suite import WORKLOADS

#: Config fields a spec may set (everything on SimulationConfig).
CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(SimulationConfig)
)

#: The two legacy sweep engine names a spec may still carry.  Both
#: name the one computation every sweep runs, so the field is checked
#: and then ignored.
_LEGACY_ENGINES = ("machine", "trace")


class SpecError(ValueError):
    """Raised for malformed experiment specs (unknown fields, bad axis
    shapes, unknown workloads/engines/executors)."""


def parse_k(value: object, *, field_name: str = "k") -> Optional[int]:
    """Normalise a k-edge parameter: ``"inf"``/``"none"``/``None`` mean
    k = infinity (never recompress); positive integers pass through;
    everything else (including 0) is rejected loudly.
    """
    if value is None:
        return None
    if isinstance(value, str):
        token = value.strip().lower()
        if token in ("inf", "none"):
            return None
        try:
            value = int(token)
        except ValueError:
            raise SpecError(
                f"invalid {field_name} value {value!r}: expected a "
                f"positive integer or 'inf'/'none'"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            f"invalid {field_name} value {value!r}: expected a "
            f"positive integer or 'inf'/'none'"
        )
    if value < 1:
        raise SpecError(
            f"invalid {field_name} value {value}: k must be >= 1 "
            f"(use 'inf' or 'none' for k = infinity)"
        )
    return value


# ----------------------------------------------------------------------
# Axis combinators
# ----------------------------------------------------------------------


def _check_axis_fields(names: Sequence[str]) -> None:
    for name in names:
        if name not in CONFIG_FIELDS:
            raise SpecError(
                f"unknown config field '{name}'; "
                f"valid fields: {sorted(CONFIG_FIELDS)}"
            )


def grid(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of the given axes, in axis declaration order.

    ``grid(k_compress=[1, 2], codec=["lzw", "rle"])`` yields four
    override dicts: (1, lzw), (1, rle), (2, lzw), (2, rle).
    """
    _check_axis_fields(list(axes))
    names = list(axes)
    value_lists = [list(axes[name]) for name in names]
    for name, values in zip(names, value_lists):
        if not values:
            raise SpecError(f"axis '{name}' has no values")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*value_lists)
    ]


def zip_axes(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Parallel (zipped) axes: the i-th override takes the i-th value of
    every axis.  All axes must have the same length."""
    _check_axis_fields(list(axes))
    if not axes:
        raise SpecError("zip_axes needs at least one axis")
    lengths = {name: len(list(values)) for name, values in axes.items()}
    if len(set(lengths.values())) != 1:
        raise SpecError(
            f"zip_axes requires equal-length axes, got {lengths}"
        )
    names = list(axes)
    return [
        dict(zip(names, combo))
        for combo in zip(*(list(axes[name]) for name in names))
    ]


def cases(*overrides: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """An explicit list of override dicts (named design points)."""
    out: List[Dict[str, Any]] = []
    for override in overrides:
        if not isinstance(override, Mapping):
            raise SpecError(
                f"cases() takes mappings, got {type(override).__name__}"
            )
        _check_axis_fields(list(override))
        out.append(dict(override))
    return out


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------


@dataclass
class Cell:
    """One expanded (workload, config) point of an experiment grid."""

    index: int
    workload: str
    config: SimulationConfig


@dataclass
class ExperimentSpec:
    """A declarative experiment: workloads x config overrides.

    Attributes:
        workloads: registry names, or the string ``"all"``.
        axes: override dicts from :func:`grid`/:func:`zip_axes`/
            :func:`cases` (lists concatenate with ``+``); the default
            single empty override runs the base config once.
        base: config fields shared by every cell.
        engine: a legacy sweep engine name ("machine" or "trace"),
            accepted so older spec files and service journals still
            load; every sweep runs the same computation, so it changes
            nothing and :meth:`to_dict` does not write it.
        executor: executor name ("serial", "parallel", or "caching");
            ``None`` (the default) picks "parallel" when ``jobs`` > 1,
            else "serial".
        jobs: worker processes for the parallel executor.
        fast: disable event/trace recording in every cell.
        max_blocks: optional per-cell block budget.
        name: spec name, carried into the result-set metadata.
        store: persistent result-store directory (``repro.store``);
            ``""`` selects the default location, ``None`` leaves the
            choice to the runner (CLI flags / ``$REPRO_STORE_DIR``).
    """

    workloads: Union[str, Sequence[str]] = "all"
    axes: Sequence[Mapping[str, Any]] = field(
        default_factory=lambda: [{}]
    )
    base: Mapping[str, Any] = field(default_factory=dict)
    engine: str = "machine"
    executor: Optional[str] = None
    jobs: int = 1
    fast: bool = True
    max_blocks: Optional[int] = None
    name: str = "experiment"
    store: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine not in _LEGACY_ENGINES:
            raise SpecError(
                f"unknown sweep engine '{self.engine}'; "
                f"available: {_LEGACY_ENGINES}"
            )
        from .executor import EXECUTORS  # late: avoid import cycle

        if self.jobs < 1:
            raise SpecError(f"jobs must be >= 1, got {self.jobs}")
        if self.executor is None:
            self.executor = "parallel" if self.jobs > 1 else "serial"
        if self.executor not in EXECUTORS:
            raise SpecError(
                f"unknown executor '{self.executor}'; "
                f"available: {EXECUTORS.names()}"
            )
        for name in self.workload_names():
            if name not in WORKLOADS:
                raise SpecError(
                    f"unknown workload '{name}'; "
                    f"available: {WORKLOADS.names()}"
                )
        # Fail fast on malformed configs at spec-build time, not midway
        # through a long grid.
        self.configs()

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def workload_names(self) -> List[str]:
        """The resolved workload name list ("all" expands the registry)."""
        if isinstance(self.workloads, str):
            if self.workloads == "all":
                return WORKLOADS.names()
            return [self.workloads]
        return list(self.workloads)

    def configs(self) -> List[SimulationConfig]:
        """One validated :class:`SimulationConfig` per override dict."""
        configs = []
        for override in self.axes:
            fields = {**dict(self.base), **dict(override)}
            unknown = [k for k in fields if k not in CONFIG_FIELDS]
            if unknown:
                raise SpecError(
                    f"unknown config field(s) {unknown}; "
                    f"valid fields: {sorted(CONFIG_FIELDS)}"
                )
            if "k_compress" in fields:
                fields["k_compress"] = parse_k(
                    fields["k_compress"], field_name="k_compress"
                )
            try:
                configs.append(SimulationConfig(**fields))
            except ConfigError as exc:
                raise SpecError(f"invalid config {fields}: {exc}") from exc
        if not configs:
            raise SpecError("spec expands to zero configurations")
        return configs

    def cells(self) -> List[Cell]:
        """The full grid in deterministic, workload-major order."""
        configs = self.configs()
        out: List[Cell] = []
        for workload in self.workload_names():
            for config in configs:
                out.append(Cell(len(out), workload, config))
        return out

    def partitions(self) -> List[Tuple[str, List[SimulationConfig]]]:
        """Cells grouped by workload — the unit of parallel dispatch,
        preserving the trace-replay and shared-artifact reuse that works
        within one workload's grid row."""
        configs = self.configs()
        return [(name, configs) for name in self.workload_names()]

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from a JSON-shaped mapping.

        ``axes`` may be ``{"grid": {...}}``, ``{"zip": {...}}``,
        ``{"cases": [...]}``, or a list of such blocks (concatenated).
        """
        if not isinstance(data, Mapping):
            raise SpecError(
                f"spec must be a mapping, got {type(data).__name__}"
            )
        known = {
            "workloads", "axes", "base", "engine", "executor",
            "jobs", "fast", "max_blocks", "name", "store",
        }
        unknown = [k for k in data if k not in known]
        if unknown:
            raise SpecError(
                f"unknown spec key(s) {unknown}; valid: {sorted(known)}"
            )
        kwargs: Dict[str, Any] = {
            k: data[k] for k in known & set(data) if k != "axes"
        }
        if "axes" in data:
            kwargs["axes"] = _expand_axes_blocks(data["axes"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        """Load a JSON spec file."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise SpecError(f"cannot parse spec {path}: {exc}") from exc
        spec = cls.from_dict(data)
        if "name" not in data:
            spec.name = path
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped form (axes already expanded to cases)."""
        return {
            "name": self.name,
            "workloads": self.workload_names(),
            "base": dict(self.base),
            "axes": {"cases": [dict(o) for o in self.axes]},
            "executor": self.executor,
            "jobs": self.jobs,
            "fast": self.fast,
            "max_blocks": self.max_blocks,
            "store": self.store,
        }


def _expand_axes_blocks(data: Any) -> List[Dict[str, Any]]:
    """Expand the JSON ``axes`` value into a list of override dicts."""
    if isinstance(data, Mapping):
        blocks: Sequence[Mapping[str, Any]] = [data]
    elif isinstance(data, Sequence) and not isinstance(data, str):
        blocks = list(data)
    else:
        raise SpecError(
            f"axes must be an axis block or a list of blocks, "
            f"got {type(data).__name__}"
        )
    out: List[Dict[str, Any]] = []
    for block in blocks:
        if not isinstance(block, Mapping) or len(block) != 1:
            raise SpecError(
                "each axes block must be exactly one of "
                '{"grid": {...}}, {"zip": {...}}, {"cases": [...]}'
            )
        op, value = next(iter(block.items()))
        if op == "grid":
            out.extend(grid(**value))
        elif op == "zip":
            out.extend(zip_axes(**value))
        elif op == "cases":
            out.extend(cases(*value))
        else:
            raise SpecError(
                f"unknown axes operator '{op}'; "
                f"valid: 'grid', 'zip', 'cases'"
            )
    return out
