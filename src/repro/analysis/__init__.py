"""Analysis helpers: parameter sweeps and table/series reporting."""

from .energy import EnergyModel
from .plot import plot_series, plot_timeline, sparkline
from .report import Series, Table, percent
from .sweep import (
    SweepResult,
    SweepRun,
    geometric_mean,
    mean,
    run_one,
    sweep,
)

__all__ = [
    "EnergyModel",
    "Series",
    "SweepResult",
    "SweepRun",
    "Table",
    "geometric_mean",
    "mean",
    "percent",
    "plot_series",
    "plot_timeline",
    "run_one",
    "sparkline",
    "sweep",
]
