"""Shared fixtures and helpers for the experiment benchmarks (E1-E10).

Every experiment module produces a table (and usually a series per
workload), asserts the paper's qualitative *shape* claims, records the
rendered output under ``benchmarks/results/``, and registers one
pytest-benchmark timing anchor so ``pytest benchmarks/ --benchmark-only``
reports a stable per-experiment runtime.

Opt-in cache reuse: every experiment runs through the ``repro.api``
facade, so pointing ``REPRO_STORE_DIR`` at a persistent experiment
store serves previously computed grid cells from disk instead of
re-simulating them::

    REPRO_STORE_DIR=~/.cache/repro-store pytest benchmarks/ -q

The store invalidates by content (code version, program bytes, full
config, flags — see ``repro/store/__init__.py``), so cached cells are
always byte-identical to recomputed ones; leave the variable unset for
cold-run timings.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.workloads import (
    Workload,
    generate_sized_program,
    get_workload,
)
from repro.runtime.machine import Machine

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Kernels used by the headline experiments: medium-sized, loop- and
#: branch-rich, covering the paper's application shapes.
EXPERIMENT_KERNELS = (
    "composite",
    "cold_paths",
    "modular",
    "fsm",
    "dijkstra",
    "quicksort",
    "adpcm",
    "crc32",
)


def synthetic_workload(seed: int = 7, target_bytes: int = 6000) -> Workload:
    """A large generated application wrapped as a Workload.

    Generated programs have no hand-written oracle; ``check`` accepts any
    final state (transparency is asserted by the differential tests, not
    here).
    """
    program = generate_sized_program(seed=seed, target_bytes=target_bytes)

    def check(machine: Machine):
        return []

    return Workload(
        name=f"synth{target_bytes // 1000}k",
        description=f"generated app (~{program.size_bytes} B)",
        program=program,
        check=check,
    )


@pytest.fixture(scope="session")
def experiment_suite():
    """The kernel suite plus one large synthetic app."""
    workloads = [get_workload(name) for name in EXPERIMENT_KERNELS]
    workloads.append(synthetic_workload())
    return workloads


@pytest.fixture(scope="session")
def small_suite():
    """A cheaper three-workload suite for the expensive sweeps."""
    return [
        get_workload("composite"),
        get_workload("cold_paths"),
        synthetic_workload(target_bytes=4000),
    ]


def record_experiment(name: str, text: str) -> None:
    """Write an experiment's rendered output under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
