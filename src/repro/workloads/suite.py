"""The workload suite: registry of embedded benchmark kernels.

The paper's problem setting is "large-scale embedded applications with
complex control structures" — the suite mirrors the classic embedded
benchmark mix (MediaBench/MiBench-era kernels): filtering, CRC, sorting,
graph search, coding, string processing, a state machine, and a
many-function modular application.  Every kernel:

* is hand-written in the target assembly (via :mod:`repro.isa`),
* initialises its own input data in code (the ISA has no data loader),
* computes a result that its ``check`` function verifies against a pure
  Python reference implementation, so simulations are self-validating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..isa.program import Program
from ..registry import Registry
from ..runtime.machine import Machine


@dataclass
class Workload:
    """A benchmark kernel: program + validation oracle."""

    name: str
    description: str
    program: Program
    #: Validates the final machine state; returns a list of problems
    #: (empty = correct run).
    check: Callable[[Machine], List[str]]

    def validate(self, machine: Machine) -> List[str]:
        """Run the oracle against ``machine``'s final state."""
        return self.check(machine)


#: The workload family, in the unified component catalog.
WORKLOADS = Registry("workloads")


def register_workload(name: str):
    """Decorator registering a zero-argument workload factory."""
    return WORKLOADS.register(name)


def get_workload(name: str) -> Workload:
    """Instantiate the workload registered under ``name``."""
    return WORKLOADS.create(name)


def available_workloads() -> List[str]:
    """Names of all registered workloads."""
    return WORKLOADS.names()


def full_suite() -> List[Workload]:
    """Instantiate every registered workload (the paper-style suite)."""
    return [get_workload(name) for name in available_workloads()]
