"""Composite application: several kernels chained into one program.

Embedded applications are phase-structured (init, transform, encode, ...).
This workload chains four kernels — matmul, FIR, bubble sort, histogram —
into a single binary by prefixing each phase's labels and replacing its
``halt`` with a jump to the next phase.  Phases touch disjoint data
regions, so every phase's memory oracle still applies at the end.

This is the suite's "large application" shape: earlier phases' code goes
cold once they finish — exactly the pattern basic-block compression
exploits (Section 6's "large fraction of the code is rarely touched").
"""

from __future__ import annotations

import re
from typing import List

from ...isa.assembler import assemble
from ...runtime.machine import Machine
from ..suite import Workload, register_workload
from . import linalg, sorting, strings

_LABEL_DEF = re.compile(r"^\s*([A-Za-z_.$][\w.$]*):", re.MULTILINE)


def _prefix_phase(source: str, prefix: str, next_label: str) -> str:
    """Prefix all labels in ``source`` and chain ``halt`` to the next
    phase."""
    labels = set(_LABEL_DEF.findall(source))
    renamed = source
    # Longest-first avoids prefixing 'loop' inside 'outer_loop'.
    for label in sorted(labels, key=len, reverse=True):
        renamed = re.sub(
            rf"\b{re.escape(label)}\b", f"{prefix}_{label}", renamed
        )
    count = renamed.count("halt")
    if count != 1:
        raise ValueError(
            f"phase '{prefix}' must have exactly one halt, found {count}"
        )
    return renamed.replace("halt", f"jmp  {next_label}")


def _build_composite_source() -> str:
    phases = [
        ("mm", linalg._MATMUL_SOURCE),
        ("fir", linalg._FIR_SOURCE),
        ("srt", sorting._BUBBLE_SOURCE),
        ("hst", strings._HIST_SOURCE),
    ]
    parts: List[str] = ["main:", "    jmp  mm_main"]
    for index, (prefix, source) in enumerate(phases):
        if index + 1 < len(phases):
            next_label = f"{phases[index + 1][0]}_main"
        else:
            next_label = "app_done"
        parts.append(_prefix_phase(source, prefix, next_label))
    parts.append("app_done:")
    parts.append("    halt")
    return "\n".join(parts)


@register_workload("composite")
def build_composite() -> Workload:
    """Four-phase application (matmul -> fir -> sort -> histogram)."""

    def check(machine: Machine) -> List[str]:
        problems: List[str] = []
        # Phase oracles over their disjoint memory regions.
        for name, oracle in (
            ("matmul", linalg.build_matmul),
            ("fir", linalg.build_fir),
            ("bubble", sorting.build_bubble),
            ("histogram", strings.build_histogram),
        ):
            phase_problems = oracle().check(machine)
            # Register checks (r14 checksum) are only valid for the final
            # phase; drop checksum complaints from earlier phases.
            if name != "histogram":
                phase_problems = [
                    p for p in phase_problems if "checksum" not in p
                ]
            problems.extend(phase_problems)
        return problems

    return Workload(
        name="composite",
        description="4-phase app: matmul, fir, bubble sort, histogram",
        program=assemble(_build_composite_source(), "composite"),
        check=check,
    )
