"""Shared fixtures for the test suite."""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.cfg import build_cfg
from repro.isa import assemble

#: The bench and the smoke gates are scripts in ``benchmarks/perf/``,
#: outside the package; their tests import them as top-level modules.
sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf")
)

#: Small two-loop program mirroring the paper's Figure 1 shape:
#: entry -> branch -> (left loop | right block) -> join -> back edge.
FIGURE1_SOURCE = """
main:                  ; B0
    li   r1, 3
    li   r2, 0
    andi r3, r1, 1
    beq  r3, r0, right
left:                  ; B1 - left arm, self loop
    addi r2, r2, 1
    subi r1, r1, 1
    bne  r1, r0, left
    jmp  join
right:                 ; B2
    addi r2, r2, 10
join:                  ; B3
    addi r4, r4, 1
    slti r5, r4, 4
    bne  r5, r0, main_back
    halt
main_back:             ; B5
    li   r1, 3
    jmp  left
"""

#: The Figure 5 program: B0 <-> B1 loop then exit through B3.
FIGURE5_SOURCE = """
main:                  ; B0
    addi r1, r1, 1
    slti r2, r1, 3
    beq  r2, r0, exit_path
body:                  ; B1
    addi r3, r3, 5
    jmp  main
exit_path:             ; B3-ish
    addi r4, r4, 7
    halt
"""


@pytest.fixture
def figure1_program():
    return assemble(FIGURE1_SOURCE, "figure1")


@pytest.fixture
def figure1_cfg(figure1_program):
    return build_cfg(figure1_program)


@pytest.fixture
def figure5_program():
    return assemble(FIGURE5_SOURCE, "figure5")


@pytest.fixture
def figure5_cfg(figure5_program):
    return build_cfg(figure5_program)


@pytest.fixture
def loop_program():
    return assemble(
        """
main:
    li   r1, 10
    li   r2, 0
loop:
    add  r2, r2, r1
    subi r1, r1, 1
    bne  r1, r0, loop
    call fn
    halt
fn:
    addi r3, r2, 5
    ret
""",
        "loop_demo",
    )


@pytest.fixture
def loop_cfg(loop_program):
    return build_cfg(loop_program)
