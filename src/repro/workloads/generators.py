"""Synthetic structured-program generator.

The hand-written kernels are faithful but small; the paper's setting is
"large-scale embedded applications with complex control structures".  This
generator produces arbitrarily large, always-terminating programs with:

* counted loops (nestable), whose trip counts are compile-time constants;
* data-dependent diamonds driven by an in-program LCG (deterministic but
  irregular branch outcomes, like real input-dependent code);
* calls to generated helper functions (some hot, some cold);
* straight-line filler blocks with realistic instruction mixes.

Generated programs have no hand-written oracle; the differential oracle is
used instead: a run under any compression configuration must produce
exactly the same final register state and block trace as the uncompressed
baseline (the integration tests rely on this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..isa import instructions as ins
from ..isa.program import Program, ProgramBuilder

#: Register allocation for generated code.  The LCG state and the live
#: accumulator must never be clobbered by filler.
_LCG_REG = 1       # pseudo-random state (live across the whole program)
_COND_REG = 2      # branch condition scratch
_ACC_REG = 14      # live accumulator (observable result)
_SCRATCH = (3, 4, 5, 6, 7)   # filler-only registers
_LOOP_REGS = (11, 12, 10, 8)  # loop counters by nesting depth

_LCG_MULT = 1103515245
_LCG_INC = 12345
_LCG_MASK_HI = 0x7FFF
_LCG_MASK_LO = 0xFFFF
_LCG_CONST_REG = 9  # holds the multiplier


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable shape of generated programs.

    ``segments`` top-level constructs are emitted; each is a loop, a
    diamond, a call, or a straight block, chosen with the given
    probabilities (straight-line takes the remainder).
    """

    seed: int = 1
    segments: int = 14
    max_loop_depth: int = 2
    loop_prob: float = 0.40
    branch_prob: float = 0.30
    call_prob: float = 0.12
    block_instrs: Tuple[int, int] = (4, 14)
    loop_iters: Tuple[int, int] = (3, 10)
    functions: int = 4
    function_instrs: Tuple[int, int] = (8, 24)

    def __post_init__(self) -> None:
        if self.segments < 1:
            raise ValueError("segments must be >= 1")
        if not 0 <= self.loop_prob + self.branch_prob + self.call_prob <= 1:
            raise ValueError("segment probabilities must sum to <= 1")
        if self.max_loop_depth < 0 or self.max_loop_depth > len(_LOOP_REGS):
            raise ValueError(
                f"max_loop_depth must be in [0, {len(_LOOP_REGS)}]"
            )


class _Generator:
    def __init__(self, config: GeneratorConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.builder = ProgramBuilder(f"synthetic-{config.seed}")
        # Real code draws constants from a small per-program palette
        # (offsets, strides, masks recur); random immediates would make
        # the synthetic code artificially incompressible.
        self._imm_palette = [
            self.rng.randrange(-128, 128) for _ in range(10)
        ]
        self._mask_palette = [
            self.rng.randrange(0, 0x4000) for _ in range(6)
        ]

    # -- filler ---------------------------------------------------------

    def _filler_instruction(self):
        rng = self.rng
        rd = rng.choice(_SCRATCH)
        rs1 = rng.choice(_SCRATCH)
        rs2 = rng.choice(_SCRATCH)
        kind = rng.randrange(8)
        if kind == 0:
            return ins.addi(rd, rs1, rng.choice(self._imm_palette))
        if kind == 1:
            return ins.muli(rd, rs1, rng.choice((2, 3, 4, 5, 8)))
        if kind == 2:
            return ins.xor(rd, rs1, rs2)
        if kind == 3:
            return ins.add(rd, rs1, rs2)
        if kind == 4:
            return ins.shli(rd, rs1, rng.choice((1, 2, 4)))
        if kind == 5:
            return ins.shri(rd, rs1, rng.choice((1, 2, 4)))
        if kind == 6:
            return ins.ori(rd, rs1, rng.choice(self._mask_palette))
        return ins.sub(rd, rs1, rs2)

    def _emit_block(self, count: int) -> None:
        for _ in range(count):
            self.builder.emit(self._filler_instruction())
        # One live accumulation so the block is observable.
        self.builder.emit(
            ins.addi(_ACC_REG, _ACC_REG, self.rng.choice((1, 3, 5, 7)))
        )

    def _emit_lcg_step(self) -> None:
        self.builder.emit(
            ins.mul(_LCG_REG, _LCG_REG, _LCG_CONST_REG),
            ins.addi(_LCG_REG, _LCG_REG, _LCG_INC),
            ins.shri(_LCG_REG, _LCG_REG, 1),  # keep it positive
        )

    # -- segments -------------------------------------------------------

    def _emit_segment(self, depth: int) -> None:
        rng = self.rng
        roll = rng.random()
        config = self.config
        if roll < config.loop_prob and depth < config.max_loop_depth:
            self._emit_loop(depth)
        elif roll < config.loop_prob + config.branch_prob:
            self._emit_diamond(depth)
        elif roll < (config.loop_prob + config.branch_prob
                     + config.call_prob) and self._function_labels:
            self.builder.emit(ins.call(rng.choice(self._function_labels)))
        else:
            self._emit_block(rng.randint(*config.block_instrs))

    def _emit_loop(self, depth: int) -> None:
        rng = self.rng
        counter = _LOOP_REGS[depth]
        iters = rng.randint(*self.config.loop_iters)
        head = self.builder.fresh_label("loop")
        self.builder.emit(ins.li(counter, iters))
        self.builder.label(head)
        for _ in range(rng.randint(1, 2)):
            self._emit_segment(depth + 1)
        self.builder.emit(
            ins.subi(counter, counter, 1),
            ins.bne(counter, 0, head),
        )

    def _emit_diamond(self, depth: int) -> None:
        rng = self.rng
        else_label = self.builder.fresh_label("else")
        join_label = self.builder.fresh_label("join")
        self._emit_lcg_step()
        bit = rng.randrange(1, 4)
        self.builder.emit(
            ins.andi(_COND_REG, _LCG_REG, (1 << bit)),
            ins.beq(_COND_REG, 0, else_label),
        )
        self._emit_block(rng.randint(*self.config.block_instrs))
        self.builder.emit(ins.jmp(join_label))
        self.builder.label(else_label)
        self._emit_block(rng.randint(*self.config.block_instrs))
        self.builder.label(join_label)

    # -- functions ------------------------------------------------------

    def _emit_functions(self) -> None:
        self._function_labels: List[str] = []
        for index in range(self.config.functions):
            label = f"helper{index}"
            self._function_labels.append(label)

    def _emit_function_bodies(self) -> None:
        for label in self._function_labels:
            self.builder.label(label)
            self._emit_block(
                self.rng.randint(*self.config.function_instrs)
            )
            self.builder.emit(ins.ret())

    # -- top level ------------------------------------------------------

    def generate(self) -> Program:
        b = self.builder
        self._emit_functions()
        b.label("main")
        b.emit(
            ins.li(_LCG_REG, self.config.seed % 30000 + 7),
            ins.lui(_LCG_CONST_REG, _LCG_MULT >> 16),
            ins.ori(_LCG_CONST_REG, _LCG_CONST_REG, _LCG_MULT & 0xFFFF),
            ins.li(_ACC_REG, 0),
        )
        for scratch in _SCRATCH:
            b.emit(ins.li(scratch, scratch * 3 + 1))
        for _ in range(self.config.segments):
            self._emit_segment(0)
        b.emit(ins.halt())
        self._emit_function_bodies()
        return b.build()


def generate_program(config: GeneratorConfig) -> Program:
    """Generate a deterministic synthetic program from ``config``.

    The same config always yields the same program (seeded RNG), so
    experiments on synthetic workloads are reproducible.
    """
    return _Generator(config).generate()


def generate_sized_program(
    seed: int, target_bytes: int, **overrides
) -> Program:
    """Generate a program of roughly ``target_bytes`` of code.

    Scales the segment count until the target is met (within one
    iteration's granularity).  Useful for size-sweep experiments.
    """
    segments = max(2, target_bytes // 120)
    config = GeneratorConfig(seed=seed, segments=segments, **overrides)
    program = generate_program(config)
    while program.size_bytes < target_bytes:
        segments = int(segments * 1.5) + 1
        config = GeneratorConfig(seed=seed, segments=segments, **overrides)
        program = generate_program(config)
    return program
