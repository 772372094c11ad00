"""Cycle-accounted interpreter for the target ISA, as threaded code.

:meth:`Machine.step` executes one basic block and returns its
successor's id; compression is invisible at this level.  Each block is
translated once per CFG (Ertl and Gregg, "The Structure and Performance
of Efficient Interpreters", JILP 5, 2003) into one closure per
instruction, ``NOP`` included, with registers and immediate bound and
the 32-bit wrap inlined, plus an exit closure that runs the terminator
(targets resolved at translation) or falls through.  The translation
is memoised on the CFG instance and binds only the CFG: memory size
and ``max_steps`` are read per machine at run time.
``max_steps`` is checked once per block; the block that would cross it
runs the instructions that fit, then raises, so an earlier fault wins.
Traces, state, faults and step counts are those of the opcode loop
frozen in ``tests/oracle/machine.py``.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Tuple

from ..cfg.basic_block import BasicBlock
from ..cfg.builder import ProgramCFG
from ..isa.instructions import (
    INSTRUCTION_SIZE,
    Instruction,
    NUM_REGISTERS,
    Opcode,
    RA,
    SP,
)

_CONDITIONS = {
    Opcode.BEQ: operator.eq, Opcode.BNE: operator.ne,
    Opcode.BLT: operator.lt, Opcode.BGE: operator.ge,
}


class MachineError(RuntimeError):
    """Raised on runtime faults: division by zero, bad memory access,
    runaway execution."""


def _wrap(value: int) -> int:
    """``value`` as a signed 32-bit word."""
    return ((value + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def _bad_address(address: int) -> str:
    if address % 4:
        return f"misaligned data access at {address:#x}"
    return f"data address {address:#x} out of range"


def _fault(position: int, message: str) -> MachineError:
    """A fault of a block's ``position``-th instruction (counts steps)."""
    error = MachineError(message)
    error.position = position
    return error


def _quotient(x: int, y: int) -> int:
    """``x / y`` truncated toward zero, exactly (floats round)."""
    quotient = abs(x) // abs(y)
    return -quotient if (x < 0) != (y < 0) else quotient


def _instruction(ins: Instruction, k: int) -> Callable:
    """Translate one non-control instruction, the block's ``k``-th."""
    op, d, a, b, i = ins.opcode, ins.rd, ins.rs1, ins.rs2, ins.imm
    if op is Opcode.NOP:
        def run(r, m):
            pass
    elif op is Opcode.ADD:
        def run(r, m):
            r[d] = ((r[a] + r[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.SUB:
        def run(r, m):
            r[d] = ((r[a] - r[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.MUL:
        def run(r, m):
            r[d] = ((r[a] * r[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.DIV:
        def run(r, m):
            y = r[b]
            if not y:
                raise _fault(k, "division by zero")
            r[d] = _wrap(_quotient(r[a], y))
    elif op is Opcode.MOD:
        def run(r, m):
            x, y = r[a], r[b]
            if not y:
                raise _fault(k, "modulo by zero")
            r[d] = _wrap(x - _quotient(x, y) * y)
    elif op is Opcode.AND:
        def run(r, m):
            r[d] = (((r[a] & r[b]) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.OR:
        def run(r, m):
            r[d] = (((r[a] | r[b]) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.XOR:
        def run(r, m):
            r[d] = (((r[a] ^ r[b]) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.SHL:
        def run(r, m):
            r[d] = _wrap(r[a] << (r[b] & 31))
    elif op is Opcode.SHR:
        def run(r, m):
            r[d] = _wrap((r[a] & 0xFFFFFFFF) >> (r[b] & 31))
    elif op is Opcode.SLT:
        def run(r, m):  # 0 or 1: already a word
            r[d] = 1 if r[a] < r[b] else 0
    elif op is Opcode.ADDI or op is Opcode.SUBI:
        i = i if op is Opcode.ADDI else -i
        def run(r, m):
            r[d] = ((r[a] + i + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.MULI:
        def run(r, m):
            r[d] = ((r[a] * i + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.ANDI:
        def run(r, m):
            r[d] = (((r[a] & i) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.ORI:
        def run(r, m):
            r[d] = (((r[a] | i) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.XORI:
        def run(r, m):
            r[d] = (((r[a] ^ i) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.SHLI:
        s = i & 31
        def run(r, m):
            r[d] = (((r[a] << s) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.SHRI:
        s = i & 31
        def run(r, m):
            v = (r[a] & 0xFFFFFFFF) >> s
            r[d] = ((v + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.SLTI:
        def run(r, m):
            r[d] = 1 if r[a] < i else 0
    elif op is Opcode.LI or op is Opcode.LUI:
        value = _wrap(i if op is Opcode.LI else (i & 0xFFFF) << 16)
        def run(r, m):
            r[d] = value
    elif op is Opcode.MOV:
        def run(r, m):
            r[d] = ((r[a] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.LD:
        def run(r, m):
            address = r[a] + i
            if address & 3 or not 0 <= address < len(m) << 2:
                raise _fault(k, _bad_address(address))
            r[d] = ((m[address >> 2] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.ST:
        def run(r, m):
            address = r[a] + i
            if address & 3 or not 0 <= address < len(m) << 2:
                raise _fault(k, _bad_address(address))
            m[address >> 2] = ((r[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    return run


def _exit(cfg: ProgramCFG, block: BasicBlock, starts: Dict) -> Callable:
    """Translate ``block``'s exit: its control instruction, else a
    fall-through.  ``starts`` maps block start addresses to ids."""
    ins = block.terminator
    op, a, b = ins.opcode, ins.rs1, ins.rs2
    end = block.end_index
    fall = starts.get(end * INSTRUCTION_SIZE)
    taken = cfg.block_at_address(ins.imm).block_id if ins.is_branch else None
    if op is Opcode.HALT:
        return lambda r: None
    if op is Opcode.JMP:
        return lambda r: taken
    if op is Opcode.RET:
        def leave(r):
            target = starts.get(r[RA])
            if target is None:  # raises the program's or the CFG's error
                return cfg.block_starting_at(
                    cfg.program.index_of_address(r[RA])
                ).block_id
            return target
    elif op is Opcode.CALL:
        link = _wrap(end * INSTRUCTION_SIZE)

        def leave(r):
            r[RA] = link
            return taken
    elif op in _CONDITIONS:
        test = _CONDITIONS[op]

        def leave(r):
            return taken if test(r[a], r[b]) else fall
    else:
        def leave(r):
            return fall
    if fall is not None or op is Opcode.RET or op is Opcode.CALL:
        return leave  # never falls past the last block

    def fall_off(r):  # no block follows: raises when it executes
        target = leave(r)
        if target is None:
            return cfg.block_starting_at(end).block_id
        return target
    return fall_off


def _translate(cfg: ProgramCFG) -> Tuple[tuple, ...]:
    """Per block id: its closures bar the control instruction, its exit
    and its instruction count."""
    starts = {block.start_address: block.block_id for block in cfg.blocks}
    code = []
    for block in cfg.blocks:
        body = block.instructions
        if body[-1].is_terminator or body[-1].opcode is Opcode.CALL:
            body = body[:-1]
        code.append((
            tuple(_instruction(ins, k) for k, ins in enumerate(body, 1)),
            _exit(cfg, block, starts),
            len(block.instructions),
        ))
    return tuple(code)


class Machine:
    """The execution thread's CPU model.

    ``data_words`` sizes the byte-addressed data memory (word granular).
    ``max_steps`` bounds total executed instructions to catch runaway
    kernels deterministically.
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        data_words: int = 1 << 16,
        max_steps: int = 50_000_000,
    ) -> None:
        self.cfg = cfg
        self.registers: List[int] = [0] * NUM_REGISTERS
        self.memory: List[int] = [0] * data_words
        self.max_steps = max_steps
        self.steps = 0
        self.halted = False
        # Stack pointer starts at the top of data memory.
        self.registers[SP] = (data_words - 1) * 4
        # Memoised on the CFG instance: exit closures reference the
        # CFG, so a table keyed on it would keep it alive.
        self._code = getattr(cfg, "_translated", None)
        if self._code is None:
            self._code = cfg._translated = _translate(cfg)

    def load_word(self, address: int) -> int:
        """Read the 32-bit word at byte ``address`` (must be aligned)."""
        return self.memory[self._word_index(address)]

    def store_word(self, address: int, value: int) -> None:
        """Write the 32-bit word at byte ``address`` (must be aligned)."""
        self.memory[self._word_index(address)] = _wrap(value)

    def _word_index(self, address: int) -> int:
        if address % 4 or not 0 <= address // 4 < len(self.memory):
            raise MachineError(_bad_address(address))
        return address // 4

    def reset(self) -> None:
        """Reset registers, memory, halt flag and step counter."""
        self.registers = [0] * NUM_REGISTERS
        self.memory[:] = [0] * len(self.memory)
        self.registers[SP] = (len(self.memory) - 1) * 4
        self.steps = 0
        self.halted = False

    def step(self, block_id: int) -> Optional[int]:
        """Execute block ``block_id``; return its successor's id, or
        None when the program halted."""
        if self.halted:
            raise MachineError("machine is halted")
        body, leave, size = self._code[block_id]
        steps = self.steps
        limit = self.max_steps
        if steps + size > limit:
            # Run the instructions that fit, then fail on the next one.
            body = body[:max(limit - steps, 0)]
            leave = None
            size = len(body) + 1
        self.steps = steps + size
        registers, memory = self.registers, self.memory
        try:
            for run in body:
                run(registers, memory)
        except MachineError as error:
            self.steps = steps + error.position
            raise
        if leave is None:
            raise MachineError(
                f"exceeded max_steps={limit} "
                f"(infinite loop in '{self.cfg.name}'?)"
            )
        target = leave(registers)
        if target is None:
            self.halted = True
        return target
