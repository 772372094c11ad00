"""The per-instruction opcode loop, frozen as a differential oracle.

This is the simulator's interpreter as it ran before basic blocks were
translated into closures (:mod:`repro.runtime.machine`):
:meth:`OpcodeMachine.run_block` sends every instruction of a block
through an ``if``/``elif`` chain over the opcodes, counting and
checking ``max_steps`` one instruction at a time, and reports the
successor with the block's cycles, instruction count and edge kind.
It shares no execution code with the translated machine, so
translated == opcode loop on traces, registers, data memory, step
counts and error text is a meaningful differential check
(``tests/properties/test_machine_equivalence.py``).

Frozen verbatim except for the class name and that
:class:`~repro.runtime.machine.MachineError` is imported, so both
machines raise one exception type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cfg.basic_block import BasicBlock
from repro.cfg.builder import ProgramCFG
from repro.isa.instructions import (
    INSTRUCTION_SIZE,
    Instruction,
    NUM_REGISTERS,
    Opcode,
    RA,
    SP,
)
from repro.runtime.machine import MachineError

_WORD_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class BlockOutcome:
    """Result of executing one basic block."""

    block_id: int
    next_block_id: Optional[int]  # None when the program halted
    cycles: int
    instructions: int
    edge_kind: str = "none"  # fallthrough / taken / jump / call / return


def _to_signed(value: int) -> int:
    value &= _WORD_MASK
    return value - 0x100000000 if value >= 0x80000000 else value


class OpcodeMachine:
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

    # ------------------------------------------------------------------
    # Memory helpers
    # ------------------------------------------------------------------

    def load_word(self, address: int) -> int:
        """Read the 32-bit word at byte ``address`` (must be aligned)."""
        index = self._word_index(address)
        return self.memory[index]

    def store_word(self, address: int, value: int) -> None:
        """Write the 32-bit word at byte ``address`` (must be aligned)."""
        index = self._word_index(address)
        self.memory[index] = _to_signed(value)

    def _word_index(self, address: int) -> int:
        if address % 4:
            raise MachineError(f"misaligned data access at {address:#x}")
        index = address // 4
        if not 0 <= index < len(self.memory):
            raise MachineError(f"data address {address:#x} out of range")
        return index

    # ------------------------------------------------------------------
    # Register helpers
    # ------------------------------------------------------------------

    def _set(self, register: int, value: int) -> None:
        self.registers[register] = _to_signed(value)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Reset registers, memory, halt flag and step counter."""
        self.registers = [0] * NUM_REGISTERS
        for index in range(len(self.memory)):
            self.memory[index] = 0
        self.registers[SP] = (len(self.memory) - 1) * 4
        self.steps = 0
        self.halted = False

    def run_block(self, block: BasicBlock) -> BlockOutcome:
        """Execute ``block`` to completion and report the successor.

        The successor is decided by the terminator (branch condition
        evaluated against live register state, RET via the link register,
        fall-through otherwise).
        """
        if self.halted:
            raise MachineError("machine is halted")
        registers = self.registers
        cycles = 0
        executed = 0

        for instr in block.instructions:
            op = instr.opcode
            cycles += instr.cycles
            executed += 1
            self.steps += 1
            if self.steps > self.max_steps:
                raise MachineError(
                    f"exceeded max_steps={self.max_steps} "
                    f"(infinite loop in '{self.cfg.name}'?)"
                )

            if op is Opcode.NOP:
                pass
            elif op is Opcode.ADD:
                self._set(instr.rd, registers[instr.rs1] + registers[instr.rs2])
            elif op is Opcode.SUB:
                self._set(instr.rd, registers[instr.rs1] - registers[instr.rs2])
            elif op is Opcode.MUL:
                self._set(instr.rd, registers[instr.rs1] * registers[instr.rs2])
            elif op is Opcode.DIV:
                divisor = registers[instr.rs2]
                if divisor == 0:
                    raise MachineError("division by zero")
                # Truncating division in exact integer arithmetic (C
                # semantics); float division would round for operands
                # beyond 2**53.
                dividend = registers[instr.rs1]
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                self._set(instr.rd, quotient)
            elif op is Opcode.MOD:
                divisor = registers[instr.rs2]
                if divisor == 0:
                    raise MachineError("modulo by zero")
                dividend = registers[instr.rs1]
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                self._set(instr.rd, dividend - quotient * divisor)
            elif op is Opcode.AND:
                self._set(instr.rd, registers[instr.rs1] & registers[instr.rs2])
            elif op is Opcode.OR:
                self._set(instr.rd, registers[instr.rs1] | registers[instr.rs2])
            elif op is Opcode.XOR:
                self._set(instr.rd, registers[instr.rs1] ^ registers[instr.rs2])
            elif op is Opcode.SHL:
                self._set(
                    instr.rd,
                    registers[instr.rs1] << (registers[instr.rs2] & 31),
                )
            elif op is Opcode.SHR:
                self._set(
                    instr.rd,
                    (registers[instr.rs1] & _WORD_MASK)
                    >> (registers[instr.rs2] & 31),
                )
            elif op is Opcode.SLT:
                self._set(
                    instr.rd,
                    1 if registers[instr.rs1] < registers[instr.rs2] else 0,
                )
            elif op is Opcode.ADDI:
                self._set(instr.rd, registers[instr.rs1] + instr.imm)
            elif op is Opcode.SUBI:
                self._set(instr.rd, registers[instr.rs1] - instr.imm)
            elif op is Opcode.MULI:
                self._set(instr.rd, registers[instr.rs1] * instr.imm)
            elif op is Opcode.ANDI:
                self._set(instr.rd, registers[instr.rs1] & instr.imm)
            elif op is Opcode.ORI:
                self._set(instr.rd, registers[instr.rs1] | instr.imm)
            elif op is Opcode.XORI:
                self._set(instr.rd, registers[instr.rs1] ^ instr.imm)
            elif op is Opcode.SHLI:
                self._set(instr.rd, registers[instr.rs1] << (instr.imm & 31))
            elif op is Opcode.SHRI:
                self._set(
                    instr.rd,
                    (registers[instr.rs1] & _WORD_MASK) >> (instr.imm & 31),
                )
            elif op is Opcode.SLTI:
                self._set(
                    instr.rd, 1 if registers[instr.rs1] < instr.imm else 0
                )
            elif op is Opcode.LI:
                self._set(instr.rd, instr.imm)
            elif op is Opcode.LUI:
                self._set(instr.rd, (instr.imm & 0xFFFF) << 16)
            elif op is Opcode.MOV:
                self._set(instr.rd, registers[instr.rs1])
            elif op is Opcode.LD:
                self._set(
                    instr.rd,
                    self.load_word(registers[instr.rs1] + instr.imm),
                )
            elif op is Opcode.ST:
                self.store_word(
                    registers[instr.rs1] + instr.imm, registers[instr.rs2]
                )
            elif op is Opcode.HALT:
                self.halted = True
                return BlockOutcome(
                    block.block_id, None, cycles, executed, "none"
                )
            elif op is Opcode.BEQ or op is Opcode.BNE or \
                    op is Opcode.BLT or op is Opcode.BGE:
                taken = self._evaluate_branch(instr)
                if taken:
                    dest = self.cfg.block_at_address(instr.imm)
                    return BlockOutcome(
                        block.block_id, dest.block_id, cycles, executed,
                        "taken",
                    )
                next_block = self.cfg.block_starting_at(block.end_index)
                return BlockOutcome(
                    block.block_id, next_block.block_id, cycles, executed,
                    "fallthrough",
                )
            elif op is Opcode.JMP:
                dest = self.cfg.block_at_address(instr.imm)
                return BlockOutcome(
                    block.block_id, dest.block_id, cycles, executed, "jump"
                )
            elif op is Opcode.CALL:
                return_address = block.end_index * INSTRUCTION_SIZE
                self._set(RA, return_address)
                dest = self.cfg.block_at_address(instr.imm)
                return BlockOutcome(
                    block.block_id, dest.block_id, cycles, executed, "call"
                )
            elif op is Opcode.RET:
                dest = self.cfg.block_starting_at(
                    self.cfg.program.index_of_address(registers[RA])
                )
                return BlockOutcome(
                    block.block_id, dest.block_id, cycles, executed,
                    "return",
                )
            else:  # pragma: no cover - all opcodes handled above
                raise MachineError(f"unhandled opcode {op!r}")

        # Block ended without a terminator: fall through in layout order.
        next_block = self.cfg.block_starting_at(block.end_index)
        return BlockOutcome(
            block.block_id, next_block.block_id, cycles, executed,
            "fallthrough",
        )

    def _evaluate_branch(self, instr: Instruction) -> bool:
        a = self.registers[instr.rs1]
        b = self.registers[instr.rs2]
        op = instr.opcode
        if op is Opcode.BEQ:
            return a == b
        if op is Opcode.BNE:
            return a != b
        if op is Opcode.BLT:
            return a < b
        return a >= b  # BGE
