"""Instruction set definition for the embedded target machine.

The paper assumes an embedded CPU executing a conventional binary but never
pins down the ISA.  We define a small 32-bit fixed-width RISC-like ISA that
captures everything the compression study needs:

* fixed 4-byte instructions (so block sizes are proportional to instruction
  counts, as on ARM/MIPS targets the paper cites);
* explicit branch instructions whose encoded target addresses must be patched
  when a basic block moves between its compressed and decompressed locations
  (Section 5 of the paper);
* enough arithmetic/memory operations to write realistic embedded kernels.

Registers are named ``r0`` .. ``r15``.  By convention (enforced only by the
kernels, not the hardware):

* ``r13`` is the stack pointer (``sp``),
* ``r15`` is the link register (``ra``) written by ``CALL``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

#: Number of general-purpose registers.
NUM_REGISTERS = 16

#: Size of every encoded instruction in bytes (fixed-width ISA).
INSTRUCTION_SIZE = 4

#: Conventional stack-pointer register index.
SP = 13

#: Conventional link-register index (written by CALL, read by RET).
RA = 15


class Opcode(enum.IntEnum):
    """Operation codes of the target ISA.

    The integer values are the encoded opcode bytes and are part of the
    binary format; do not renumber existing entries.
    """

    NOP = 0x00

    # Register-register ALU operations: rd <- rs1 op rs2
    ADD = 0x01
    SUB = 0x02
    MUL = 0x03
    DIV = 0x04
    MOD = 0x05
    AND = 0x06
    OR = 0x07
    XOR = 0x08
    SHL = 0x09
    SHR = 0x0A
    SLT = 0x0B  # rd <- 1 if rs1 < rs2 else 0 (signed)

    # Register-immediate ALU operations: rd <- rs1 op imm
    ADDI = 0x10
    SUBI = 0x11
    MULI = 0x12
    ANDI = 0x13
    ORI = 0x14
    XORI = 0x15
    SHLI = 0x16
    SHRI = 0x17
    SLTI = 0x18

    # Data movement
    LI = 0x20    # rd <- sign-extended 16-bit immediate
    LUI = 0x21   # rd <- imm << 16
    MOV = 0x22   # rd <- rs1

    # Memory access (word-granular data memory, byte addressed)
    LD = 0x30    # rd <- mem[rs1 + imm]
    ST = 0x31    # mem[rs1 + imm] <- rs2

    # Control flow (all are basic-block terminators except CALL)
    BEQ = 0x40   # if rs1 == rs2 goto target
    BNE = 0x41
    BLT = 0x42   # signed <
    BGE = 0x43   # signed >=
    JMP = 0x48   # unconditional goto target
    CALL = 0x49  # ra <- return address; goto target
    RET = 0x4A   # goto ra
    HALT = 0x4F


#: Opcodes taking rd, rs1, rs2.
REG_REG_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.MOD,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.SLT,
    }
)

#: Opcodes taking rd, rs1, imm.
REG_IMM_OPS = frozenset(
    {
        Opcode.ADDI,
        Opcode.SUBI,
        Opcode.MULI,
        Opcode.ANDI,
        Opcode.ORI,
        Opcode.XORI,
        Opcode.SHLI,
        Opcode.SHRI,
        Opcode.SLTI,
    }
)

#: Conditional branch opcodes (two register sources + target).
CONDITIONAL_BRANCHES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE}
)

#: All opcodes that carry an encoded code address that must be patched when
#: the destination block is relocated.
BRANCH_OPS = CONDITIONAL_BRANCHES | {Opcode.JMP, Opcode.CALL}

#: Opcodes that terminate a basic block (control may not fall through, or may
#: fall through only as one of two successors).
BLOCK_TERMINATORS = CONDITIONAL_BRANCHES | {
    Opcode.JMP,
    Opcode.RET,
    Opcode.HALT,
}


class CycleCosts:
    """Per-instruction base cycle costs charged by the machine.

    Values follow a simple in-order embedded core model: single-cycle ALU,
    two-cycle memory, two-cycle taken control flow, multi-cycle multiply and
    divide.
    """

    ALU = 1
    MUL = 3
    DIV = 8
    MEM = 2
    BRANCH = 2
    CALL = 2
    RET = 2
    HALT = 1
    DEFAULT = 1

    _TABLE = {
        Opcode.MUL: MUL,
        Opcode.MULI: MUL,
        Opcode.DIV: DIV,
        Opcode.MOD: DIV,
        Opcode.LD: MEM,
        Opcode.ST: MEM,
        Opcode.BEQ: BRANCH,
        Opcode.BNE: BRANCH,
        Opcode.BLT: BRANCH,
        Opcode.BGE: BRANCH,
        Opcode.JMP: BRANCH,
        Opcode.CALL: CALL,
        Opcode.RET: RET,
        Opcode.HALT: HALT,
    }

    @classmethod
    def cost(cls, opcode: Opcode) -> int:
        """Return the base cycle cost of ``opcode``."""
        return cls._TABLE.get(opcode, cls.DEFAULT)


@dataclass(frozen=True)
class Instruction:
    """A single decoded instruction.

    ``target`` holds a *label name* between assembly and link time, and is
    resolved to a byte address stored in ``imm`` when the program is laid
    out.  After resolution ``target`` is kept for readability in traces.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    target: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("rd", "rs1", "rs2"):
            value = getattr(self, name)
            if not 0 <= value < NUM_REGISTERS:
                raise ValueError(
                    f"register operand {name}={value} out of range "
                    f"[0, {NUM_REGISTERS})"
                )
        if not -(1 << 31) <= self.imm < (1 << 31):
            raise ValueError(f"immediate {self.imm} does not fit in 32 bits")

    @property
    def is_branch(self) -> bool:
        """True if this instruction carries a patchable code address."""
        return self.opcode in BRANCH_OPS

    @property
    def is_conditional(self) -> bool:
        """True for the conditional branch opcodes."""
        return self.opcode in CONDITIONAL_BRANCHES

    @property
    def is_terminator(self) -> bool:
        """True if this instruction ends a basic block."""
        return self.opcode in BLOCK_TERMINATORS

    @property
    def cycles(self) -> int:
        """Base cycle cost of executing this instruction."""
        return CycleCosts.cost(self.opcode)

    def with_imm(self, imm: int) -> "Instruction":
        """Return a copy with ``imm`` replaced (used by the linker/patcher)."""
        return replace(self, imm=imm)

    def render(self) -> str:
        """Render a human-readable assembly form of this instruction."""
        op = self.opcode.name.lower()
        if self.opcode in REG_REG_OPS:
            return f"{op} r{self.rd}, r{self.rs1}, r{self.rs2}"
        if self.opcode in REG_IMM_OPS:
            return f"{op} r{self.rd}, r{self.rs1}, {self.imm}"
        if self.opcode in (Opcode.LI, Opcode.LUI):
            return f"{op} r{self.rd}, {self.imm}"
        if self.opcode is Opcode.MOV:
            return f"{op} r{self.rd}, r{self.rs1}"
        if self.opcode is Opcode.LD:
            return f"{op} r{self.rd}, {self.imm}(r{self.rs1})"
        if self.opcode is Opcode.ST:
            return f"{op} r{self.rs2}, {self.imm}(r{self.rs1})"
        if self.opcode in CONDITIONAL_BRANCHES:
            dest = self.target if self.target is not None else hex(self.imm)
            return f"{op} r{self.rs1}, r{self.rs2}, {dest}"
        if self.opcode in (Opcode.JMP, Opcode.CALL):
            dest = self.target if self.target is not None else hex(self.imm)
            return f"{op} {dest}"
        return op

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


def _reg_reg(opcode: Opcode):
    def build(rd: int, rs1: int, rs2: int) -> Instruction:
        return Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2)

    build.__name__ = opcode.name.lower()
    build.__doc__ = f"Build a ``{opcode.name}`` instruction."
    return build


def _reg_imm(opcode: Opcode):
    def build(rd: int, rs1: int, imm: int) -> Instruction:
        return Instruction(opcode, rd=rd, rs1=rs1, imm=imm)

    build.__name__ = opcode.name.lower()
    build.__doc__ = f"Build a ``{opcode.name}`` instruction."
    return build


# Convenience constructors used by hand-written kernels and tests.  They make
# kernel sources read close to assembly without going through text parsing.
add = _reg_reg(Opcode.ADD)
sub = _reg_reg(Opcode.SUB)
mul = _reg_reg(Opcode.MUL)
div = _reg_reg(Opcode.DIV)
mod = _reg_reg(Opcode.MOD)
and_ = _reg_reg(Opcode.AND)
or_ = _reg_reg(Opcode.OR)
xor = _reg_reg(Opcode.XOR)
shl = _reg_reg(Opcode.SHL)
shr = _reg_reg(Opcode.SHR)
slt = _reg_reg(Opcode.SLT)

addi = _reg_imm(Opcode.ADDI)
subi = _reg_imm(Opcode.SUBI)
muli = _reg_imm(Opcode.MULI)
andi = _reg_imm(Opcode.ANDI)
ori = _reg_imm(Opcode.ORI)
xori = _reg_imm(Opcode.XORI)
shli = _reg_imm(Opcode.SHLI)
shri = _reg_imm(Opcode.SHRI)
slti = _reg_imm(Opcode.SLTI)


def li(rd: int, imm: int) -> Instruction:
    """Build an ``LI`` (load immediate) instruction."""
    return Instruction(Opcode.LI, rd=rd, imm=imm)


def lui(rd: int, imm: int) -> Instruction:
    """Build an ``LUI`` (load upper immediate) instruction."""
    return Instruction(Opcode.LUI, rd=rd, imm=imm)


def mov(rd: int, rs1: int) -> Instruction:
    """Build a ``MOV`` instruction."""
    return Instruction(Opcode.MOV, rd=rd, rs1=rs1)


def ld(rd: int, rs1: int, imm: int = 0) -> Instruction:
    """Build an ``LD`` (load word) instruction: ``rd <- mem[rs1 + imm]``."""
    return Instruction(Opcode.LD, rd=rd, rs1=rs1, imm=imm)


def st(rs2: int, rs1: int, imm: int = 0) -> Instruction:
    """Build an ``ST`` (store word) instruction: ``mem[rs1 + imm] <- rs2``."""
    return Instruction(Opcode.ST, rs1=rs1, rs2=rs2, imm=imm)


def beq(rs1: int, rs2: int, target: str) -> Instruction:
    """Build a ``BEQ`` instruction branching to label ``target``."""
    return Instruction(Opcode.BEQ, rs1=rs1, rs2=rs2, target=target)


def bne(rs1: int, rs2: int, target: str) -> Instruction:
    """Build a ``BNE`` instruction branching to label ``target``."""
    return Instruction(Opcode.BNE, rs1=rs1, rs2=rs2, target=target)


def blt(rs1: int, rs2: int, target: str) -> Instruction:
    """Build a ``BLT`` instruction branching to label ``target``."""
    return Instruction(Opcode.BLT, rs1=rs1, rs2=rs2, target=target)


def bge(rs1: int, rs2: int, target: str) -> Instruction:
    """Build a ``BGE`` instruction branching to label ``target``."""
    return Instruction(Opcode.BGE, rs1=rs1, rs2=rs2, target=target)


def jmp(target: str) -> Instruction:
    """Build a ``JMP`` instruction to label ``target``."""
    return Instruction(Opcode.JMP, target=target)


def call(target: str) -> Instruction:
    """Build a ``CALL`` instruction to label ``target``."""
    return Instruction(Opcode.CALL, target=target)


def ret() -> Instruction:
    """Build a ``RET`` instruction."""
    return Instruction(Opcode.RET)


def halt() -> Instruction:
    """Build a ``HALT`` instruction."""
    return Instruction(Opcode.HALT)


def nop() -> Instruction:
    """Build a ``NOP`` instruction."""
    return Instruction(Opcode.NOP)
