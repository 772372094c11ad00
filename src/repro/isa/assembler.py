"""Two-pass text assembler for the target ISA.

The accepted syntax is a conventional assembly dialect::

    ; comments start with ';' or '#'
    main:
        li   r1, 100
    loop:
        subi r1, r1, 1
        bne  r1, r0, loop
        halt

Operand forms:

* registers: ``r0`` .. ``r15``, plus aliases ``sp`` (r13) and ``ra`` (r15);
* immediates: decimal or ``0x`` hexadecimal, optionally negative;
* memory operands: ``imm(rN)`` for ``ld``/``st``;
* branch targets: label names.

The assembler produces a linked :class:`~repro.isa.program.Program`.
"""

from __future__ import annotations

import re
from typing import Dict, List

from .instructions import (
    CONDITIONAL_BRANCHES,
    REG_IMM_OPS,
    REG_REG_OPS,
    Instruction,
    Opcode,
    RA,
    SP,
)
from .program import Program, ProgramBuilder, ProgramError


class AssemblyError(ProgramError):
    """Raised on a syntax or semantic error, with line information."""

    def __init__(self, message: str, line_number: int, line: str) -> None:
        super().__init__(f"line {line_number}: {message}: '{line.strip()}'")
        self.line_number = line_number
        self.line = line


_REGISTER_ALIASES = {"sp": SP, "ra": RA}
_MEM_OPERAND = re.compile(r"^(-?(?:0x[0-9a-fA-F]+|\d+))\(\s*(\w+)\s*\)$")
_LABEL_DEF = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$")
_MNEMONIC_ALIASES = {"and": "and_", "or": "or_"}

_OPCODES_BY_NAME: Dict[str, Opcode] = {op.name.lower(): op for op in Opcode}


def _parse_register(token: str, line_number: int, line: str) -> int:
    token = token.strip().lower()
    if token in _REGISTER_ALIASES:
        return _REGISTER_ALIASES[token]
    if token.startswith("r") and token[1:].isdigit():
        index = int(token[1:])
        if 0 <= index < 16:
            return index
    raise AssemblyError(f"bad register '{token}'", line_number, line)


def _parse_immediate(token: str, line_number: int, line: str) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(
            f"bad immediate '{token}'", line_number, line
        ) from None


def _split_operands(rest: str) -> List[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


def _parse_instruction(
    mnemonic: str, operands: List[str], line_number: int, line: str
) -> Instruction:
    opcode = _OPCODES_BY_NAME.get(mnemonic)
    if opcode is None:
        raise AssemblyError(f"unknown mnemonic '{mnemonic}'", line_number,
                            line)

    def need(count: int) -> None:
        if len(operands) != count:
            raise AssemblyError(
                f"'{mnemonic}' expects {count} operand(s), got "
                f"{len(operands)}",
                line_number,
                line,
            )

    if opcode in REG_REG_OPS:
        need(3)
        return Instruction(
            opcode,
            rd=_parse_register(operands[0], line_number, line),
            rs1=_parse_register(operands[1], line_number, line),
            rs2=_parse_register(operands[2], line_number, line),
        )
    if opcode in REG_IMM_OPS:
        need(3)
        return Instruction(
            opcode,
            rd=_parse_register(operands[0], line_number, line),
            rs1=_parse_register(operands[1], line_number, line),
            imm=_parse_immediate(operands[2], line_number, line),
        )
    if opcode in (Opcode.LI, Opcode.LUI):
        need(2)
        return Instruction(
            opcode,
            rd=_parse_register(operands[0], line_number, line),
            imm=_parse_immediate(operands[1], line_number, line),
        )
    if opcode is Opcode.MOV:
        need(2)
        return Instruction(
            opcode,
            rd=_parse_register(operands[0], line_number, line),
            rs1=_parse_register(operands[1], line_number, line),
        )
    if opcode in (Opcode.LD, Opcode.ST):
        need(2)
        match = _MEM_OPERAND.match(operands[1].replace(" ", ""))
        if not match:
            raise AssemblyError(
                f"bad memory operand '{operands[1]}'", line_number, line
            )
        imm = _parse_immediate(match.group(1), line_number, line)
        base = _parse_register(match.group(2), line_number, line)
        moved = _parse_register(operands[0], line_number, line)
        if opcode is Opcode.LD:
            return Instruction(opcode, rd=moved, rs1=base, imm=imm)
        return Instruction(opcode, rs2=moved, rs1=base, imm=imm)
    if opcode in CONDITIONAL_BRANCHES:
        need(3)
        return Instruction(
            opcode,
            rs1=_parse_register(operands[0], line_number, line),
            rs2=_parse_register(operands[1], line_number, line),
            target=operands[2],
        )
    if opcode in (Opcode.JMP, Opcode.CALL):
        need(1)
        return Instruction(opcode, target=operands[0])
    # NOP / RET / HALT
    need(0)
    return Instruction(opcode)


def assemble(
    source: str, name: str = "program", entry_label: str = "main"
) -> Program:
    """Assemble ``source`` text into a linked :class:`Program`.

    Raises :class:`AssemblyError` with line information on any malformed
    input, and :class:`~repro.isa.program.ProgramError` for program-level
    problems (missing entry label, undefined branch target).
    """
    builder = ProgramBuilder(name, entry_label=entry_label)
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split(";")[0].split("#")[0].strip()
        while line:
            label_match = _LABEL_DEF.match(line)
            if label_match:
                try:
                    builder.label(label_match.group(1))
                except ProgramError as exc:
                    raise AssemblyError(str(exc), line_number, raw_line) \
                        from exc
                line = label_match.group(2).strip()
                continue
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            operands = _split_operands(rest)
            builder.emit(
                _parse_instruction(mnemonic, operands, line_number, raw_line)
            )
            line = ""
    return builder.build()


def disassemble_to_source(program: Program) -> str:
    """Render ``program`` back into assembler-accepted text.

    Branch targets are rendered as labels where the program defines one at
    the destination, otherwise as synthesised ``.addr_<hex>`` labels.  The
    output re-assembles into an equivalent program (used for round-trip
    tests).
    """
    index_labels: Dict[int, str] = {}
    for label, index in program.labels.items():
        index_labels.setdefault(index, label)

    # Synthesise labels for branch destinations lacking one.
    for instr in program.instructions:
        if instr.is_branch:
            index = program.index_of_address(instr.imm)
            index_labels.setdefault(index, f".addr_{instr.imm:x}")

    lines: List[str] = []
    for index, instr in enumerate(program.instructions):
        if index in index_labels:
            lines.append(f"{index_labels[index]}:")
        if instr.is_branch:
            dest = index_labels[program.index_of_address(instr.imm)]
            if instr.is_conditional:
                lines.append(
                    f"    {instr.opcode.name.lower()} r{instr.rs1}, "
                    f"r{instr.rs2}, {dest}"
                )
            else:
                lines.append(f"    {instr.opcode.name.lower()} {dest}")
        else:
            lines.append(f"    {instr.render()}")
    return "\n".join(lines) + "\n"
