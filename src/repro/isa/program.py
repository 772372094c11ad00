"""Program container: instructions + labels + resolved layout.

A :class:`Program` is the unit handed to the CFG builder and to the memory
image.  It owns:

* the ordered instruction list,
* the label table (label name -> instruction index),
* the *layout*: each instruction's byte address in the original
  (uncompressed) image, with branch targets resolved into the encoded
  ``imm`` fields.

Programs are immutable after :meth:`Program.link`; relocation during
simulation is handled by the memory image, never by rewriting the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from .encoding import MAX_CODE_ADDRESS, encode_program
from .instructions import INSTRUCTION_SIZE, Instruction, Opcode


class ProgramError(ValueError):
    """Raised for malformed programs (duplicate/undefined labels, etc.)."""


@dataclass
class Program:
    """An assembled, linked program.

    Use :class:`ProgramBuilder` or :func:`repro.isa.assembler.assemble` to
    construct one; the constructor expects already-consistent data.
    """

    name: str
    instructions: List[Instruction]
    labels: Dict[str, int]
    entry_label: str = "main"

    def __post_init__(self) -> None:
        if self.entry_label not in self.labels:
            raise ProgramError(
                f"program '{self.name}' has no entry label "
                f"'{self.entry_label}'"
            )
        for label, index in self.labels.items():
            if not 0 <= index <= len(self.instructions):
                raise ProgramError(
                    f"label '{label}' points outside the program "
                    f"({index} / {len(self.instructions)})"
                )
        self._resolved = False

    def __getstate__(self) -> Dict[str, object]:
        # The CFG memoized on the instance by
        # repro.cfg.builder.build_cfg_cached is rebuilt on demand, never
        # copied or pickled along (worker processes get the bare
        # program).
        state = dict(self.__dict__)
        state.pop("_cfg_memo", None)
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def size_bytes(self) -> int:
        """Size of the uncompressed code image in bytes."""
        return len(self.instructions) * INSTRUCTION_SIZE

    @property
    def entry_index(self) -> int:
        """Instruction index of the entry point."""
        return self.labels[self.entry_label]

    def address_of_index(self, index: int) -> int:
        """Byte address of instruction ``index`` in the uncompressed image."""
        return index * INSTRUCTION_SIZE

    def index_of_address(self, address: int) -> int:
        """Instruction index corresponding to byte ``address``."""
        if address % INSTRUCTION_SIZE:
            raise ProgramError(f"misaligned code address {address:#x}")
        index = address // INSTRUCTION_SIZE
        if not 0 <= index < len(self.instructions):
            raise ProgramError(f"code address {address:#x} out of range")
        return index

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------

    def link(self) -> "Program":
        """Resolve every branch target label into a byte address.

        Returns ``self`` for chaining.  Idempotent.
        """
        if self._resolved:
            return self
        resolved: List[Instruction] = []
        for position, instr in enumerate(self.instructions):
            if instr.is_branch and instr.target is not None:
                if instr.target not in self.labels:
                    raise ProgramError(
                        f"undefined label '{instr.target}' referenced by "
                        f"instruction {position} ('{instr.render()}') in "
                        f"program '{self.name}'"
                    )
                address = self.address_of_index(self.labels[instr.target])
                if address > MAX_CODE_ADDRESS:
                    raise ProgramError(
                        f"program '{self.name}' too large: label "
                        f"'{instr.target}' at {address:#x} exceeds the "
                        f"16-bit branch range"
                    )
                resolved.append(instr.with_imm(address))
            else:
                resolved.append(instr)
        self.instructions = resolved
        self._resolved = True
        return self

    @property
    def is_linked(self) -> bool:
        """True once :meth:`link` has run."""
        return self._resolved

    def encode(self) -> bytes:
        """Encode the linked program into its binary image."""
        if not self._resolved:
            raise ProgramError(
                f"program '{self.name}' must be linked before encoding"
            )
        return encode_program(self.instructions)

    def disassemble(self) -> str:
        """Return a printable listing with labels and addresses."""
        index_to_label: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            index_to_label.setdefault(index, []).append(label)
        lines: List[str] = []
        for index, instr in enumerate(self.instructions):
            for label in sorted(index_to_label.get(index, ())):
                lines.append(f"{label}:")
            address = self.address_of_index(index)
            lines.append(f"  {address:#06x}  {instr.render()}")
        return "\n".join(lines)


class ProgramBuilder:
    """Incremental builder used by hand-written kernels and generators.

    Example::

        b = ProgramBuilder("count")
        b.label("main")
        b.emit(li(1, 10))
        b.label("loop")
        b.emit(subi(1, 1, 1))
        b.emit(bne(1, 0, "loop"))
        b.emit(halt())
        program = b.build()
    """

    def __init__(self, name: str, entry_label: str = "main") -> None:
        self.name = name
        self.entry_label = entry_label
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._fresh = 0

    def label(self, name: str) -> "ProgramBuilder":
        """Define ``name`` at the current position."""
        if name in self._labels:
            raise ProgramError(
                f"duplicate label '{name}' in program '{self.name}'"
            )
        self._labels[name] = len(self._instructions)
        return self

    def fresh_label(self, hint: str = "L") -> str:
        """Return a unique, not-yet-defined label name."""
        while True:
            name = f".{hint}{self._fresh}"
            self._fresh += 1
            if name not in self._labels:
                return name

    def emit(self, *instructions: Instruction) -> "ProgramBuilder":
        """Append one or more instructions."""
        self._instructions.extend(instructions)
        return self

    @property
    def position(self) -> int:
        """Index the next emitted instruction will occupy."""
        return len(self._instructions)

    def build(self, link: bool = True) -> Program:
        """Finalize into a :class:`Program` (linked by default)."""
        if not self._instructions:
            raise ProgramError(f"program '{self.name}' is empty")
        if self._instructions[-1].opcode not in (Opcode.HALT, Opcode.JMP,
                                                 Opcode.RET):
            raise ProgramError(
                f"program '{self.name}' must end with HALT, JMP or RET "
                f"(found '{self._instructions[-1].render()}')"
            )
        program = Program(
            name=self.name,
            instructions=list(self._instructions),
            labels=dict(self._labels),
            entry_label=self.entry_label,
        )
        return program.link() if link else program
