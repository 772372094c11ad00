"""Basic block representation.

A basic block is "a straight-line piece of code without any jumps or jump
targets; jump targets start a block, and jumps end a block" (paper,
Section 2).  Blocks are the paper's unit of compression and decompression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..isa.encoding import encode_program
from ..isa.instructions import INSTRUCTION_SIZE, Instruction, Opcode


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence.

    Attributes:
        block_id: dense index of the block within its CFG (``B0``, ``B1``...
            in the paper's notation follows this numbering).
        start_index: index of the first instruction in the owning program.
        instructions: the block's instructions, in program order.
        label: program label defined at the block's first instruction, if
            any (used for readable traces).
    """

    block_id: int
    start_index: int
    instructions: List[Instruction]
    label: Optional[str] = None
    # Lazily memoized sum of instruction cycle costs and binary image;
    # instructions are immutable after CFG construction (the runtime
    # reads cycle_cost on every block entry, and every codec build of a
    # program encodes every block).
    _cycle_cost: Optional[int] = field(
        default=None, repr=False, compare=False
    )
    _encoded: Optional[bytes] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError(f"basic block B{self.block_id} is empty")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def end_index(self) -> int:
        """Index one past the last instruction (program indices)."""
        return self.start_index + len(self.instructions)

    @property
    def start_address(self) -> int:
        """Byte address of the block in the original uncompressed image."""
        return self.start_index * INSTRUCTION_SIZE

    @property
    def size_bytes(self) -> int:
        """Uncompressed size of the block in bytes."""
        return len(self.instructions) * INSTRUCTION_SIZE

    def __len__(self) -> int:
        return len(self.instructions)

    # ------------------------------------------------------------------
    # Terminator classification
    # ------------------------------------------------------------------

    @property
    def terminator(self) -> Instruction:
        """The last instruction of the block."""
        return self.instructions[-1]

    @property
    def is_exit(self) -> bool:
        """True if the block ends the program (HALT terminator)."""
        return self.terminator.opcode is Opcode.HALT

    @property
    def cycle_cost(self) -> int:
        """Sum of base cycle costs of the block's instructions."""
        if self._cycle_cost is None:
            self._cycle_cost = sum(
                instr.cycles for instr in self.instructions
            )
        return self._cycle_cost

    @property
    def encoded(self) -> bytes:
        """The block's instructions encoded as their binary image."""
        if self._encoded is None:
            self._encoded = encode_program(self.instructions)
        return self._encoded

    @property
    def name(self) -> str:
        """Readable name: the defining label, or ``B<n>``."""
        return self.label if self.label else f"B{self.block_id}"

    def render(self) -> str:
        """Return a printable listing of the block."""
        header = f"{self.name} (id={self.block_id}, " \
                 f"addr={self.start_address:#06x}, {self.size_bytes}B)"
        body = "\n".join(f"    {instr.render()}"
                         for instr in self.instructions)
        return f"{header}\n{body}"

    def __repr__(self) -> str:
        return (
            f"BasicBlock(id={self.block_id}, start={self.start_index}, "
            f"n={len(self.instructions)}, label={self.label!r})"
        )
