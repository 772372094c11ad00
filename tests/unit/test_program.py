"""Unit tests for the Program container and ProgramBuilder."""

import pytest

from repro.isa import (
    INSTRUCTION_SIZE,
    ProgramBuilder,
    ProgramError,
)
from repro.isa import instructions as ins


class TestProgram:
    def test_size_bytes(self, loop_program):
        assert loop_program.size_bytes == \
            len(loop_program) * INSTRUCTION_SIZE

    def test_address_index_roundtrip(self, loop_program):
        for index in range(len(loop_program)):
            address = loop_program.address_of_index(index)
            assert loop_program.index_of_address(address) == index

    def test_misaligned_address_rejected(self, loop_program):
        with pytest.raises(ProgramError, match="misaligned"):
            loop_program.index_of_address(2)

    def test_out_of_range_address_rejected(self, loop_program):
        with pytest.raises(ProgramError, match="out of range"):
            loop_program.index_of_address(loop_program.size_bytes + 4)

    def test_link_idempotent(self, loop_program):
        before = list(loop_program.instructions)
        loop_program.link()
        assert loop_program.instructions == before

    def test_encode_requires_link(self):
        builder = ProgramBuilder("t")
        builder.label("main").emit(ins.halt())
        program = builder.build(link=False)
        with pytest.raises(ProgramError, match="linked"):
            program.encode()

    def test_disassemble_contains_labels_and_addresses(self, loop_program):
        text = loop_program.disassemble()
        assert "main:" in text
        assert "loop:" in text
        assert "0x0000" in text


class TestProgramBuilder:
    def test_builds_and_links(self):
        b = ProgramBuilder("count")
        b.label("main").emit(ins.li(1, 3))
        b.label("loop").emit(
            ins.subi(1, 1, 1), ins.bne(1, 0, "loop"), ins.halt()
        )
        program = b.build()
        assert program.is_linked
        assert program.instructions[2].imm == 4  # loop label address

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError, match="empty"):
            ProgramBuilder("empty").build()

    def test_missing_terminator_rejected(self):
        b = ProgramBuilder("x")
        b.label("main").emit(ins.nop())
        with pytest.raises(ProgramError, match="must end with"):
            b.build()

    def test_duplicate_label_rejected(self):
        b = ProgramBuilder("x")
        b.label("main")
        with pytest.raises(ProgramError, match="duplicate"):
            b.label("main")

    def test_fresh_labels_unique(self):
        b = ProgramBuilder("x")
        names = {b.fresh_label() for _ in range(100)}
        assert len(names) == 100

    def test_position_tracks_emission(self):
        b = ProgramBuilder("x")
        assert b.position == 0
        b.emit(ins.nop(), ins.nop())
        assert b.position == 2

    def test_entry_label_must_exist(self):
        b = ProgramBuilder("x", entry_label="start")
        b.label("main").emit(ins.halt())
        with pytest.raises(ProgramError, match="entry label"):
            b.build()
