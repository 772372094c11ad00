"""Unit tests for instruction encoding/decoding."""

import pytest

from repro.isa import instructions as ins
from repro.isa.encoding import (
    EncodingError,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
)
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction, Opcode


class TestEncodeBasics:
    def test_encoded_size_fixed(self):
        for instr in (ins.nop(), ins.add(1, 2, 3), ins.li(4, -100)):
            assert len(encode_instruction(instr)) == INSTRUCTION_SIZE

    def test_opcode_in_first_byte(self):
        data = encode_instruction(ins.add(1, 2, 3))
        assert data[0] == Opcode.ADD

    def test_registers_packed_in_second_byte(self):
        data = encode_instruction(ins.add(0xA, 0xB, 0xC))
        assert data[1] == (0xA << 4) | 0xB
        assert data[3] & 0xF == 0xC

    def test_negative_immediate_two_complement(self):
        data = encode_instruction(ins.li(1, -1))
        assert data[2] == 0xFF and data[3] == 0xFF

    def test_signed_immediate_range_enforced(self):
        with pytest.raises(EncodingError, match="signed 16-bit"):
            encode_instruction(ins.li(1, 40000))
        with pytest.raises(EncodingError, match="signed 16-bit"):
            encode_instruction(ins.addi(1, 2, -40000))

    def test_logical_immediates_are_unsigned(self):
        # 0x8320 exceeds the signed range but is valid for ORI.
        data = encode_instruction(ins.ori(1, 1, 0x8320))
        decoded = decode_instruction(data)
        assert decoded.imm == 0x8320

    def test_logical_immediate_negative_rejected(self):
        with pytest.raises(EncodingError, match="unsigned"):
            encode_instruction(ins.ori(1, 1, -1))

    def test_lui_unsigned_range(self):
        assert decode_instruction(
            encode_instruction(ins.lui(2, 0xEDB8))
        ).imm == 0xEDB8
        with pytest.raises(EncodingError):
            encode_instruction(ins.lui(2, 0x10000))

    def test_branch_address_unsigned(self):
        resolved = ins.jmp("x").with_imm(0xFFFC)
        decoded = decode_instruction(encode_instruction(resolved))
        assert decoded.imm == 0xFFFC

    def test_branch_address_overflow_rejected(self):
        with pytest.raises(EncodingError, match="16-bit"):
            encode_instruction(ins.jmp("x").with_imm(0x10000))


class TestDecode:
    def test_unknown_opcode_rejected(self):
        with pytest.raises(EncodingError, match="unknown opcode"):
            decode_instruction(bytes((0xEE, 0, 0, 0)))

    def test_truncated_input_rejected(self):
        with pytest.raises(EncodingError, match="truncated"):
            decode_instruction(b"\x01\x00")

    def test_misaligned_program_rejected(self):
        with pytest.raises(EncodingError, match="multiple"):
            decode_program(b"\x00" * 6)

    def test_conditional_branch_register_packing(self):
        # Conditional branches pack rs2 into the rd nibble.
        source = [ins.beq(3, 7, "t").with_imm(0x10)]
        decoded = decode_program(encode_program(source))
        assert decoded[0].rs1 == 3
        assert decoded[0].rs2 == 7
        assert decoded[0].rd == 0


def _roundtrips(program):
    """True when encode -> decode reproduces ``program``'s fields;
    ``target`` labels are ignored: the binary stores resolved
    addresses only."""
    def fields(instructions):
        return [(i.opcode, i.rd, i.rs1, i.rs2, i.imm) for i in instructions]

    return fields(decode_program(encode_program(program))) == fields(program)


class TestProgramRoundtrip:
    def test_mixed_program_roundtrips(self):
        program = [
            ins.li(1, 100),
            ins.addi(2, 1, -5),
            ins.mul(3, 1, 2),
            ins.ld(4, 1, 16),
            ins.st(4, 2, -8),
            ins.beq(1, 2, "x").with_imm(0x14),
            ins.jmp("y").with_imm(0x00),
            ins.call("z").with_imm(0x1C),
            ins.ret(),
            ins.halt(),
        ]
        assert _roundtrips(program)

    def test_every_opcode_roundtrips(self):
        program = []
        for opcode in Opcode:
            if opcode in ins.REG_REG_OPS:
                program.append(Instruction(opcode, rd=1, rs1=2, rs2=3))
            elif opcode in ins.REG_IMM_OPS:
                imm = 9 if opcode in (Opcode.ANDI, Opcode.ORI,
                                      Opcode.XORI) else -9
                program.append(Instruction(opcode, rd=1, rs1=2, imm=imm))
            elif opcode in (Opcode.JMP, Opcode.CALL):
                program.append(Instruction(opcode, imm=0x40))
            elif opcode in ins.BRANCH_OPS:
                program.append(Instruction(opcode, rs1=1, rs2=2, imm=0x40))
            elif opcode is Opcode.ST:
                program.append(Instruction(opcode, rs1=2, rs2=3, imm=-4))
            elif opcode in (Opcode.LI, Opcode.LD):
                program.append(Instruction(opcode, rd=1, rs1=2, imm=-4))
            elif opcode is Opcode.LUI:
                program.append(Instruction(opcode, rd=1, imm=0xBEEF))
            else:
                program.append(Instruction(opcode, rd=1, rs1=2))
        assert _roundtrips(program)

    def test_encode_program_length(self):
        program = [ins.nop()] * 7
        assert len(encode_program(program)) == 7 * INSTRUCTION_SIZE
