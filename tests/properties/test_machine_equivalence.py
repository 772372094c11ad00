"""The translated machine equals the frozen opcode loop.

:class:`repro.runtime.Machine` runs each basic block as closures
translated once per CFG; :class:`oracle.machine.OpcodeMachine` is the
per-instruction opcode loop it replaced.  For generated programs and
for drawn straight-line blocks over every ALU, immediate and memory
opcode, under drawn ``data_words`` and ``max_steps`` (so limits fall
inside blocks), both machines must agree on the block trace, the
registers, the data memory, the step count and the exception's type and
text.  The oracle's per-block cycles must equal ``block.cycle_cost``,
which is what the replay kernel charges.  Each CFG must be translated
exactly once however often it runs, which shows the translated path
ran.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracle.machine import OpcodeMachine
import repro.runtime.machine as machine_module
from repro.cfg import build_cfg
from repro.isa import assemble
from repro.isa.instructions import (
    REG_IMM_OPS,
    REG_REG_OPS,
    Instruction,
    Opcode,
)
from repro.isa.program import Program
from repro.runtime import Machine
from repro.workloads import GeneratorConfig, generate_program

#: Register values at the edges of the 32-bit word, and just past them.
_EXTREMES = (
    -(1 << 31), (1 << 31) - 1, 1 << 31, 0, -1, 1, 2, 31, 32, 0xFFFF,
)


def _run(machine, registers=None):
    """Run to halt or fault: everything the two machines must agree on."""
    if registers is not None:
        machine.registers = list(registers)
    cfg = machine.cfg
    trace = [cfg.entry.block_id]
    cycles = []
    error = None
    try:
        while True:
            if isinstance(machine, OpcodeMachine):
                result = machine.run_block(cfg.block(trace[-1]))
                cycles.append((result.block_id, result.cycles))
                block_id = result.next_block_id
            else:
                block_id = machine.step(trace[-1])
            if block_id is None:
                break
            trace.append(block_id)
    except Exception as error_:  # compared below, type and text
        error = (type(error_), str(error_))
    state = {
        "trace": trace,
        "registers": list(machine.registers),
        "memory": list(machine.memory),
        "steps": machine.steps,
        "halted": machine.halted,
        "error": error,
    }
    return state, cycles


def _check_equal(cfg, runs, registers=None):
    """Run every ``(data_words, max_steps)`` of ``runs`` on both
    machines; assert they agree and ``cfg`` was translated once."""
    calls = []
    translate = machine_module._translate

    def counting(graph):
        calls.append(graph)
        return translate(graph)

    with mock.patch.object(machine_module, "_translate", counting):
        for data_words, max_steps in runs:
            translated, _ = _run(
                Machine(cfg, data_words=data_words, max_steps=max_steps),
                registers,
            )
            oracle, cycles = _run(
                OpcodeMachine(cfg, data_words=data_words,
                              max_steps=max_steps),
                registers,
            )
            assert translated == oracle
            for block_id, block_cycles in cycles:
                assert cfg.block(block_id).cycle_cost == block_cycles
    assert calls == [cfg]
    return oracle


_GENERATOR_CONFIGS = st.builds(
    GeneratorConfig,
    seed=st.integers(min_value=0, max_value=10_000),
    segments=st.integers(min_value=1, max_value=16),
    max_loop_depth=st.integers(min_value=0, max_value=3),
    loop_prob=st.sampled_from([0.0, 0.2, 0.4]),
    branch_prob=st.sampled_from([0.0, 0.3]),
    call_prob=st.sampled_from([0.0, 0.12, 0.3]),
    functions=st.integers(min_value=1, max_value=5),
)

_DATA_WORDS = st.sampled_from([1, 4, 16, 64, 1 << 16])
_MAX_STEPS = st.one_of(
    st.integers(min_value=1, max_value=3_000), st.just(50_000_000)
)


class TestGeneratedPrograms:
    @given(
        gen=_GENERATOR_CONFIGS,
        runs=st.lists(st.tuples(_DATA_WORDS, _MAX_STEPS), min_size=1,
                      max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_translated_equals_opcode_loop(self, gen, runs):
        _check_equal(build_cfg(generate_program(gen)), runs)


def _straight_line(instructions):
    """One block of ``instructions`` ending in HALT, as a CFG."""
    body = list(instructions) + [Instruction(Opcode.HALT)]
    return build_cfg(Program("block", body, {"main": 0}).link())


_REGISTER = st.integers(min_value=0, max_value=15)
_IMMEDIATE = st.one_of(
    st.sampled_from([v for v in _EXTREMES if -(1 << 31) <= v < 1 << 31]),
    st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    st.integers(min_value=-40, max_value=40),
)
_ALU = st.builds(
    lambda op, d, a, b, imm: Instruction(op, rd=d, rs1=a, rs2=b, imm=imm),
    op=st.sampled_from(sorted(REG_REG_OPS | REG_IMM_OPS)
                       + [Opcode.LI, Opcode.LUI, Opcode.MOV, Opcode.NOP]),
    d=_REGISTER, a=_REGISTER, b=_REGISTER, imm=_IMMEDIATE,
)
_MEMORY = st.builds(
    lambda op, d, a, b, imm: Instruction(op, rd=d, rs1=a, rs2=b, imm=imm),
    op=st.sampled_from([Opcode.LD, Opcode.ST]),
    d=_REGISTER, a=_REGISTER, b=_REGISTER,
    imm=st.integers(min_value=-8, max_value=72),
)
#: Initial registers: extremes, and small word addresses for LD/ST.
_REGISTERS = st.lists(
    st.one_of(st.sampled_from(_EXTREMES),
              st.integers(min_value=0, max_value=64).map(lambda w: 4 * w)),
    min_size=16, max_size=16,
)


class TestStraightLineBlocks:
    @given(
        block=st.lists(st.one_of(_ALU, _MEMORY), min_size=1, max_size=24),
        registers=_REGISTERS,
        data_words=st.tuples(*[st.sampled_from([1, 16, 64])] * 2),
        limit=st.integers(min_value=1, max_value=26),
    )
    @settings(max_examples=300, deadline=None)
    def test_translated_equals_opcode_loop(
        self, block, registers, data_words, limit
    ):
        # Two memory sizes over one translation: neither may be bound.
        _check_equal(
            _straight_line(block),
            [(data_words[0], limit), (data_words[1], 50_000_000)],
            registers,
        )

    def test_every_opcode_is_drawn(self):
        drawn = set(REG_REG_OPS | REG_IMM_OPS) | {
            Opcode.LI, Opcode.LUI, Opcode.MOV, Opcode.NOP, Opcode.LD,
            Opcode.ST,
        }
        control = {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
                   Opcode.JMP, Opcode.CALL, Opcode.RET, Opcode.HALT}
        assert drawn | control == set(Opcode)


class TestEveryOpcodeOnExtremes:
    """Each ALU and immediate opcode over every pair of extreme
    operands, every result stored to memory: deterministic coverage
    the drawn blocks reach only by chance."""

    @pytest.mark.parametrize(
        "op", sorted(REG_REG_OPS | REG_IMM_OPS | {Opcode.LI, Opcode.LUI,
                                                  Opcode.MOV}),
        ids=lambda op: op.name,
    )
    def test_results_match(self, op):
        registers = [0, *_EXTREMES, 0, 0, 0, 0, 0][:16]
        immediates = [v for v in _EXTREMES if -(1 << 31) <= v < 1 << 31]
        block = []
        for a in range(1, 1 + len(_EXTREMES)):
            for b, imm in zip(range(1, 1 + len(_EXTREMES)), immediates * 2):
                if op in (Opcode.DIV, Opcode.MOD) and not registers[b]:
                    continue  # the division-by-zero cases are below
                block.append(Instruction(op, rd=12, rs1=a, rs2=b, imm=imm))
                block.append(Instruction(Opcode.ST, rs1=11, rs2=12,
                                         imm=4 * (len(block) // 2)))
        oracle = _check_equal(_straight_line(block),
                              [(len(block), 50_000_000)], registers)
        assert oracle["error"] is None


class TestLimitAgainstFault:
    SOURCE = """
main:
    li r1, 7
    nop
    div r2, r1, r0
    addi r3, r3, 1
    halt
"""

    @pytest.mark.parametrize("limit, error", [
        (2, "exceeded max_steps=2 (infinite loop in 'z'?)"),
        (3, "division by zero"),  # the division is the last step allowed
        (4, "division by zero"),  # the division comes before the limit
    ])
    def test_whichever_comes_first_wins(self, limit, error):
        oracle = _check_equal(build_cfg(assemble(self.SOURCE, "z")),
                              [(16, limit)])
        assert oracle["error"][1] == error
        assert oracle["steps"] == 3
