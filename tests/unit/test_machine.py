"""Unit tests for the ISA interpreter.

Every case runs on both machines: the translated one in ``src/`` and
the frozen opcode loop (:class:`oracle.machine.OpcodeMachine`).  The
per-block outcome (edge kinds, cycles, instruction counts) exists only
on the oracle, so the cases that read it run there alone.
"""

import pytest

from oracle.machine import OpcodeMachine
from repro.cfg import BasicBlock, CFGError, ProgramCFG, build_cfg
from repro.isa import SP, ProgramError, assemble
from repro.runtime import Machine, MachineError
import repro.runtime.machine as machine_module

MACHINES = {"translated": Machine, "opcode": OpcodeMachine}


@pytest.fixture(params=sorted(MACHINES))
def machine_class(request):
    return MACHINES[request.param]


def step(machine, block_id):
    """Run one block on either machine; the successor's id or None."""
    if isinstance(machine, OpcodeMachine):
        return machine.run_block(machine.cfg.block(block_id)).next_block_id
    return machine.step(block_id)


def run_cfg(machine):
    """Run ``machine`` from its CFG's entry; the block ids entered."""
    trace = [machine.cfg.entry.block_id]
    while True:
        block_id = step(machine, trace[-1])
        if block_id is None:
            return trace
        trace.append(block_id)


@pytest.fixture
def run_to_halt(machine_class):
    def run(source: str, data_words: int = 4096):
        cfg = build_cfg(assemble(source, "t"))
        machine = machine_class(cfg, data_words=data_words)
        return machine, run_cfg(machine)
    return run


class TestALU:
    def test_arithmetic(self, run_to_halt):
        machine, _ = run_to_halt(
            """
main:
    li r1, 7
    li r2, 3
    add r3, r1, r2
    sub r4, r1, r2
    mul r5, r1, r2
    div r6, r1, r2
    mod r7, r1, r2
    halt
"""
        )
        assert machine.registers[3:8] == [10, 4, 21, 2, 1]

    def test_division_truncates_toward_zero(self, run_to_halt):
        machine, _ = run_to_halt(
            """
main:
    li r1, -7
    li r2, 2
    div r3, r1, r2
    mod r4, r1, r2
    halt
"""
        )
        assert machine.registers[3] == -3  # C-style truncation
        assert machine.registers[4] == -1

    def test_division_by_zero_raises(self, run_to_halt):
        with pytest.raises(MachineError, match="zero"):
            run_to_halt("main:\n    div r1, r2, r0\n    halt")

    def test_logic_and_shifts(self, run_to_halt):
        machine, _ = run_to_halt(
            """
main:
    li r1, 0xF0
    li r2, 0x3C
    and r3, r1, r2
    or  r4, r1, r2
    xor r5, r1, r2
    shli r6, r1, 2
    shri r7, r1, 4
    halt
"""
        )
        assert machine.registers[3] == 0x30
        assert machine.registers[4] == 0xFC
        assert machine.registers[5] == 0xCC
        assert machine.registers[6] == 0x3C0
        assert machine.registers[7] == 0x0F

    def test_shift_right_logical_on_negative(self, run_to_halt):
        machine, _ = run_to_halt(
            "main:\n    li r1, -1\n    shri r2, r1, 28\n    halt"
        )
        assert machine.registers[2] == 0xF

    def test_overflow_wraps_to_32_bits(self, run_to_halt):
        machine, _ = run_to_halt(
            """
main:
    lui r1, 0x7FFF
    ori r1, r1, 0xFFFF
    addi r1, r1, 1
    halt
"""
        )
        assert machine.registers[1] == -(1 << 31)

    def test_slt_and_slti(self, run_to_halt):
        machine, _ = run_to_halt(
            """
main:
    li r1, -5
    li r2, 3
    slt r3, r1, r2
    slt r4, r2, r1
    slti r5, r1, 0
    halt
"""
        )
        assert machine.registers[3:6] == [1, 0, 1]

    def test_lui_ori_builds_32bit_constant(self, run_to_halt):
        machine, _ = run_to_halt(
            "main:\n    lui r1, 0xEDB8\n    ori r1, r1, 0x8320\n    halt"
        )
        assert machine.registers[1] & 0xFFFFFFFF == 0xEDB88320


class TestMemory:
    def test_store_load(self, run_to_halt):
        machine, _ = run_to_halt(
            """
main:
    li r1, 0x100
    li r2, -77
    st r2, 4(r1)
    ld r3, 4(r1)
    halt
"""
        )
        assert machine.registers[3] == -77

    def test_misaligned_access_raises(self, run_to_halt):
        with pytest.raises(MachineError, match="misaligned"):
            run_to_halt(
                "main:\n    li r1, 2\n    ld r2, 0(r1)\n    halt"
            )

    def test_out_of_range_access_raises(self, run_to_halt):
        with pytest.raises(MachineError, match="out of range"):
            run_to_halt(
                "main:\n    lui r1, 0x7000\n    ld r2, 0(r1)\n    halt"
            )

    def test_stack_pointer_initialised_to_top(self, machine_class):
        cfg = build_cfg(assemble("main:\n    halt", "t"))
        machine = machine_class(cfg, data_words=1024)
        assert machine.registers[SP] == 1023 * 4


class TestControlFlow:
    def test_taken_and_fallthrough(self, run_to_halt):
        machine, _ = run_to_halt(
            """
main:
    li r1, 1
    beq r1, r0, skip
    li r2, 10
skip:
    li r3, 20
    halt
"""
        )
        assert machine.registers[2] == 10  # not taken -> fallthrough
        assert machine.registers[3] == 20

    def test_loop_executes_expected_count(self, run_to_halt):
        machine, _ = run_to_halt(
            """
main:
    li r1, 5
    li r2, 0
loop:
    addi r2, r2, 1
    subi r1, r1, 1
    bne r1, r0, loop
    halt
"""
        )
        assert machine.registers[2] == 5

    def test_call_sets_link_register(self, run_to_halt):
        machine, _ = run_to_halt(
            """
main:
    call fn
    halt
fn:
    mov r1, ra
    ret
"""
        )
        assert machine.registers[1] == 4  # return address after call

    def test_nested_calls_with_stack(self, run_to_halt):
        machine, _ = run_to_halt(
            """
main:
    call outer
    halt
outer:
    subi sp, sp, 4
    st ra, 0(sp)
    call inner
    ld ra, 0(sp)
    addi sp, sp, 4
    addi r2, r2, 1
    ret
inner:
    addi r1, r1, 1
    ret
"""
        )
        assert machine.registers[1] == 1
        assert machine.registers[2] == 1

    def test_halt_stops_machine(self, run_to_halt):
        machine, _ = run_to_halt("main:\n    halt")
        assert machine.halted
        with pytest.raises(MachineError, match="halted"):
            step(machine, machine.cfg.entry.block_id)

    def test_max_steps_guard(self, machine_class):
        cfg = build_cfg(
            assemble("main:\nloop:\n    jmp loop", "inf")
        )
        machine = machine_class(cfg, data_words=64, max_steps=100)
        with pytest.raises(MachineError, match="max_steps"):
            run_cfg(machine)
        assert machine.steps == 101

    def test_edge_kinds_reported(self):
        cfg = build_cfg(
            assemble(
                "main:\n    beq r0, r0, t\n    nop\nt:\n    halt", "k"
            )
        )
        machine = OpcodeMachine(cfg)
        outcome = machine.run_block(cfg.entry)
        assert outcome.edge_kind == "taken"

    def test_reset_restores_initial_state(self, run_to_halt):
        machine, _ = run_to_halt(
            "main:\n    li r1, 9\n    st r1, 0(r0)\n    halt"
        )
        machine.reset()
        assert machine.registers[1] == 0
        assert machine.load_word(0) == 0
        assert not machine.halted
        assert machine.steps == 0


class TestCycleAccounting:
    def test_cycles_match_instruction_costs(self):
        cfg = build_cfg(
            assemble("main:\n    li r1, 2\n    mul r2, r1, r1\n    halt",
                     "c")
        )
        machine = OpcodeMachine(cfg)
        outcome = machine.run_block(cfg.entry)
        # li (1) + mul (3) + halt (1)
        assert outcome.cycles == 5
        assert outcome.instructions == 3


def run_or_fault(machine):
    """Run to halt or fault: the trace, the error's type and text, steps."""
    trace = [machine.cfg.entry.block_id]
    try:
        while True:
            block_id = step(machine, trace[-1])
            if block_id is None:
                return trace, None, machine.steps
            trace.append(block_id)
    except Exception as error:  # compared, not handled
        return trace, (type(error), str(error)), machine.steps


def both(cfg, **kwargs):
    """The same run on the translated machine and on the oracle."""
    return [run_or_fault(cls(cfg, **kwargs))
            for cls in (Machine, OpcodeMachine)]


class TestFaultsMatchTheOracle:
    @pytest.mark.parametrize("limit", [1, 2, 5, 6, 7, 100])
    def test_limit_inside_a_block(self, limit):
        cfg = build_cfg(assemble(
            "main:\n    li r1, 3\nloop:\n    addi r2, r2, 1\n"
            "    nop\n    subi r1, r1, 1\n    bne r1, r0, loop\n    halt",
            "l",
        ))
        translated, oracle = both(cfg, max_steps=limit)
        assert translated == oracle

    @pytest.mark.parametrize("link, error", [
        (6, ProgramError),      # misaligned code address
        (4000, ProgramError),   # code address out of range
        (12, CFGError),         # the middle of block f
    ])
    def test_bad_return_address(self, link, error):
        cfg = build_cfg(assemble(
            f"main:\n    li ra, {link}\n    ret\n"
            "f:\n    nop\n    nop\n    halt", "r"
        ))
        translated, oracle = both(cfg)
        assert translated == oracle
        assert oracle[1][0] is error

    @pytest.mark.parametrize("data_words", [1, 16, 64])
    def test_access_faults(self, data_words):
        cfg = build_cfg(assemble(
            "main:\n    li r1, 60\n    st r1, 0(r1)\n    ld r2, 2(r1)\n"
            "    halt", "a"
        ))
        translated, oracle = both(cfg, data_words=data_words)
        assert translated == oracle

    def test_falling_off_the_end_raises_only_when_executed(self):
        # build_cfg refuses such a program; a hand-built CFG keeps the
        # block that falls through past the last instruction.
        program = assemble("main:\n    li r1, 1\n    halt", "f")
        program.instructions[-1] = program.instructions[0]
        block = BasicBlock(0, 0, list(program.instructions))
        cfg = ProgramCFG(program, [block], [], 0)
        translated, oracle = both(cfg)  # translation did not raise
        assert translated == oracle
        assert oracle[1] == (
            CFGError, "no basic block starts at instruction 2"
        )


class TestTranslation:
    def test_one_translation_per_cfg(self, monkeypatch):
        calls = []
        translate = machine_module._translate

        def counting(cfg):
            calls.append(cfg)
            return translate(cfg)

        monkeypatch.setattr(machine_module, "_translate", counting)
        cfg = build_cfg(assemble("main:\n    li r1, 1\n    halt", "t"))
        for data_words, max_steps in ((16, 10), (4096, 100), (16, 10)):
            run_cfg(Machine(cfg, data_words=data_words,
                            max_steps=max_steps))
        assert calls == [cfg]

    def test_memory_size_and_limit_are_read_per_machine(self):
        cfg = build_cfg(assemble(
            "main:\n    li r1, 256\n    st r1, 0(r1)\n    halt", "m"
        ))
        run_cfg(Machine(cfg, data_words=4096))
        with pytest.raises(MachineError, match="out of range"):
            run_cfg(Machine(cfg, data_words=16))
        with pytest.raises(MachineError, match="max_steps=2"):
            run_cfg(Machine(cfg, max_steps=2))
        run_cfg(Machine(cfg))

    def test_translation_dies_with_its_cfg(self):
        import gc
        import weakref

        cfg = build_cfg(assemble("main:\n    call f\n    halt\n"
                                 "f:\n    ret", "g"))
        run_cfg(Machine(cfg))
        code = weakref.ref(cfg._translated[0][1])
        del cfg
        gc.collect()
        assert code() is None
