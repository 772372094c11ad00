"""Control-flow-heavy kernels: FSM tokenizer, cold-path ladder, modular app.

These three target the paper's motivation directly:

* ``fsm`` — a tokenizer DFA: many small blocks, input-dependent hopping.
* ``cold_paths`` — one big function with a 16-arm branch ladder where only
  two arms are hot: the case where block granularity beats function
  granularity ("a particular basic block chain within a large function is
  repeatedly executed", Section 6).
* ``modular`` — many small functions, three hot, the rest cold: the case
  function-granularity schemes (Debray-Evans) are built for.
"""

from __future__ import annotations

from typing import List

from ...isa import instructions as ins
from ...isa.assembler import assemble
from ...isa.program import ProgramBuilder
from ...runtime.machine import Machine
from ..suite import Workload, register_workload

# ---------------------------------------------------------------------------
# fsm: tokenizer DFA (idle / word / number states)
# ---------------------------------------------------------------------------

_FSM_LEN = 160
_FSM_TEXT_BASE = 0x6800


def _fsm_text() -> List[int]:
    chars = []
    for i in range(_FSM_LEN):
        bucket = (i * 17 + 3) % 11
        if bucket < 4:
            chars.append(65 + (i % 26))       # letter
        elif bucket < 7:
            chars.append(48 + (i % 10))       # digit
        elif bucket < 9:
            chars.append(32)                  # space
        else:
            chars.append(46)                  # '.'
    return chars


def _fsm_reference() -> int:
    words = numbers = 0
    state = 0  # 0 idle, 1 word, 2 number
    for c in _fsm_text():
        if 65 <= c <= 90:
            cls = 0
        elif 48 <= c <= 57:
            cls = 1
        elif c == 32:
            cls = 2
        else:
            cls = 3
        if state == 0:
            if cls == 0:
                state, words = 1, words + 1
            elif cls == 1:
                state, numbers = 2, numbers + 1
        elif state == 1:
            if cls == 1:
                state, numbers = 2, numbers + 1
            elif cls != 0:
                state = 0
        else:  # number
            if cls == 0:
                state, words = 1, words + 1
            elif cls != 1:
                state = 0
    return words * 1000 + numbers


_FSM_SOURCE = f"""
; tokenizer DFA over {_FSM_LEN} generated chars; r14 = words*1000 + numbers
main:
    li   r1, 0
txt_init:
    muli r4, r1, 17
    addi r4, r4, 3
    li   r5, 11
    mod  r4, r4, r5         ; bucket
    slti r8, r4, 4
    bne  r8, r0, mk_letter
    slti r8, r4, 7
    bne  r8, r0, mk_digit
    slti r8, r4, 9
    bne  r8, r0, mk_space
    li   r5, 46
    jmp  mk_store
mk_letter:
    li   r5, 26
    mod  r5, r1, r5
    addi r5, r5, 65
    jmp  mk_store
mk_digit:
    li   r5, 10
    mod  r5, r1, r5
    addi r5, r5, 48
    jmp  mk_store
mk_space:
    li   r5, 32
mk_store:
    muli r4, r1, 4
    addi r4, r4, {_FSM_TEXT_BASE}
    st   r5, 0(r4)
    addi r1, r1, 1
    slti r8, r1, {_FSM_LEN}
    bne  r8, r0, txt_init

    li   r1, 0              ; index
    li   r3, 0              ; state
    li   r11, 0             ; words
    li   r12, 0             ; numbers
fsm_loop:
    muli r4, r1, 4
    addi r4, r4, {_FSM_TEXT_BASE}
    ld   r5, 0(r4)          ; c
    ; classify into r4: 0 letter, 1 digit, 2 space, 3 other
    li   r4, 3
    li   r8, 65
    blt  r5, r8, cl_not_letter
    li   r8, 91
    bge  r5, r8, cl_not_letter
    li   r4, 0
    jmp  cl_done
cl_not_letter:
    li   r8, 48
    blt  r5, r8, cl_not_digit
    li   r8, 58
    bge  r5, r8, cl_not_digit
    li   r4, 1
    jmp  cl_done
cl_not_digit:
    li   r8, 32
    bne  r5, r8, cl_done
    li   r4, 2
cl_done:
    beq  r3, r0, st_idle
    li   r8, 1
    beq  r3, r8, st_word
    jmp  st_num
st_idle:
    beq  r4, r0, go_word
    li   r8, 1
    beq  r4, r8, go_num
    jmp  next_char
st_word:
    beq  r4, r0, next_char
    li   r8, 1
    beq  r4, r8, go_num
    li   r3, 0
    jmp  next_char
st_num:
    li   r8, 1
    beq  r4, r8, next_char
    beq  r4, r0, go_word
    li   r3, 0
    jmp  next_char
go_word:
    li   r3, 1
    addi r11, r11, 1
    jmp  next_char
go_num:
    li   r3, 2
    addi r12, r12, 1
next_char:
    addi r1, r1, 1
    slti r8, r1, {_FSM_LEN}
    bne  r8, r0, fsm_loop
    muli r14, r11, 1000
    add  r14, r14, r12
    halt
"""


@register_workload("fsm")
def build_fsm() -> Workload:
    """Tokenizer DFA: dense, input-driven block hopping."""

    def check(machine: Machine) -> List[str]:
        expected = _fsm_reference()
        if machine.registers[14] != expected:
            return [
                f"fsm: r14 = {machine.registers[14]}, expected {expected}"
            ]
        return []

    return Workload(
        name="fsm",
        description=f"tokenizer DFA over {_FSM_LEN} chars",
        program=assemble(_FSM_SOURCE, "fsm"),
        check=check,
    )


# ---------------------------------------------------------------------------
# cold_paths: hot chain inside a big branch ladder (Section 6 motivation)
# ---------------------------------------------------------------------------

_COLD_ARMS = 16
_COLD_ITER = 200
_LCG_MULT = 1103515245
_LCG_INC = 12345
_LCG_MASK = 0x7FFFFFFF


def _cold_selectors() -> List[int]:
    value = 99
    selectors = []
    for _ in range(_COLD_ITER):
        value = (value * _LCG_MULT + _LCG_INC) & _LCG_MASK
        selector = (value >> 16) & 15
        selectors.append(selector if selector >= 13 else selector & 1)
    return selectors


def _cold_reference() -> int:
    total = 0
    for arm in _cold_selectors():
        total += 17 * arm + 5
    return total & 0xFFFFFFF


def _build_cold_program():
    b = ProgramBuilder("cold_paths")
    b.label("main")
    b.emit(
        ins.li(1, 0),                    # iteration counter
        ins.li(2, 99),                   # LCG state
        ins.lui(10, _LCG_MULT >> 16),
        ins.ori(10, 10, _LCG_MULT & 0xFFFF),
        ins.li(14, 0),                   # accumulator
        ins.lui(9, _LCG_MASK >> 16),
        ins.ori(9, 9, _LCG_MASK & 0xFFFF),
    )
    b.label("loop")
    # advance LCG, compute arm selector into r3
    b.emit(
        ins.mul(2, 2, 10),
        ins.addi(2, 2, _LCG_INC),
        ins.and_(2, 2, 9),
        ins.shri(3, 2, 16),
        ins.andi(3, 3, 15),
        # hot remap: selector < 13 -> selector & 1
        ins.slti(8, 3, 13),
        ins.beq(8, 0, ".keep_cold"),
        ins.andi(3, 3, 1),
    )
    b.label(".keep_cold")
    # dispatch ladder: compare r3 against each arm id
    for arm in range(_COLD_ARMS):
        b.emit(
            ins.li(8, arm),
            ins.beq(3, 8, f".arm{arm}"),
        )
    b.emit(ins.jmp(".next"))  # unreachable safety
    for arm in range(_COLD_ARMS):
        b.label(f".arm{arm}")
        # live work: r14 += 17*arm + 5 (split across instructions)
        b.emit(
            ins.addi(14, 14, 17 * arm),
            ins.addi(14, 14, 5),
        )
        # bulk filler: dead arithmetic unique to this arm (12 instrs)
        for j in range(12):
            ops = [
                ins.muli(4, 1, arm + j + 2),
                ins.addi(5, 4, j * 3 + 1),
                ins.xori(6, 5, (arm * 37 + j) & 0xFFFF),
                ins.shli(7, 6, (j % 5) + 1),
            ]
            b.emit(ops[j % 4])
        for j in range(8):
            b.emit(ins.add(4 + (j % 3), 4 + ((j + 1) % 3), 4 + ((j + 2) % 3)))
        b.emit(ins.jmp(".next"))
    b.label(".next")
    # mask accumulator and loop
    b.emit(
        ins.lui(8, 0x0FFF),
        ins.ori(8, 8, 0xFFFF),
        ins.and_(14, 14, 8),
        ins.addi(1, 1, 1),
        ins.slti(8, 1, _COLD_ITER),
        ins.bne(8, 0, "loop"),
        ins.halt(),
    )
    return b.build()


@register_workload("cold_paths")
def build_cold_paths() -> Workload:
    """16-arm ladder, 2 hot arms: the hot-chain-in-big-function case."""

    def check(machine: Machine) -> List[str]:
        expected = _cold_reference()
        if machine.registers[14] != expected:
            return [
                f"cold_paths: r14 = {machine.registers[14]}, "
                f"expected {expected}"
            ]
        return []

    return Workload(
        name="cold_paths",
        description=(
            f"{_COLD_ARMS}-arm branch ladder, 2 hot arms, "
            f"{_COLD_ITER} iterations"
        ),
        program=_build_cold_program(),
        check=check,
    )


# ---------------------------------------------------------------------------
# modular: many small functions, three hot (Debray-Evans shape)
# ---------------------------------------------------------------------------

_N_FUNCS = 12
_HOT_FUNCS = 3
_MOD_ITER = 150


def _modular_reference() -> int:
    total = 0
    for f in range(_N_FUNCS):          # cold init pass: each once
        total += f * 13 + 7
    for i in range(_MOD_ITER):         # hot loop
        f = i % _HOT_FUNCS
        total += f * 13 + 7
    return total


def _build_modular_program():
    b = ProgramBuilder("modular")
    b.label("main")
    b.emit(ins.li(14, 0))
    # Cold phase: call every function once.
    for f in range(_N_FUNCS):
        b.emit(ins.call(f"func{f}"))
    # Hot phase: rotate through the first three functions.
    b.emit(ins.li(1, 0))
    b.label("hot_loop")
    b.emit(
        ins.li(5, _HOT_FUNCS),
        ins.mod(2, 1, 5),
    )
    for f in range(_HOT_FUNCS):
        b.emit(
            ins.li(8, f),
            ins.beq(2, 8, f".call{f}"),
        )
    b.emit(ins.jmp(".hot_next"))
    for f in range(_HOT_FUNCS):
        b.label(f".call{f}")
        b.emit(ins.call(f"func{f}"), ins.jmp(".hot_next"))
    b.label(".hot_next")
    b.emit(
        ins.addi(1, 1, 1),
        ins.slti(8, 1, _MOD_ITER),
        ins.bne(8, 0, "hot_loop"),
        ins.halt(),
    )
    # Functions: one live accumulation + unique filler body.
    for f in range(_N_FUNCS):
        b.label(f"func{f}")
        b.emit(ins.addi(14, 14, f * 13 + 7))
        for j in range(18):
            ops = [
                ins.muli(4, 14, f + j + 1),
                ins.xori(5, 4, (f * 53 + j * 7) & 0xFFFF),
                ins.addi(6, 5, f * 11 + j),
                ins.shri(7, 6, (j % 4) + 1),
                ins.sub(4, 7, 5),
                ins.or_(5, 4, 6),
            ]
            b.emit(ops[j % 6])
        b.emit(ins.ret())
    return b.build()


@register_workload("modular")
def build_modular() -> Workload:
    """12 small functions, 3 hot: the function-granularity-friendly shape."""

    def check(machine: Machine) -> List[str]:
        expected = _modular_reference()
        if machine.registers[14] != expected:
            return [
                f"modular: r14 = {machine.registers[14]}, "
                f"expected {expected}"
            ]
        return []

    return Workload(
        name="modular",
        description=(
            f"{_N_FUNCS} functions, {_HOT_FUNCS} hot, "
            f"{_MOD_ITER}-iteration hot loop"
        ),
        program=_build_modular_program(),
        check=check,
    )
