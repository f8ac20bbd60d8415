"""Per-opcode semantics of both execution backends (IDEAL machine).

Every test runs its program on the interpreter and on the compiled
backend and requires the two to agree before checking the values.
"""

import math

import pytest

from repro.isa import Instruction, Program
from repro.isa.opcodes import BRANCHES, EXPR, FAULTS, Op
from repro.lint.predict import _CONST_LIMIT, _FOLDED, _const_transfer
from repro.machine.processor import ExecutionError
from sim_helpers import BACKENDS, run_asm, run_program


def _run(asm: str, shared=None, regs=None):
    """The interpreter's result, after checking the compiled backend
    leaves the same memory and takes the same cycles."""
    results = [
        run_asm(asm, shared=shared, regs=regs, backend=backend)
        for backend in BACKENDS
    ]
    interpreted, compiled = results
    assert compiled.threads[0].local == interpreted.threads[0].local
    assert compiled.shared == interpreted.shared
    assert compiled.wall_cycles == interpreted.wall_cycles
    return interpreted


def _local(asm: str, shared=None, regs=None):
    return _run(asm, shared=shared, regs=regs).threads[0].local


def test_integer_arithmetic():
    local = _local(
        """
        li   r1, 7
        li   r2, -3
        add  r3, r1, r2
        swl r3, 0(r0)
        sub  r3, r1, r2
        swl r3, 1(r0)
        mul  r3, r1, r2
        swl r3, 2(r0)
        halt
        """
    )
    assert local[:3] == [4, 10, -21]


@pytest.mark.parametrize(
    "a, b, quotient, remainder",
    [(7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1)],
)
def test_division_truncates_toward_zero(a, b, quotient, remainder):
    local = _local(
        f"""
        li  r1, {a}
        li  r2, {b}
        div r3, r1, r2
        swl r3, 0(r0)
        rem r3, r1, r2
        swl r3, 1(r0)
        halt
        """
    )
    assert local[:2] == [quotient, remainder]


def test_divide_by_zero_faults():
    for backend in BACKENDS:
        with pytest.raises(ExecutionError, match="divide by zero"):
            run_asm("li r1, 1\nli r2, 0\ndiv r3, r1, r2\nhalt\n",
                    backend=backend)


@pytest.mark.parametrize("asm, message", [
    ("li r1, 1\nli r2, -1\nsll r3, r1, r2\nswl r3, 0(r0)\nhalt\n",
     "pc=2: negative shift amount (sll     r3, r1, r2)"),
    ("fli f1, nan\ncvtfi r3, f1\nswl r3, 0(r0)\nhalt\n",
     "pc=1: float-to-int of a non-finite value (cvtfi   r3, f1)"),
])
def test_out_of_range_operands_fault_with_the_pc(asm, message):
    """A negative register shift count and a non-finite float-to-int
    conversion raise a structured fault, not a bare ValueError."""
    for backend in BACKENDS:
        with pytest.raises(ExecutionError) as caught:
            run_asm(asm, backend=backend)
        assert str(caught.value) == message, backend


def test_cvtfi_of_an_int_past_float_range_keeps_the_int():
    """The CVTFI fault condition never raises on its own: an integer too
    large for a float is finite and truncates to itself."""
    local = _local("cvtfi r3, r1\nswl r3, 0(r0)\nhalt\n",
                   regs=[{1: 2 ** 1100}])
    assert local[0] == 2 ** 1100


def test_logic_and_shifts():
    local = _local(
        """
        li   r1, 12
        li   r2, 10
        and  r3, r1, r2
        swl r3, 0(r0)
        or   r3, r1, r2
        swl r3, 1(r0)
        xor  r3, r1, r2
        swl r3, 2(r0)
        slli r3, r1, 2
        swl r3, 3(r0)
        srli r3, r1, 1
        swl r3, 4(r0)
        halt
        """
    )
    assert local[:5] == [8, 14, 6, 48, 6]


def test_comparisons():
    local = _local(
        """
        li  r1, 3
        li  r2, 5
        slt r3, r1, r2
        swl r3, 0(r0)
        sle r3, r2, r2
        swl r3, 1(r0)
        seq r3, r1, r2
        swl r3, 2(r0)
        sne r3, r1, r2
        swl r3, 3(r0)
        slti r3, r1, 4
        swl r3, 4(r0)
        halt
        """
    )
    assert local[:5] == [1, 1, 0, 1, 1]


def test_float_ops():
    local = _local(
        """
        fli  f1, 2.5
        fli  f2, 4.0
        fadd f3, f1, f2
        swl f3, 0(r0)
        fsub f3, f1, f2
        swl f3, 1(r0)
        fmul f3, f1, f2
        swl f3, 2(r0)
        fdiv f3, f2, f1
        swl f3, 3(r0)
        fneg f3, f1
        swl f3, 4(r0)
        fabs f3, f3
        swl f3, 5(r0)
        fsqrt f3, f2
        swl f3, 6(r0)
        halt
        """
    )
    assert local[:7] == [6.5, -1.5, 10.0, 1.6, -2.5, 2.5, 2.0]


def test_conversions():
    local = _local(
        """
        li    r1, 7
        cvtif f1, r1
        swl f1, 0(r0)
        fli   f2, -2.9
        cvtfi r2, f2
        swl r2, 1(r0)
        halt
        """
    )
    assert local[0] == 7.0
    assert local[1] == -2  # truncation toward zero


def test_float_compares_produce_ints():
    local = _local(
        """
        fli  f1, 1.5
        fli  f2, 2.5
        fslt r1, f1, f2
        swl r1, 0(r0)
        fsle r1, f2, f1
        swl r1, 1(r0)
        fseq r1, f1, f1
        swl r1, 2(r0)
        halt
        """
    )
    assert local[:3] == [1, 0, 1]


def test_branches():
    local = _local(
        """
        li   r1, 5
        li   r2, 5
        beq  r1, r2, eq_taken
        swl r1, 7(r0)
    eq_taken:
        li   r3, 1
        swl r3, 0(r0)
        bgt  r1, r2, not_taken
        li   r3, 2
        swl r3, 1(r0)
    not_taken:
        halt
        """
    )
    assert local[0] == 1
    assert local[1] == 2
    assert local[7] == 0  # skipped store


def test_jal_and_jr():
    local = _local(
        """
        jal  sub
        swl r2, 0(r0)
        halt
    sub:
        li   r2, 99
        jr   ra
        """
    )
    assert local[0] == 99


def test_r0_is_immutable():
    local = _local(
        """
        li  r0, 42
        addi r0, r0, 1
        swl r0, 0(r0)
        halt
        """
    )
    assert local[0] == 0


def test_local_memory_doubles():
    local = _local(
        """
        li  r2, 3
        li  r3, 4
        sdl r2, 0(r0)
        ldl r6, 0(r0)
        swl r6, 8(r0)
        swl r7, 9(r0)
        halt
        """
    )
    assert local[0:2] == [3, 4]
    assert local[8:10] == [3, 4]


def test_shared_memory_and_faa(tiny_shared):
    result = _run(
        """
        li  r1, 5
        lws r2, 2(r0)
        sws r2, 20(r0)
        lds r8, 4(r0)
        sds r8, 30(r0)
        faa r3, 10(r0), r1
        faa r4, 10(r0), r1
        swl r3, 0(r0)
        swl r4, 1(r0)
        halt
        """,
        shared=tiny_shared,
    )
    assert result.shared[20] == 2
    assert result.shared[30:32] == [4, 5]
    assert result.shared[10] == 10 + 5 + 5
    assert result.threads[0].local[0] == 10  # first FAA sees old value
    assert result.threads[0].local[1] == 15


def test_nop_and_switch_are_neutral(tiny_shared):
    result = _run("nop\nswitch\nhalt\n", shared=tiny_shared)
    assert result.wall_cycles == 2  # nop + switch each cost one cycle


def test_instruction_costs_accumulate():
    result = _run("li r1, 2\nli r2, 3\nmul r3, r1, r2\nhalt\n")
    # li + li + mul(12) = 14 cycles
    assert result.wall_cycles == 14


# -- every EXPR row on both backends and in the constant folder ----------------

#: Operands for every row: each doubles as rs1's value, rs2's value and
#: the immediate.  They include every FAULTS trigger (a zero divisor, a
#: negative shift count or sqrt operand, a non-finite float) and values
#: outside what an opcode accepts, whose plain Python errors must
#: propagate alike.
OPERANDS = (7, -3, 0, 2.5, -0.0, math.inf, math.nan, 2 ** 1100)


def _row_program(op: Op, imm) -> Program:
    """``op r3, r1, r2/imm`` with r3 stored to local word 0; a branch
    stores 1 when taken and 0 when not."""
    store = [Instruction(Op.SWL, rs1=0, rs2=3), Instruction(Op.HALT)]
    if op in BRANCHES:
        body = [
            Instruction(Op.LI, rd=3, imm=1),
            Instruction(op, rs1=1, rs2=2, label="taken"),
            Instruction(Op.LI, rd=3, imm=0),
        ]
        labels = {"taken": len(body)}
    else:
        body = [Instruction(op, rd=3, rs1=1, rs2=2, imm=imm)]
        labels = {}
    return Program(body + store, labels, name=op.name.lower()).finalize()


def _outcome(program: Program, a, b, backend: str):
    try:
        result = run_program(program, regs=[{1: a, 2: b}], backend=backend)
    except Exception as error:  # noqa: BLE001 - the outcome under test
        return ("raise", type(error).__name__, str(error))
    return ("value", repr(result.threads[0].local[0]))


@pytest.mark.parametrize("op", sorted(EXPR), ids=lambda op: op.name)
def test_expr_row_agrees_on_both_backends_and_in_the_folder(op):
    faults = set()
    for a in OPERANDS:
        for b in OPERANDS:
            program = _row_program(op, b)
            interpreted = _outcome(program, a, b, "interpreter")
            compiled = _outcome(program, a, b, "compiled")
            assert compiled == interpreted, (op.name, a, b)
            if interpreted[:2] == ("raise", "ExecutionError"):
                faults.add(interpreted[2])
            if op in _FOLDED:
                _check_folder(op, program.instructions[0], a, b, interpreted)
    # Only the row's own fault fires, and the operands do trigger it.
    expected = set()
    if op in FAULTS:
        asm = _row_program(op, 0).instructions[0].to_asm()
        expected = {f"pc=0: {FAULTS[op][1]} ({asm})"}
    assert faults == expected


def _check_folder(op: Op, ins: Instruction, a, b, interpreted) -> None:
    """The folder's lattice holds only ints within ``_CONST_LIMIT``.  A
    folded value must be the one the machine stores, and the folder must
    fold whenever every operand the row reads is such an int."""
    known = {slot: value for slot, value in ((1, a), (2, b))
             if type(value) is int and abs(value) <= _CONST_LIMIT}
    state = {0: 0, **known}
    _const_transfer(state, ins)
    used = [value for name, value in (("{a}", a), ("{b}", b), ("{i}", b))
            if name in EXPR[op]]
    if 3 in state or all(type(value) is int and abs(value) <= _CONST_LIMIT
                         for value in used):
        assert ("value", repr(state.get(3))) == interpreted, (op.name, a, b)
