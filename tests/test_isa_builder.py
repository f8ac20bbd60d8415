"""ProgramBuilder DSL: emitters, control flow, register allocation."""

import pytest

from repro.isa import Op, ProgramBuilder, BuilderError
from sim_helpers import run_program


def test_generated_emitters():
    b = ProgramBuilder()
    b.add("r1", "r2", "r3")
    b.lws("f1", "r2", 4)
    b.sws("f1", "r2", 8)
    b.faa("r1", "r2", 0, "r3")
    b.halt()
    program = b.build()
    assert [ins.op for ins in program] == [Op.ADD, Op.LWS, Op.SWS, Op.FAA, Op.HALT]
    assert program[1].imm == 4
    assert program[2].rs2 == 33  # f1 is the stored value


def test_unknown_mnemonic_raises_attribute_error():
    b = ProgramBuilder()
    with pytest.raises(AttributeError):
        b.frobnicate()


def test_for_range_counts():
    b = ProgramBuilder()
    i = b.int_reg()
    total = b.int_reg()
    b.li(total, 0)
    with b.for_range(i, 0, 7):
        b.add(total, total, i)
    b.swl(total, "r0", 0)
    b.halt()
    result = run_program(b.build())
    assert result.threads[0].local[0] == sum(range(7))


def test_for_range_negative_step():
    b = ProgramBuilder()
    i = b.int_reg()
    total = b.int_reg()
    b.li(total, 0)
    with b.for_range(i, 5, 0, step=-1):
        b.addi(total, total, 1)
    b.swl(total, "r0", 0)
    b.halt()
    result = run_program(b.build())
    assert result.threads[0].local[0] == 5


def test_for_range_register_bounds():
    b = ProgramBuilder()
    i = b.int_reg()
    lo = b.int_reg()
    hi = b.int_reg()
    total = b.int_reg()
    b.li(lo, 3)
    b.li(hi, 9)
    b.li(total, 0)
    with b.for_range(i, lo, hi, start_is_reg=True, stop_is_reg=True):
        b.addi(total, total, 1)
    b.swl(total, "r0", 0)
    b.halt()
    result = run_program(b.build())
    assert result.threads[0].local[0] == 6


def test_for_range_zero_step_rejected():
    b = ProgramBuilder()
    i = b.int_reg()
    with pytest.raises(BuilderError):
        with b.for_range(i, 0, 3, step=0):
            pass


def test_if_cmp_both_ways():
    for a, expected in ((1, 10), (5, 0)):
        b = ProgramBuilder()
        x = b.int_reg()
        y = b.int_reg()
        out = b.int_reg()
        b.li(x, a)
        b.li(y, 3)
        b.li(out, 0)
        with b.if_cmp("lt", x, y):
            b.li(out, 10)
        b.swl(out, "r0", 0)
        b.halt()
        result = run_program(b.build())
        assert result.threads[0].local[0] == expected


def test_if_else():
    for a, expected in ((2, 1), (7, 2)):
        b = ProgramBuilder()
        x = b.int_reg()
        limit = b.int_reg()
        out = b.int_reg()
        b.li(x, a)
        b.li(limit, 5)
        with b.if_else("lt", x, limit) as arm:
            b.li(out, 1)
            with arm.otherwise():
                b.li(out, 2)
        b.swl(out, "r0", 0)
        b.halt()
        result = run_program(b.build())
        assert result.threads[0].local[0] == expected


def test_while_cmp():
    b = ProgramBuilder()
    x = b.int_reg()
    limit = b.int_reg()
    b.li(x, 0)
    b.li(limit, 4)
    with b.while_cmp("lt", x, limit):
        b.addi(x, x, 1)
    b.swl(x, "r0", 0)
    b.halt()
    result = run_program(b.build())
    assert result.threads[0].local[0] == 4


def test_register_allocator_exhaustion():
    b = ProgramBuilder()
    with pytest.raises(BuilderError, match="out of integer registers"):
        for _ in range(100):
            b.int_reg()


def test_double_release_rejected():
    b = ProgramBuilder()
    slot = b.int_reg()
    b.release(slot)
    with pytest.raises(BuilderError, match="released twice"):
        b.release(slot)


def test_pair_allocation_is_consecutive():
    b = ProgramBuilder()
    b.int_reg()  # perturb the pool
    lo, hi = b.int_pair()
    assert hi == lo + 1
    flo, fhi = b.fp_pair()
    assert fhi == flo + 1 and flo >= 32


def test_release_and_reuse():
    b = ProgramBuilder()
    slot = b.int_reg()
    b.release(slot)
    assert b.int_reg() == slot  # LIFO reuse


def test_duplicate_label_rejected():
    b = ProgramBuilder()
    b.label("x")
    with pytest.raises(BuilderError, match="duplicate"):
        b.label("x")


def test_fresh_labels_unique():
    b = ProgramBuilder()
    names = {b.fresh("L") for _ in range(100)}
    assert len(names) == 100


def test_switch_takes_no_operands():
    b = ProgramBuilder()
    with pytest.raises(BuilderError):
        b.switch("r1")
