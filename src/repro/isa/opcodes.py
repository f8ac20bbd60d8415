"""Opcode definitions and per-opcode metadata.

Cycle costs follow the MIPS R3000 flavour used by the paper: almost every
instruction issues in a single cycle; integer multiply/divide and the
floating-point pipeline take longer.  The paper charges *zero* cycles for a
context switch in the switch-on-load and explicit-switch models because the
switch is identified in the decode stage (Section 3); the one cycle consumed
by the explicit ``SWITCH`` opcode itself is the "penalty" discussed in
Section 5.1 and is modelled simply by the instruction occupying an issue
slot.

What each ALU, FP and compare-branch opcode computes, and when it
faults, is written once, in :data:`EXPR` and :data:`FAULTS`.  The
interpreter and the constant folder (:mod:`repro.lint.predict`) call the
evaluators :data:`EVAL` builds from them at import; the compiled backend
formats the same templates with literal register indices.
"""

from __future__ import annotations

import enum
import math
from typing import Callable


class Op(enum.IntEnum):
    """Every opcode understood by the simulator."""

    # Integer ALU, register-register.
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()
    REM = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SLL = enum.auto()
    SRL = enum.auto()
    SRA = enum.auto()
    SLT = enum.auto()
    SLE = enum.auto()
    SEQ = enum.auto()
    SNE = enum.auto()

    # Integer ALU, register-immediate.
    ADDI = enum.auto()
    MULI = enum.auto()
    ANDI = enum.auto()
    ORI = enum.auto()
    XORI = enum.auto()
    SLLI = enum.auto()
    SRLI = enum.auto()
    SLTI = enum.auto()

    # Register moves / immediates.
    LI = enum.auto()  # load integer immediate
    MOV = enum.auto()  # integer register move

    # Floating point (registers f0..f31 map to indices 32..63).
    FADD = enum.auto()
    FSUB = enum.auto()
    FMUL = enum.auto()
    FDIV = enum.auto()
    FNEG = enum.auto()
    FABS = enum.auto()
    FSQRT = enum.auto()
    FMOV = enum.auto()
    FLI = enum.auto()  # load float immediate
    FSLT = enum.auto()  # fp compare, integer 0/1 result
    FSLE = enum.auto()
    FSEQ = enum.auto()
    CVTIF = enum.auto()  # int -> float
    CVTFI = enum.auto()  # float -> int (truncate)

    # Control flow.
    BEQ = enum.auto()
    BNE = enum.auto()
    BLT = enum.auto()
    BLE = enum.auto()
    BGT = enum.auto()
    BGE = enum.auto()
    J = enum.auto()
    JAL = enum.auto()  # link register is r31
    JR = enum.auto()
    NOP = enum.auto()
    HALT = enum.auto()

    # Local memory (per-thread private; serviced locally, never switches).
    LWL = enum.auto()
    SWL = enum.auto()
    LDL = enum.auto()  # load double: rd, rd+1
    SDL = enum.auto()  # store double: rs2, rs2+1

    # Shared memory (remote; the subject of the paper).
    LWS = enum.auto()
    SWS = enum.auto()
    LDS = enum.auto()
    SDS = enum.auto()
    FAA = enum.auto()  # fetch-and-add, combining at memory

    # Multithreading.
    SWITCH = enum.auto()  # explicit / conditional context switch


class Sig(enum.Enum):
    """Operand signature classes shared by the assembler, the builder and
    the dependence analyser."""

    R3 = "rd, rs1, rs2"
    R2I = "rd, rs1, imm"
    R2 = "rd, rs1"
    RI = "rd, imm"
    LOAD = "rd, imm(rs1)"
    STORE = "rs2, imm(rs1)"
    BR2 = "rs1, rs2, label"
    JMP = "label"
    JREG = "rs1"
    FAA = "rd, imm(rs1), rs2"
    NONE = ""


OP_SIG: dict[Op, Sig] = {
    Op.ADD: Sig.R3,
    Op.SUB: Sig.R3,
    Op.MUL: Sig.R3,
    Op.DIV: Sig.R3,
    Op.REM: Sig.R3,
    Op.AND: Sig.R3,
    Op.OR: Sig.R3,
    Op.XOR: Sig.R3,
    Op.SLL: Sig.R3,
    Op.SRL: Sig.R3,
    Op.SRA: Sig.R3,
    Op.SLT: Sig.R3,
    Op.SLE: Sig.R3,
    Op.SEQ: Sig.R3,
    Op.SNE: Sig.R3,
    Op.ADDI: Sig.R2I,
    Op.MULI: Sig.R2I,
    Op.ANDI: Sig.R2I,
    Op.ORI: Sig.R2I,
    Op.XORI: Sig.R2I,
    Op.SLLI: Sig.R2I,
    Op.SRLI: Sig.R2I,
    Op.SLTI: Sig.R2I,
    Op.LI: Sig.RI,
    Op.MOV: Sig.R2,
    Op.FADD: Sig.R3,
    Op.FSUB: Sig.R3,
    Op.FMUL: Sig.R3,
    Op.FDIV: Sig.R3,
    Op.FNEG: Sig.R2,
    Op.FABS: Sig.R2,
    Op.FSQRT: Sig.R2,
    Op.FMOV: Sig.R2,
    Op.FLI: Sig.RI,
    Op.FSLT: Sig.R3,
    Op.FSLE: Sig.R3,
    Op.FSEQ: Sig.R3,
    Op.CVTIF: Sig.R2,
    Op.CVTFI: Sig.R2,
    Op.BEQ: Sig.BR2,
    Op.BNE: Sig.BR2,
    Op.BLT: Sig.BR2,
    Op.BLE: Sig.BR2,
    Op.BGT: Sig.BR2,
    Op.BGE: Sig.BR2,
    Op.J: Sig.JMP,
    Op.JAL: Sig.JMP,
    Op.JR: Sig.JREG,
    Op.NOP: Sig.NONE,
    Op.HALT: Sig.NONE,
    Op.LWL: Sig.LOAD,
    Op.SWL: Sig.STORE,
    Op.LDL: Sig.LOAD,
    Op.SDL: Sig.STORE,
    Op.LWS: Sig.LOAD,
    Op.SWS: Sig.STORE,
    Op.LDS: Sig.LOAD,
    Op.SDS: Sig.STORE,
    Op.FAA: Sig.FAA,
    Op.SWITCH: Sig.NONE,
}

#: Issue cost in cycles.  Unlisted opcodes cost one cycle.
CYCLE_COST: dict[Op, int] = {
    Op.MUL: 12,
    Op.MULI: 12,
    Op.DIV: 35,
    Op.REM: 35,
    Op.FADD: 2,
    Op.FSUB: 2,
    Op.FMUL: 5,
    Op.FDIV: 19,
    Op.FSQRT: 30,
    Op.CVTIF: 2,
    Op.CVTFI: 2,
}

# Truncating integer division: the quotient rounds toward zero, and the
# remainder takes the dividend's sign (C / R3000 semantics, not Python's
# floor division).
_QUOTIENT = ("(abs({a}) // abs({b}) if ({a} < 0) == ({b} < 0)"
             " else -(abs({a}) // abs({b})))")

#: What each value opcode computes and each compare branch tests, as a
#: Python expression over ``{a}`` (rs1's value), ``{b}`` (rs2's value)
#: and ``{i}`` (the immediate).  A value is stored to ``rd`` (never to
#: r0); a true branch condition jumps to the target.  FP registers live
#: in the same register file, so FP templates look like integer ones.
EXPR: dict[Op, str] = {
    Op.ADD: "{a} + {b}",
    Op.SUB: "{a} - {b}",
    Op.MUL: "{a} * {b}",
    Op.DIV: _QUOTIENT,
    Op.REM: "{a} - " + _QUOTIENT + " * {b}",
    Op.AND: "{a} & {b}",
    Op.OR: "{a} | {b}",
    Op.XOR: "{a} ^ {b}",
    Op.SLL: "{a} << {b}",
    Op.SRL: "{a} >> {b}",
    Op.SRA: "{a} >> {b}",
    Op.SLT: "1 if {a} < {b} else 0",
    Op.SLE: "1 if {a} <= {b} else 0",
    Op.SEQ: "1 if {a} == {b} else 0",
    Op.SNE: "1 if {a} != {b} else 0",
    Op.ADDI: "{a} + {i}",
    Op.MULI: "{a} * {i}",
    Op.ANDI: "{a} & {i}",
    Op.ORI: "{a} | {i}",
    Op.XORI: "{a} ^ {i}",
    Op.SLLI: "{a} << {i}",
    Op.SRLI: "{a} >> {i}",
    Op.SLTI: "1 if {a} < {i} else 0",
    Op.LI: "{i}",
    Op.MOV: "{a}",
    Op.FADD: "{a} + {b}",
    Op.FSUB: "{a} - {b}",
    Op.FMUL: "{a} * {b}",
    Op.FDIV: "{a} / {b}",
    Op.FNEG: "-{a}",
    Op.FABS: "abs({a})",
    Op.FSQRT: "math.sqrt({a})",
    Op.FMOV: "{a}",
    Op.FLI: "{i}",
    Op.FSLT: "1 if {a} < {b} else 0",
    Op.FSLE: "1 if {a} <= {b} else 0",
    Op.FSEQ: "1 if {a} == {b} else 0",
    Op.CVTIF: "float({a})",
    Op.CVTFI: "math.trunc({a})",
    Op.BEQ: "{a} == {b}",
    Op.BNE: "{a} != {b}",
    Op.BLT: "{a} < {b}",
    Op.BLE: "{a} <= {b}",
    Op.BGT: "{a} > {b}",
    Op.BGE: "{a} >= {b}",
}

#: Run-time faults: ``(condition, message)`` over the same placeholders.
#: The condition is tested before the value is computed; when it holds,
#: the instruction raises ``ExecutionError("pc=<pc>: <message> (<asm>)")``
#: on either backend.  (The CVTFI condition is written as a comparison
#: rather than ``math.isfinite``, which raises on ints past float range.)
FAULTS: dict[Op, tuple[str, str]] = {
    Op.DIV: ("{b} == 0", "integer divide by zero"),
    Op.REM: ("{b} == 0", "integer divide by zero"),
    Op.SLL: ("{b} < 0", "negative shift amount"),
    Op.SRL: ("{b} < 0", "negative shift amount"),
    Op.SRA: ("{b} < 0", "negative shift amount"),
    Op.FDIV: ("{b} == 0", "float divide by zero"),
    Op.FSQRT: ("{a} < 0", "sqrt of negative value"),
    Op.CVTFI: ("not -math.inf < {a} < math.inf",
               "float-to-int of a non-finite value"),
}


class OpFault(ArithmeticError):
    """A :data:`FAULTS` condition held; the message is the row's."""


def _build_evaluators() -> dict[Op, Callable]:
    """One ``def <NAME>(regs, ins)`` per row, compiled together: read the
    operands the row uses, test its fault condition, return the value."""
    names = {"a": "a", "b": "b", "i": "i"}
    source = []
    for op, expr in EXPR.items():
        condition, message = FAULTS.get(op, ("", ""))
        source.append(f"def {op.name}(regs, ins):")
        for name, read in (("a", "regs[ins.rs1]"), ("b", "regs[ins.rs2]"),
                           ("i", "ins.imm")):
            if "{%s}" % name in condition + expr:
                source.append(f"    {name} = {read}")
        if condition:
            source.append(f"    if {condition.format(**names)}:")
            source.append(f"        raise OpFault({message!r})")
        source.append(f"    return {expr.format(**names)}")
    namespace = {"math": math, "OpFault": OpFault}
    exec(compile("\n".join(source), "<repro.isa.opcodes.EXPR>", "exec"),
         namespace)
    return {op: namespace[op.name] for op in EXPR}


#: ``EVAL[op](regs, ins)``: the value (or branch condition) of one
#: instruction, read from any indexable register file; raises
#: :class:`OpFault` when the opcode's :data:`FAULTS` condition holds.
EVAL: dict[Op, Callable] = _build_evaluators()

SHARED_LOADS = frozenset({Op.LWS, Op.LDS, Op.FAA})
SHARED_STORES = frozenset({Op.SWS, Op.SDS})
LOCAL_LOADS = frozenset({Op.LWL, Op.LDL})
LOCAL_STORES = frozenset({Op.SWL, Op.SDL})
BRANCHES = frozenset(
    {Op.BEQ, Op.BNE, Op.BLT, Op.BLE, Op.BGT, Op.BGE, Op.J, Op.JAL, Op.JR}
)
#: Opcodes that end a basic block.
BLOCK_TERMINATORS = BRANCHES | {Op.HALT}
#: Double-word accesses move two consecutive words in one network message.
DOUBLE_ACCESSES = frozenset({Op.LDS, Op.SDS, Op.LDL, Op.SDL})


def is_shared_access(op: Op) -> bool:
    """True when *op* touches shared memory (and thus the network)."""
    return op in SHARED_LOADS or op in SHARED_STORES


def instruction_cost(op: Op) -> int:
    """Issue cost in cycles for *op* (R3000-flavoured timing)."""
    return CYCLE_COST.get(op, 1)
