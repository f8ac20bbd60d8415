"""A structured Python DSL for authoring programs in the simulator's ISA.

The paper's benchmarks are C programs compiled to MIPS object code; ours
are written against this builder, which plays the role of the compiler
front end.  Opcode emitters are generated from the operand-signature table,
so ``b.add(rd, a, c)``, ``b.lws(rd, base, off)``, ``b.beq(a, c, label)``
etc. all exist automatically.  On top of that the builder offers structured
control flow (``for_range``, ``if_cmp``/``if_else``, ``while_cmp``) and a
simple register allocator, which keeps the application kernels readable.

Example::

    b = ProgramBuilder()
    i = b.int_reg("i")
    with b.for_range(i, 0, 10):
        b.lws(b.r("r8"), base=i)     # shared load, switches under SOL
        b.add(total, total, b.r("r8"))
    b.halt()
    program = b.build("count")
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Union

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, OP_SIG, Sig
from repro.isa.program import Program
from repro.isa.registers import reg_index, NUM_INT_REGS

RegLike = Union[int, str]

#: Integer registers handed out by the allocator; r0 (zero), r4/r5/r6
#: (thread id / thread count / argument base), r29 (sp) and r31 (link) are
#: reserved by convention.
_INT_POOL = [1, 2, 3, 7] + list(range(8, 29)) + [30]
_FP_POOL = list(range(NUM_INT_REGS, NUM_INT_REGS + 32))

_COMPARISONS = {
    "eq": (Op.BEQ, Op.BNE),
    "ne": (Op.BNE, Op.BEQ),
    "lt": (Op.BLT, Op.BGE),
    "le": (Op.BLE, Op.BGT),
    "gt": (Op.BGT, Op.BLE),
    "ge": (Op.BGE, Op.BLT),
}


class BuilderError(Exception):
    """Raised for misuse of the builder (bad operands, pool exhaustion)."""


class ProgramBuilder:
    """Incrementally builds a :class:`~repro.isa.program.Program`."""

    def __init__(self) -> None:
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._fresh_counter = 0
        self._int_free = list(reversed(_INT_POOL))
        self._fp_free = list(reversed(_FP_POOL))
        self._names: Dict[str, int] = {}

    # -- registers ----------------------------------------------------------

    @staticmethod
    def r(name: RegLike) -> int:
        """Resolve a register name to its slot index."""
        return reg_index(name)

    def int_reg(self, name: Optional[str] = None) -> int:
        """Allocate a free integer register (optionally named for listings)."""
        if not self._int_free:
            raise BuilderError("out of integer registers")
        slot = self._int_free.pop()
        if name:
            self._names[name] = slot
        return slot

    def fp_reg(self, name: Optional[str] = None) -> int:
        """Allocate a free floating-point register."""
        if not self._fp_free:
            raise BuilderError("out of floating-point registers")
        slot = self._fp_free.pop()
        if name:
            self._names[name] = slot
        return slot

    def int_pair(self, name: Optional[str] = None) -> "tuple[int, int]":
        """Allocate two *consecutive* integer registers (for LDS/SDS,
        which move a register pair)."""
        return self._alloc_pair(self._int_free, name, "integer")

    def fp_pair(self, name: Optional[str] = None) -> "tuple[int, int]":
        """Allocate two consecutive floating-point registers."""
        return self._alloc_pair(self._fp_free, name, "floating-point")

    def _alloc_pair(self, pool, name, kind) -> "tuple[int, int]":
        available = set(pool)
        for slot in sorted(available):
            if slot + 1 in available:
                pool.remove(slot)
                pool.remove(slot + 1)
                if name:
                    self._names[name] = slot
                return slot, slot + 1
        raise BuilderError(f"no consecutive {kind} register pair free")

    def release(self, *slots: int) -> None:
        """Return registers to the allocator."""
        for slot in slots:
            pool = self._int_free if slot < NUM_INT_REGS else self._fp_free
            if slot in pool:
                raise BuilderError(f"register {slot} released twice")
            pool.append(slot)

    @contextlib.contextmanager
    def scratch_int(self) -> Iterator[int]:
        """Context-managed temporary integer register."""
        slot = self.int_reg()
        try:
            yield slot
        finally:
            self.release(slot)

    # -- emission -----------------------------------------------------------

    def emit(self, ins: Instruction) -> Instruction:
        """Append a prebuilt instruction."""
        self._instructions.append(ins)
        return ins

    def __getattr__(self, mnemonic: str):
        """Generated opcode emitters: any lowercase opcode name works."""
        try:
            op = Op[mnemonic.upper()]
        except KeyError:
            raise AttributeError(mnemonic) from None

        def emitter(*args, sync: bool = False, **kwargs) -> Instruction:
            return self._emit_op(op, args, kwargs, sync)

        emitter.__name__ = mnemonic
        return emitter

    def _emit_op(self, op: Op, args: tuple, kwargs: dict, sync: bool) -> Instruction:
        sig = OP_SIG[op]
        r = self.r
        if sig is Sig.R3:
            rd, rs1, rs2 = args
            ins = Instruction(op, rd=r(rd), rs1=r(rs1), rs2=r(rs2))
        elif sig is Sig.R2I:
            rd, rs1, imm = args
            ins = Instruction(op, rd=r(rd), rs1=r(rs1), imm=imm)
        elif sig is Sig.R2:
            rd, rs1 = args
            ins = Instruction(op, rd=r(rd), rs1=r(rs1))
        elif sig is Sig.RI:
            rd, imm = args
            ins = Instruction(op, rd=r(rd), imm=imm)
        elif sig is Sig.LOAD:
            rd = args[0]
            base = kwargs.get("base", args[1] if len(args) > 1 else 0)
            off = kwargs.get("off", args[2] if len(args) > 2 else 0)
            ins = Instruction(op, rd=r(rd), rs1=r(base), imm=off)
        elif sig is Sig.STORE:
            val = args[0]
            base = kwargs.get("base", args[1] if len(args) > 1 else 0)
            off = kwargs.get("off", args[2] if len(args) > 2 else 0)
            ins = Instruction(op, rs2=r(val), rs1=r(base), imm=off)
        elif sig is Sig.BR2:
            rs1, rs2, label = args
            ins = Instruction(op, rs1=r(rs1), rs2=r(rs2), label=label)
        elif sig is Sig.JMP:
            (label,) = args
            ins = Instruction(op, label=label)
        elif sig is Sig.JREG:
            (rs1,) = args
            ins = Instruction(op, rs1=r(rs1))
        elif sig is Sig.FAA:
            rd, base, off, addend = args
            ins = Instruction(op, rd=r(rd), rs1=r(base), rs2=r(addend), imm=off)
        else:
            if args or kwargs:
                raise BuilderError(f"{op.name} takes no operands")
            ins = Instruction(op)
        ins.sync = sync
        return self.emit(ins)

    # -- labels -------------------------------------------------------------

    def label(self, name: str) -> str:
        """Bind *name* to the current position."""
        if name in self._labels:
            raise BuilderError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return name

    def fresh(self, prefix: str = "L") -> str:
        """Generate a unique label name."""
        self._fresh_counter += 1
        return f".{prefix}{self._fresh_counter}"

    # -- structured control flow ---------------------------------------------

    @contextlib.contextmanager
    def for_range(
        self,
        counter: RegLike,
        start: "int | RegLike",
        stop: "int | RegLike",
        step: int = 1,
        *,
        start_is_reg: bool = False,
        stop_is_reg: bool = False,
    ) -> Iterator[str]:
        """``for counter in range(start, stop, step)`` over registers.

        *start*/*stop* are integer immediates unless the corresponding
        ``*_is_reg`` flag says they are registers.  *step* must be a
        non-zero integer constant.  Yields the break label.
        """
        if step == 0:
            raise BuilderError("for_range step must be non-zero")
        counter_reg = self.r(counter)
        head = self.fresh("for")
        done = self.fresh("endfor")

        if start_is_reg:
            self.mov(counter_reg, self.r(start))
        else:
            self.li(counter_reg, int(start))

        limit_reg: int
        limit_temp = None
        if stop_is_reg:
            limit_reg = self.r(stop)
        else:
            limit_temp = self.int_reg()
            self.li(limit_temp, int(stop))
            limit_reg = limit_temp

        self.label(head)
        if step > 0:
            self.bge(counter_reg, limit_reg, done)
        else:
            self.ble(counter_reg, limit_reg, done)
        try:
            yield done
        finally:
            self.addi(counter_reg, counter_reg, step)
            self.j(head)
            self.label(done)
            if limit_temp is not None:
                self.release(limit_temp)

    @contextlib.contextmanager
    def if_cmp(self, cond: str, rs1: RegLike, rs2: RegLike) -> Iterator[None]:
        """Execute the body when ``rs1 <cond> rs2`` holds (no else branch)."""
        if cond not in _COMPARISONS:
            raise BuilderError(f"unknown condition {cond!r}")
        _, inverse = _COMPARISONS[cond]
        skip = self.fresh("endif")
        self.emit(Instruction(inverse, rs1=self.r(rs1), rs2=self.r(rs2), label=skip))
        yield
        self.label(skip)

    @contextlib.contextmanager
    def if_else(self, cond: str, rs1: RegLike, rs2: RegLike) -> Iterator["_ElseArm"]:
        """``if cond: ... else: ...``; the yielded object is used as
        ``with arm.otherwise(): ...`` inside the block."""
        if cond not in _COMPARISONS:
            raise BuilderError(f"unknown condition {cond!r}")
        _, inverse = _COMPARISONS[cond]
        else_label = self.fresh("else")
        end_label = self.fresh("endif")
        self.emit(
            Instruction(inverse, rs1=self.r(rs1), rs2=self.r(rs2), label=else_label)
        )
        arm = _ElseArm(self, else_label, end_label)
        yield arm
        if not arm.used:
            # No else arm: the else label simply lands at the end.
            self.label(else_label)
        else:
            self.label(end_label)

    @contextlib.contextmanager
    def while_cmp(self, cond: str, rs1: RegLike, rs2: RegLike) -> Iterator[str]:
        """``while rs1 <cond> rs2`` loop; yields the break label."""
        if cond not in _COMPARISONS:
            raise BuilderError(f"unknown condition {cond!r}")
        _, inverse = _COMPARISONS[cond]
        head = self.fresh("while")
        done = self.fresh("endwhile")
        self.label(head)
        self.emit(Instruction(inverse, rs1=self.r(rs1), rs2=self.r(rs2), label=done))
        yield done
        self.j(head)
        self.label(done)

    # -- finish ---------------------------------------------------------------

    def build(self, name: str = "program") -> Program:
        """Finalise into an executable :class:`Program`."""
        return Program(list(self._instructions), dict(self._labels), name).finalize()


class _ElseArm:
    """Helper yielded by :meth:`ProgramBuilder.if_else`."""

    def __init__(self, builder: ProgramBuilder, else_label: str, end_label: str):
        self._builder = builder
        self._else_label = else_label
        self._end_label = end_label
        self.used = False

    @contextlib.contextmanager
    def otherwise(self) -> Iterator[None]:
        if self.used:
            raise BuilderError("otherwise() used twice")
        self.used = True
        self._builder.j(self._end_label)
        self._builder.label(self._else_label)
        yield
