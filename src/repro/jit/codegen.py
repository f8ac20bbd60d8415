"""IR -> Python code generation for the compiled backend.

The interpreter (:meth:`repro.machine.processor.Processor._burst`)
re-decodes every instruction on every simulated cycle: opcode range
checks, operand attribute loads, model branches, tracer ``is None``
tests.  This module removes all of that by *specializing*: for a given
finalized program and a given machine variant it emits plain Python
block functions for the code bursts reach, with

* operands resolved to literal register indices and immediates
  (``regs[7] + 12`` instead of ``regs[ins.rs1] + ins.imm``),
* the opcode dispatch unrolled into straight-line statements,
* the switch-model decisions folded at compile time (an explicit-switch
  block contains no conditional-switch code and vice versa),
* oracle / cache probes hoisted out entirely when the variant runs
  without them and inlined when it runs with them,
* one guard line per instruction: a deadline or scoreboard hit returns
  :data:`~repro.machine.processor.STOP` and the burst loop decides pause
  or switch, so no block carries the scoreboard rule itself, and
* runs of non-switching ALU/FP/local instructions guarded by a single
  hoisted deadline + scoreboard check (the *fast path*), falling back to
  the exact per-instruction guard sequence when a wait could land inside
  the run.

Equivalence contract
--------------------
The generated code must be **bit-identical** to the interpreter: same
SimStats, same exceptions with the same messages.  Per-instruction order
is unchanged and is the interpreter's — (1) deadline check, (2)
in-flight scoreboard check, (3) execution.  (1) and (2) are one guard
line whose hit returns :data:`~repro.machine.processor.STOP` with the
pc it stopped before; ``Processor.dispatch_event`` then makes the
interpreter's decision from the same scoreboard and the pc's slots in
:attr:`CompiledProgram.hazards`: a pause (a yield on ideal) at the
deadline, a pause if every slot's reply is due by ``t``, else a switch
that resumes when the latest is due.  Compiled code fires no tracer
probes: a traced run keeps the interpreter's table (see
:class:`~repro.machine.processor.Processor`), so its event stream is
the interpreter's by construction.
ALU, FP and compare-branch bodies format the same :data:`~repro.isa.
opcodes.EXPR` / :data:`~repro.isa.opcodes.FAULTS` templates the
interpreter's evaluators are built from; memory, jump and ``SWITCH``
sites mirror specific lines of ``_burst``.  Anything the interpreter
evaluates for its side effects (a divide-by-zero check on a discarded
destination, a cache LRU touch) is still evaluated here.

A *block function* holds a chain of regions, each running from a start
pc to the first unconditional control transfer (or an emission cap),
and has the signature::

    fn(proc, thread, t, deadline, run0, pc) -> (outcome, t, pc, n, resume, flush)

where the argument *pc* names the region to start in and *outcome* is
one of the interpreter's ``OUT_*`` codes,
:data:`~repro.machine.processor.CONTINUE` (control moved to ``pc`` within
the same burst; the burst loop, ``Processor.dispatch_event``, calls the
next block) or :data:`~repro.machine.processor.STOP` (a guard stopped
before ``pc``; the burst loop decides what the burst ends in).
Functions compile lazily, on the first dispatch of a pc that no
function serves, because any pc can become a burst entry (deadline
pauses and mid-block switch resumes land anywhere).  A new function also
serves other regions it holds, and later functions end at any pc that
one already serves, so a region compiles about once per variant, not
once for every entry that reaches it.
"""

from __future__ import annotations

import math
import time
import weakref
from heapq import heappush
from typing import List, Optional, Tuple

from repro.isa.instruction import Instruction, instr_reads, instr_writes
from repro.isa.opcodes import EXPR, FAULTS, Op
from repro.machine.network import MsgKind
from repro.machine.processor import (
    CONTINUE,
    ExecutionError,
    M_COND,
    M_EXPLICIT,
    M_IDEAL,
    M_MISS,
    M_SOL,
    M_USE,
    M_USE_MISS,
    OUT_HALT,
    OUT_SWITCH,
    STOP,
)

#: Emission cap per block function.  Bounds generated-code size for
#: pathological straight-line programs; a capped block hands control
#: back with CONTINUE and the next block picks up mid-stream.
MAX_EMIT = 64

#: Fast-path eligible length threshold: grouping one instruction under a
#: hoisted guard saves nothing.
_MIN_RUN = 2

# Opcode integer boundaries, identical to the interpreter's dispatch.
_FP_MAX = 39
_BR_MAX = 45
_JMP_MAX = 50
_LOCAL_MAX = 54
_SHARED_MAX = 59

#: Hoisted locals the generated preamble may need, in emission order.
#: Each entry is (name, statement, prerequisites).
_PREAMBLE = (
    ("sim", "sim = proc.sim", ()),
    ("code", "code = proc.code", ()),
    ("stats", "stats = sim.stats", ("sim",)),
    ("shared", "shared = sim.shared", ("sim",)),
    ("regs", "regs = thread.regs", ()),
    ("local", "local = thread.local", ()),
    ("inflight", "inflight = thread.inflight", ()),
    ("cache", "cache = proc.cache", ()),
    ("lw", "lw = cache.line_words", ("cache",)),
    ("pid", "pid = proc.pid", ()),
    ("tid", "tid = thread.tid", ()),
    ("olc", "olc = proc.oracle[thread.tid]", ()),
    ("forced", "forced = proc.forced_interval", ()),
    # Inlined memory-transaction fast path (unfaulted variants).
    ("heap", "heap = sim._heap", ("sim",)),
    ("hl", "hl = sim.half_latency", ("sim",)),
    ("lev", "lev = sim._load_event", ("sim",)),
    ("sev", "sev = sim._store_event", ("sim",)),
    ("fev", "fev = sim._faa_event", ("sim",)),
    ("mc", "mc = stats._msg_counts", ("stats",)),
    ("bits", "bits = stats._bits", ("stats",)),
)


class CompiledProgram:
    """Lazily compiled block functions for one (program content, variant)
    pair.

    The variant key is everything the generated code folds in at compile
    time: the machine model code, whether the Section 5.2 oracle is on,
    whether the model runs a cache, and whether a fault plan is active
    (unfaulted variants inline the memory-transaction issue path;
    faulted ones go through the simulator methods so the NACK/retry
    protocol stays in one place).
    Runtime-configurable values (``switch_cost``, ``forced_interval``,
    burst limit) are read from the processor at execution time, so one
    compiled variant serves every latency / cost configuration.
    """

    __slots__ = ("name", "code", "model", "oracle_on", "cached", "faulted",
                 "funcs", "hazards", "loop_of", "headers", "compiled_blocks",
                 "compile_seconds")

    def __init__(self, program, model: int, oracle_on: bool, cached: bool,
                 faulted: bool):
        # Only the name and the instruction list are kept, not the
        # Program: the variant is shared by every program with the same
        # content, and a back-reference would keep its first owner alive.
        self.name = program.name
        self.code = program.instructions
        self.model = model
        self.oracle_on = oracle_on
        self.cached = cached
        self.faulted = faulted
        #: One slot per instruction: the function that serves a dispatch
        #: there, or None until one does.
        self.funcs: List[Optional[object]] = [None] * len(self.code)
        #: Per pc: the register slots the instruction reads or writes,
        #: once each, in the interpreter's probe order.  A guard tests
        #: them, and the burst loop resolves its :data:`STOP` from them.
        self.hazards: List[Tuple[int, ...]] = [
            tuple(dict.fromkeys(instr_reads(ins) + instr_writes(ins)))
            for ins in self.code
        ]
        self.loop_of, self.headers = _loop_shape(self.code)
        self.compiled_blocks = 0
        #: Wall-clock seconds spent generating + exec'ing block code
        #: (feeds the ``jit-compile`` span; only the cold compile branch
        #: pays the clock reads, dispatch hits stay one ``is None`` test).
        self.compile_seconds = 0.0

    def ensure(self, pc: int):
        """Compile (if needed) and return the block function entered at
        *pc*, installing a new one at every region start it serves."""
        fn = self.funcs[pc]
        if fn is None:
            started = time.perf_counter()
            fn, shares = _compile_entry(self, pc)
            for start in shares:  # each one still unserved
                self.funcs[start] = fn
            self.compiled_blocks += 1
            self.compile_seconds += time.perf_counter() - started
        return fn

    def source_for(self, pc: int) -> str:
        """The generated source for entry *pc* (debugging / tests)."""
        return _Emitter(self, pc).emit()


class _Variants(dict):
    """Variant key -> :class:`CompiledProgram` for one program content (a
    ``dict`` subclass because plain dicts cannot be weakly referenced)."""

    __slots__ = ("__weakref__",)


#: Program content -> its variant table, shared by every live program
#: with that content.  The values are weak: each program holds its table
#: as ``_jit_variants``, so an entry lasts exactly as long as some
#: program with that content does.
_TABLES = weakref.WeakValueDictionary()


def _variants_for(program) -> _Variants:
    """The variant table shared by every program with *program*'s content.

    The content key is every instruction field the emitter reads, with
    ``repr(imm)`` so that ``1`` and ``1.0`` (or ``0.0`` and ``-0.0``),
    which compare equal but store different values, stay apart.  It is
    computed once per program, which then keeps the table it resolved.
    """
    variants = getattr(program, "_jit_variants", None)
    if variants is None:
        key = tuple(
            (int(ins.op), ins.rd, ins.rs1, ins.rs2, repr(ins.imm), ins.target,
             ins.sync, ins.cost)
            for ins in program.instructions
        )
        variants = _TABLES.setdefault(key, _Variants())
        program._jit_variants = variants
    return variants


def compiled_for(program, model: int, oracle_on: bool, cached: bool,
                 faulted: bool = False) -> CompiledProgram:
    """The (cached) :class:`CompiledProgram` for one program variant.

    Compiled blocks are shared by content, not by object: the engine's
    program cache (:func:`repro.engine.executor._build`) builds a new
    :class:`~repro.isa.program.Program` for every thread count, and all
    of a level sweep's programs lower to the same code, so they resolve
    to one table and share the code compiled into it.
    """
    variants = _variants_for(program)
    key = (model, oracle_on, cached, faulted)
    compiled = variants.get(key)
    if compiled is None:
        compiled = CompiledProgram(program, model, oracle_on, cached, faulted)
        variants[key] = compiled
    return compiled


def compile_seconds_for(program) -> float:
    """Total codegen wall-clock seconds accumulated on *program*'s
    content across every compiled variant in this process.  Sampling it
    before and after a run attributes that run's compile cost (the
    delta) — the ``jit-compile`` span in :mod:`repro.obs.spans`.  The
    first sample resolves the shared table, so the delta never includes
    what other programs with the same content compiled earlier."""
    return sum(cp.compile_seconds for cp in _variants_for(program).values())


def _compile_entry(cp: CompiledProgram, entry: int):
    """The new block function entered at *entry*, and the region starts
    it serves."""
    emitter = _Emitter(cp, entry)
    source = emitter.emit()
    namespace = {"math": math, "ExecutionError": ExecutionError,
                 "heappush": heappush}
    exec(compile(source, f"<jit:{cp.name}@{entry}>", "exec"), namespace)
    # Popped, so the function and its globals form no reference cycle and
    # a block is freed with the last program that holds its table.
    return namespace.pop("_block"), emitter.shares


def _loop_shape(code) -> Tuple[dict, frozenset]:
    """Every branch and jump target, mapped to the header of the innermost
    loop around it that fits in one function (None if there is none), and
    the loop headers: the targets of backward branches and jumps."""
    ends = {}
    targets = set()
    for i, ins in enumerate(code):
        v = int(ins.op)
        if _FP_MAX < v <= _BR_MAX or ins.op is Op.J or ins.op is Op.JAL:
            targets.add(ins.target)
            if ins.target <= i:  # a back branch; the last one ends the loop
                ends[ins.target] = i
    loops = [(h, b) for h, b in ends.items() if b - h < MAX_EMIT]
    inner = {s: max((h for h, b in loops if h < s <= b), default=None)
             for s in targets}
    return inner, frozenset(ends)


def _literal(value) -> str:
    """Source text that evaluates to the immediate *value*.  ``repr`` is
    a literal for every int and finite float, but not for ``inf``,
    ``-inf`` or ``nan``."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"float('{value!r}')"
    return repr(value)


def _addr_expr(ins: Instruction) -> str:
    if ins.imm:
        return f"regs[{ins.rs1}] + {_literal(ins.imm)}"
    return f"regs[{ins.rs1}]"


def _operands(ins: Instruction) -> dict:
    """Source text for the ``{a}``/``{b}``/``{i}`` placeholders of
    :data:`~repro.isa.opcodes.EXPR` and :data:`~repro.isa.opcodes.FAULTS`:
    literal register indices and the immediate itself."""
    return {"a": f"regs[{ins.rs1}]", "b": f"regs[{ins.rs2}]",
            "i": _literal(ins.imm)}


class _Emitter:
    """Generates the source of one block function."""

    def __init__(self, cp: CompiledProgram, entry: int):
        self.cp = cp
        self.entry = entry
        self.lines: List[object] = []
        self.targets: List[int] = []
        #: The region starts the new function serves (see :meth:`emit`).
        self.shares: List[int] = []
        self.need = set()
        # Unfaulted variants mirror the simulator's uncached issue path
        # inline (bit accounting, scoreboard, heap push); faulted ones
        # call the simulator methods so the NACK/retry logic stays in
        # one place.
        self.inline_mem = not cp.faulted

    # -- low-level helpers -------------------------------------------------------

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def use(self, *names: str) -> None:
        for name in names:
            self.need.add(name)

    def _nx(self, n: int) -> str:
        """Executed-instruction count at a return site.

        ``_n`` accumulates instructions completed before the current
        region pass (prior loop iterations and region transfers, see
        :meth:`emit`); *n* counts instructions completed since the top
        of the current region on this pass.
        """
        return f"_n + {n}" if n else "_n"

    def _goto(self, ind: int, target: int, n_after: int) -> None:
        """A control transfer to a compile-time-known *target* pc.

        Emitted as a placeholder; :meth:`emit` resolves it to an
        in-function region jump (``_pc = target; continue``) when the
        target region is emitted into this same function, and to a
        ``CONTINUE`` return (dispatch-loop bounce) when it is not.
        """
        self.lines.append(("goto", ind, target, n_after))
        self.targets.append(target)

    def _target(self, rd: int) -> str:
        # r0 is a discarded destination, but the expression must still be
        # evaluated: the interpreter computes ``value`` (and takes any
        # fault) before the ``if ins.rd`` store guard.
        return f"regs[{rd}]" if rd else "_v"

    # -- guards ------------------------------------------------------------------

    def _guard(self, i: int, n: int, ind: int) -> None:
        """Stop before instruction *i* at the deadline, or when it reads
        or overwrites a register whose shared load is still in flight."""
        hazards = self.cp.hazards
        slots = hazards[i] if i < len(hazards) else ()  # past the end: none
        if slots:
            self.use("inflight")
            probe = " or ".join(f"{slot} in inflight" for slot in slots)
            self.w(ind, f"if t >= deadline or inflight and ({probe}):")
        else:
            self.w(ind, "if t >= deadline:")
        self.w(ind + 1, f"return {STOP}, t, {i}, {self._nx(n)}, 0, 0")

    # -- instruction bodies ------------------------------------------------------

    def _alu_body(self, ins: Instruction, i: int, ind: int) -> None:
        """Integer ALU / FP op body (no guards, no t update)."""
        self.use("regs")
        operands = _operands(ins)
        fault = FAULTS.get(ins.op)
        if fault is not None:
            condition, message = fault
            msg = f"pc={i}: {message} ({ins.to_asm()})"
            self.w(ind, f"if {condition.format(**operands)}:")
            self.w(ind + 1, f"raise ExecutionError({msg!r})")
        expr = EXPR[ins.op].format(**operands)
        self.w(ind, f"{self._target(ins.rd)} = {expr}")

    def _local_body(self, ins: Instruction, ind: int) -> None:
        """Local-memory op body (no guards, no t update)."""
        op = ins.op
        addr = _addr_expr(ins)
        if op is Op.LWL:
            if ins.rd:
                self.use("regs", "local")
                self.w(ind, f"regs[{ins.rd}] = local[{addr}]")
        elif op is Op.SWL:
            self.use("regs", "local")
            self.w(ind, f"local[{addr}] = regs[{ins.rs2}]")
        elif op is Op.LDL:
            if ins.rd:
                self.use("regs", "local")
                self.w(ind, f"_addr = {addr}")
                self.w(ind, f"regs[{ins.rd}] = local[_addr]")
                self.w(ind, f"regs[{ins.rd + 1}] = local[_addr + 1]")
        else:  # SDL
            self.use("regs", "local")
            self.w(ind, f"_addr = {addr}")
            self.w(ind, f"local[_addr] = regs[{ins.rs2}]")
            self.w(ind, f"local[_addr + 1] = regs[{ins.rs2 + 1}]")

    def _ideal_shared_body(self, ins: Instruction, ind: int) -> None:
        """Zero-latency shared op, executed eagerly (no guards/t update)."""
        op = ins.op
        addr = _addr_expr(ins)
        if op is Op.LWS:
            if ins.rd:
                self.use("regs", "shared")
                self.w(ind, f"regs[{ins.rd}] = shared[{addr}]")
        elif op is Op.SWS:
            self.use("regs", "shared")
            self.w(ind, f"shared[{addr}] = regs[{ins.rs2}]")
        elif op is Op.LDS:
            if ins.rd:
                self.use("regs", "shared")
                self.w(ind, f"_addr = {addr}")
                self.w(ind, f"regs[{ins.rd}] = shared[_addr]")
                self.w(ind, f"regs[{ins.rd + 1}] = shared[_addr + 1]")
        elif op is Op.SDS:
            self.use("regs", "shared")
            self.w(ind, f"_addr = {addr}")
            self.w(ind, f"shared[_addr] = regs[{ins.rs2}]")
            self.w(ind, f"shared[_addr + 1] = regs[{ins.rs2 + 1}]")
        else:  # FAA
            self.use("regs", "shared")
            self.w(ind, f"_addr = {addr}")
            self.w(ind, "_old = shared[_addr]")
            self.w(ind, f"shared[_addr] = _old + regs[{ins.rs2}]")
            if ins.rd:
                self.w(ind, f"regs[{ins.rd}] = _old")

    # -- full (guarded) instruction emitters -------------------------------------

    def _count_message(self, kind: MsgKind, sync: bool, ind: int) -> None:
        """Mirror ``SimStats.count_message`` inline (*sync* folds at
        compile time, bits come from the per-run precomputed table)."""
        self.use("stats", "bits")
        self.w(ind, f"_f, _r = bits[{kind.index}]")
        if sync:
            self.w(ind, "stats.sync_msgs += 1")
            self.w(ind, "stats.sync_bits += _f + _r")
        else:
            self.use("mc")
            self.w(ind, f"mc[{kind.index}] += 1")
            self.w(ind, "stats.fwd_bits += _f")
            self.w(ind, "stats.ret_bits += _r")

    def _emit_store(self, ins: Instruction, i: int, ind: int) -> None:
        """Non-ideal SWS/SDS: fire-and-forget, never breaks the burst."""
        self.use("regs", "sim")
        double = ins.op is Op.SDS
        sync = bool(ins.sync)
        self.w(ind, f"_addr = {_addr_expr(ins)}")
        self.w(ind, f"_v0 = regs[{ins.rs2}]")
        if double:
            self.w(ind, f"_v1 = regs[{ins.rs2 + 1}]")
            values = "(_v0, _v1)"
        else:
            values = "(_v0,)"
        if self.cp.cached:
            self.use("cache", "lw", "pid")
            self.w(ind, "cache.update_if_present(_addr, _v0)")
            if double:
                self.w(ind, "cache.update_if_present(_addr + 1, _v1)")
            self.w(ind, "_first = _addr // lw")
            if double:
                self.w(ind, "_last = (_addr + 1) // lw")
            else:
                self.w(ind, "_last = _first")
            self.w(ind, (
                "_comb = _first == proc.wc_line and _last == _first "
                "and t - proc.wc_time <= 8"
            ))
            self.w(ind, "proc.wc_line = _last")
            self.w(ind, "proc.wc_time = t")
            self.w(ind, (
                f"sim.write_through(t, _addr, {values}, pid, {sync}, "
                "combined=_comb)"
            ))
        elif self.inline_mem:
            # Mirror ``Simulator.mem_store`` (stores have no fault path,
            # and compiled code runs untraced).
            kind = MsgKind.WRITE2 if double else MsgKind.WRITE
            self._count_message(kind, sync, ind)
            self.use("heap", "hl", "sev")
            self.w(ind, "sim._seq = _s = sim._seq + 1")
            self.w(ind, f"heappush(heap, (t + hl, 0, _s, sev, (_addr, {values})))")
        else:
            self.use("tid")
            self.w(ind, f"sim.mem_store(t, _addr, {values}, {sync}, tid)")
        self.w(ind, f"t += {ins.cost}")

    def _emit_inline_issue(self, ins: Instruction, ind: int) -> None:
        """Mirror ``Simulator.mem_load`` / ``mem_faa`` inline for the
        unfaulted variant: bit accounting with a compile-time
        message kind, the split-phase scoreboard stamps, and a direct
        heap push of the (fault-free) completion event."""
        op = ins.op
        if op is Op.FAA:
            kind, nwords = MsgKind.FAA, 1
        elif op is Op.LDS:
            kind, nwords = MsgKind.READ2, 2
        else:
            kind, nwords = MsgKind.READ, 1
        dest = ins.rd
        self._count_message(kind, bool(ins.sync), ind)
        self.use("stats", "inflight", "heap", "hl")
        self.w(ind, "stats.mem_issued += 1")
        self.w(ind, "_rt = sim._fixed_rt")
        self.w(ind, (
            "_ready = t + (_rt if _rt is not None "
            "else sim._round_trip(t, _addr))"
        ))
        self.w(ind, f"inflight[{dest}] = _ready")
        if op is not Op.FAA and nwords == 2:
            self.w(ind, f"inflight[{dest + 1}] = _ready")
        self.w(ind, "if _ready > thread.pending_until:")
        self.w(ind + 1, "thread.pending_until = _ready")
        self.w(ind, "sim._seq = _s = sim._seq + 1")
        if op is Op.FAA:
            self.use("fev")
            self.w(ind, (
                "heappush(heap, (t + hl, 0, _s, fev, "
                f"(_addr, thread, {dest}, regs[{ins.rs2}], _ready, 0)))"
            ))
        else:
            self.use("lev")
            self.w(ind, (
                "heappush(heap, (t + hl, 0, _s, lev, "
                f"(_addr, {nwords}, thread, {dest}, _ready, 0)))"
            ))

    def _emit_uncached_issue(self, ins: Instruction, i: int, n: int,
                             ind: int) -> bool:
        """Issue an uncached load / FAA transaction; True if control can
        fall through to the next instruction."""
        cp = self.cp
        op = ins.op
        self.use("sim")
        if op is Op.FAA and cp.cached:
            # F&A mutates memory directly: drop our own stale copy.
            self.use("cache", "lw")
            self.w(ind, "cache.invalidate(_addr // lw)")
        if self.inline_mem:
            self._emit_inline_issue(ins, ind)
        elif op is Op.FAA:
            self.w(ind, (
                f"sim.mem_faa(t, _addr, thread, {ins.rd}, "
                f"regs[{ins.rs2}], {bool(ins.sync)})"
            ))
        else:
            nwords = 2 if op is Op.LDS else 1
            self.w(ind, (
                f"sim.mem_load(t, _addr, {nwords}, thread, {ins.rd}, "
                f"{bool(ins.sync)})"
            ))
        self.w(ind, f"t += {ins.cost}")
        if cp.model == M_SOL or (cp.model == M_MISS and op is Op.FAA):
            self.w(ind, (
                f"return {OUT_SWITCH}, t, {i + 1}, {self._nx(n + 1)}, "
                "thread.pending_until, proc.switch_cost"
            ))
            return False
        return True

    def _emit_shared(self, ins: Instruction, i: int, n: int, ind: int) -> bool:
        """Shared-memory op; returns True if control falls through."""
        cp = self.cp
        op = ins.op
        self.use("regs")
        if cp.model == M_IDEAL:
            self._ideal_shared_body(ins, ind)
            self.w(ind, f"t += {ins.cost}")
            return True

        if op is Op.SWS or op is Op.SDS:
            self._emit_store(ins, i, ind)
            return True

        if op is Op.FAA or not cp.cached:
            self.w(ind, f"_addr = {_addr_expr(ins)}")
            oracle = (
                cp.oracle_on and op is not Op.FAA and not ins.sync
                and not cp.cached
            )
            if oracle:
                # Section 5.2 estimator: a load grouped with the thread's
                # preceding reference is modelled as already prefetched.
                self.use("olc", "shared")
                self.w(ind, "if olc.access(_addr):")
                if ins.rd:
                    self.w(ind + 1, f"regs[{ins.rd}] = shared[_addr]")
                    if op is Op.LDS:
                        self.w(ind + 1, f"regs[{ins.rd + 1}] = shared[_addr + 1]")
                self.w(ind + 1, f"t += {ins.cost}")
                self.w(ind, "else:")
                self._emit_uncached_issue(ins, i, n, ind + 1)
                return True  # the miss arm returned or both arms advanced t
            return self._emit_uncached_issue(ins, i, n, ind)

        # Cached load (LWS / LDS).
        nwords = 2 if op is Op.LDS else 1
        sync = bool(ins.sync)
        self.use("cache")
        self.w(ind, f"_addr = {_addr_expr(ins)}")
        self.w(ind, "_first = cache.lookup(_addr)")
        if nwords == 2:
            self.w(ind, (
                "_second = cache.lookup(_addr + 1) "
                "if _first is not None else None"
            ))
            self.w(ind, "if _second is not None:")
        else:
            self.w(ind, "if _first is not None:")
        hit = ind + 1
        if ins.rd:
            self.w(hit, f"regs[{ins.rd}] = _first")
            if nwords == 2:
                self.w(hit, f"regs[{ins.rd + 1}] = _second")
        if not sync:
            self.use("stats")
            self.w(hit, "stats.cache_hits += 1")
        self.w(hit, f"t += {ins.cost}")
        if cp.model == M_MISS or cp.model == M_USE_MISS:
            # Starvation guard for models without SWITCH opcodes.
            self.use("forced", "stats")
            self.w(hit, "if forced and run0 + t >= forced:")
            self.w(hit + 1, "stats.forced_switches += 1")
            self.w(hit + 1,
                   f"return {OUT_SWITCH}, t, {i + 1}, {self._nx(n + 1)}, t, 0")
        self.w(ind, "else:")
        miss = ind + 1
        self.use("sim", "pid")
        self.w(miss, (
            f"_issued = sim.cached_load(t, _addr, {nwords}, thread, "
            f"{ins.rd}, pid, {sync})"
        ))
        if not sync:
            self.use("stats")
            self.w(miss, "stats.cache_misses += 1")
            self.w(miss, "if not _issued:")
            self.w(miss + 1, "stats.cache_merged += 1")
        self.w(miss, f"t += {ins.cost}")
        if cp.model == M_MISS:
            self.w(miss, (
                f"return {OUT_SWITCH}, t, {i + 1}, {self._nx(n + 1)}, "
                "thread.pending_until, proc.switch_cost"
            ))
        return True

    def _emit_switch_op(self, ins: Instruction, i: int, n: int, ind: int) -> bool:
        """SWITCH opcode; returns True if control falls through."""
        cp = self.cp
        self.w(ind, "t += 1")
        if cp.model == M_COND or (cp.model == M_EXPLICIT and cp.oracle_on):
            self.use("stats", "forced")
            self.w(ind, "if thread.pending_until > t:")
            self.w(ind + 1, (
                f"return {OUT_SWITCH}, t, {i + 1}, {self._nx(n + 1)}, "
                "thread.pending_until, 0"
            ))
            self.w(ind, "if forced and run0 + t >= forced:")
            self.w(ind + 1, "stats.forced_switches += 1")
            self.w(ind + 1,
                   f"return {OUT_SWITCH}, t, {i + 1}, {self._nx(n + 1)}, t, 0")
            self.w(ind, "stats.skipped_switches += 1")
            return True
        if cp.model in (M_EXPLICIT, M_SOL, M_USE):
            self.w(ind, "_resume = thread.pending_until")
            self.w(ind, "if _resume < t:")
            self.w(ind + 1, "_resume = t")
            self.w(ind,
                   f"return {OUT_SWITCH}, t, {i + 1}, {self._nx(n + 1)}, _resume, 0")
            return False
        return True  # IDEAL / MISS / USE_MISS ignore stray SWITCH opcodes

    def _emit_one(self, i: int, n: int, ind: int) -> Tuple[bool, int]:
        """Emit instruction *i* with full guards; returns
        ``(falls_through, next_pc)``."""
        ins = self.cp.code[i]
        v = int(ins.op)
        self._guard(i, n, ind)

        if v <= _FP_MAX:  # integer ALU / FP
            self._alu_body(ins, i, ind)
            self.w(ind, f"t += {ins.cost}")
            return True, i + 1

        if v <= _BR_MAX:  # conditional branches
            self.use("regs")
            self.w(ind, "t += 1")
            self.w(ind, f"if {EXPR[ins.op].format(**_operands(ins))}:")
            self._goto(ind + 1, ins.target, n + 1)
            return True, i + 1

        if v <= _JMP_MAX:  # J / JAL / JR / NOP / HALT
            op = ins.op
            if op is Op.NOP:
                self.w(ind, "t += 1")
                return True, i + 1
            if op is Op.HALT:
                self.w(ind, f"return {OUT_HALT}, t, {i}, {self._nx(n)}, t, 0")
                return False, i + 1
            if op is Op.J:
                self.w(ind, "t += 1")
                self._goto(ind, ins.target, n + 1)
            elif op is Op.JAL:
                self.use("regs")
                self.w(ind, f"regs[31] = {i + 1}")
                self.w(ind, "t += 1")
                self._goto(ind, ins.target, n + 1)
            else:  # JR: computed target, always a dispatch-loop bounce
                self.use("regs")
                self.w(ind, f"_jr = regs[{ins.rs1}]")
                self.w(ind, "t += 1")
                self.w(ind, f"return {CONTINUE}, t, _jr, {self._nx(n + 1)}, 0, 0")
            return False, i + 1

        if v <= _LOCAL_MAX:  # local memory
            self._local_body(ins, ind)
            self.w(ind, f"t += {ins.cost}")
            return True, i + 1

        if v <= _SHARED_MAX:  # shared memory
            return self._emit_shared(ins, i, n, ind), i + 1

        return self._emit_switch_op(ins, i, n, ind), i + 1

    # -- fast path ---------------------------------------------------------------

    def _fast_eligible(self, ins: Instruction) -> bool:
        """Ops groupable under one hoisted guard: they never end the
        burst, never branch, never touch the in-flight scoreboard or the
        simulated clock mid-body."""
        v = int(ins.op)
        return v <= _FP_MAX or ins.op is Op.NOP or (_JMP_MAX < v <= _LOCAL_MAX)

    def _fast_run(self, start: int, limit: int) -> int:
        """Length of the maximal fast-path run beginning at *start*."""
        code = self.cp.code
        end = min(len(code), start + limit)
        i = start
        while (i < end and self._fast_eligible(code[i])
               and not self._served(i, start)):
            i += 1
        return i - start

    def _served(self, pc: int, start: int) -> bool:
        """Whether a region from *start* ends before *pc* because an
        earlier function already serves it."""
        return pc != start and self.cp.funcs[pc] is not None

    def _emit_fast(self, start: int, length: int, n: int, ind: int) -> int:
        """Emit a grouped run; returns the new executed-instruction count.

        Fast arm: one check proves every per-instruction deadline check
        in the run would pass (``t`` only grows, so the last check — at
        ``t + cost(all but last)`` — dominates) and one emptiness check
        covers every scoreboard probe (these ops never mutate the
        scoreboard).  Slow arm: the exact interpreter sequence, taken
        whenever a pause/switch could land inside the run.
        """
        code = self.cp.code
        run = code[start:start + length]
        total = sum(ins.cost for ins in run)
        pre = total - run[-1].cost
        self.use("inflight")
        if pre:
            self.w(ind, f"if not inflight and t + {pre} < deadline:")
        else:
            self.w(ind, "if not inflight and t < deadline:")
        for offset, ins in enumerate(run):
            i = start + offset
            if int(ins.op) <= _FP_MAX:
                self._alu_body(ins, i, ind + 1)
            elif ins.op is Op.NOP:
                pass
            else:
                self._local_body(ins, ind + 1)
        self.w(ind + 1, f"t += {total}")
        self.w(ind, "else:")
        nn = n
        for offset, ins in enumerate(run):
            i = start + offset
            self._guard(i, nn, ind + 1)
            if int(ins.op) <= _FP_MAX:
                self._alu_body(ins, i, ind + 1)
            elif ins.op is not Op.NOP:
                self._local_body(ins, ind + 1)
            self.w(ind + 1, f"t += {ins.cost}")
            nn += 1
        return nn

    # -- top level ---------------------------------------------------------------

    def _emit_region(self, start: int, budget: int) -> int:
        """Emit one region (basic-block chain) starting at *start* into
        ``self.lines`` at relative indent 0; returns the remaining
        instruction budget.  Control transfers to compile-time-known
        targets go through :meth:`_goto` placeholders."""
        cp = self.cp
        code = cp.code
        pc = start
        n = 0
        while True:
            if pc >= len(code):
                # Fell off the end: the interpreter checks the deadline,
                # then faults on the fetch.  Lint-clean programs never
                # get here (isa-fall-off-end).
                self._guard(pc, n, 0)
                self.use("code")
                self.w(0, f"_ = code[{pc}]")
                return budget
            if self._served(pc, start):
                self._goto(0, pc, n)
                return budget
            if budget <= 0:
                self.w(0, f"return {CONTINUE}, t, {pc}, {self._nx(n)}, 0, 0")
                return 0
            length = self._fast_run(pc, budget)
            if length >= _MIN_RUN:
                n = self._emit_fast(pc, length, n, 0)
                pc += length
                budget -= length
                continue
            falls, next_pc = self._emit_one(pc, n, 0)
            n += 1
            budget -= 1
            if not falls:
                return budget
            pc = next_pc

    def emit(self) -> str:
        """Assemble the block function: a region state machine.

        The entry region plus (budget permitting) the regions for every
        compile-time-known branch/jump target it can reach that no
        earlier function serves are emitted into one function body,
        inside ``while True:``, which starts in the region its ``_pc``
        argument names.  A transfer to an in-function region is ``_pc =
        target; continue`` — re-running that region's own guards at its
        top, exactly as a fresh dispatch would — so loops (including
        multi-block loops) iterate without bouncing through the dispatch
        loop.  Transfers to targets left out of the function return
        ``CONTINUE`` and the burst loop calls the next block.  The ``_pc``
        chain tests loop headers first, innermost (highest pc) first,
        since the function is entered at any of its regions and a hot
        loop need not be the entry.  With a single region the ``_pc``
        dispatch collapses to a bare loop.

        The function serves its entry and each other region it emitted
        whole whose innermost loop that fits one function has its header
        served, here or earlier (:attr:`shares`).  Serving part of a
        loop whose header is still free would make the function that
        later takes the header bounce through this one every iteration.
        """
        cp = self.cp
        regions: List[Tuple[int, List[object]]] = []
        funcs = cp.funcs
        seen = {self.entry}
        pending = [self.entry]
        budget = MAX_EMIT
        while pending and budget > 0:
            start = pending.pop(0)
            self.lines = []
            budget = self._emit_region(start, budget)
            regions.append((start, self.lines))
            for target in self.targets:
                if target not in seen and funcs[target] is None:
                    seen.add(target)
                    pending.append(target)
            self.targets = []
        cut = regions[-1][0] if budget <= 0 else None  # ran out in it
        regions.sort(key=lambda region: (
            -region[0] if region[0] in cp.headers else 1))

        included = {start for start, _ in regions}
        for start in sorted(included):
            loop = cp.loop_of.get(start)
            if start == self.entry or (start != cut and (
                    loop is None or loop in self.shares
                    or funcs[loop] is not None)):
                self.shares.append(start)
        multi = len(regions) > 1
        base = 3 if multi else 2

        def resolve(lines: List[object], extra: int) -> List[str]:
            pad0 = "    " * extra
            out = []
            for line in lines:
                if isinstance(line, str):
                    out.append(pad0 + line)
                    continue
                _kind, ind, target, n_after = line
                pad = "    " * (extra + ind)
                if target in included:
                    out.append(f"{pad}_n += {n_after}")
                    if multi:
                        out.append(f"{pad}_pc = {target}")
                    out.append(f"{pad}continue")
                else:
                    out.append(
                        f"{pad}return {CONTINUE}, t, {target}, "
                        f"_n + {n_after}, 0, 0"
                    )
            return out

        body: List[str] = []
        if multi:
            kw = "if"
            for start, lines in regions:
                body.append(f"        {kw} _pc == {start}:")
                body.extend(resolve(lines, base))
                kw = "elif"
        else:
            body.extend(resolve(regions[0][1], base))

        # Order the preamble and close over only what the body touches.
        prologue: List[str] = []
        done = set()

        def hoist(name: str) -> None:
            if name in done:
                return
            for cand, stmt, prereqs in _PREAMBLE:
                if cand == name:
                    for prereq in prereqs:
                        hoist(prereq)
                    prologue.append("    " + stmt)
                    done.add(name)
                    return

        for name, _stmt, _prereqs in _PREAMBLE:
            if name in self.need:
                hoist(name)
        header = ["def _block(proc, thread, t, deadline, run0, _pc):"]
        prologue.append("    _n = 0")
        prologue.append("    while True:")
        return "\n".join(header + prologue + body) + "\n"
