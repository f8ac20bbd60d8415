"""The multithreaded processor: one burst loop + round-robin scheduler.

One :class:`Processor` holds ``M`` thread contexts and executes the current
thread's instructions in *bursts* — sequences of cycles that end at a
context-switch point (model dependent), at thread halt, at the engine's
burst limit, or when the thread touches a register whose shared load is
still in flight.

``dispatch_event`` is the one burst loop of both execution backends: it
calls the function behind each pc, ``fn(proc, thread, t, deadline, run0,
pc) -> (outcome, t, pc, n, resume, flush)``, until an outcome other than
:data:`CONTINUE`, then does the end-of-burst bookkeeping once.  That
function is :meth:`Processor._burst` on the interpreter backend, and a
:mod:`repro.jit.codegen` block on the compiled one (except in traced and
switch-every-cycle runs).  The outcome is one of the ``OUT_*`` codes, or
:data:`STOP` from a compiled block whose guard fired: the loop then
decides pause or switch the way ``_burst`` does, so the compiled
backend's scoreboard rule is written once, here.

Design notes for the interpreter (``_burst``):

* What an ALU, FP or compare-branch instruction computes is not
  written here.  Each pc's evaluator from :data:`repro.isa.opcodes.EVAL`
  (looked up once, when the processor is built) returns the value or the
  branch condition, or raises the opcode's :data:`~repro.isa.opcodes.
  FAULTS` fault, which the loop reports as an :class:`ExecutionError`
  naming the pc and the instruction.
* Jumps, memory opcodes and ``SWITCH``, whose behaviour depends on the
  switch model, dispatch on range checks over the ``Op`` integer values
  (declaration order groups related opcodes).
* Run lengths, the central measured quantity of the paper, are busy
  cycles between *taken* context switches; burst boundaries that are mere
  simulation artifacts (burst limit, waiting for an already-arrived
  response event) do not end a run.
* Context switches are free (0 cycles) for opcode-identified switch
  points (switch-on-load, explicit-switch, conditional-switch) and cost
  ``switch_cost`` pipeline-flush cycles for switch-on-miss, as in the
  paper's Section 3.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Optional, TYPE_CHECKING

from repro.isa.instruction import instr_reads, instr_writes
from repro.isa.opcodes import EVAL, Op, OpFault
from repro.isa.registers import reg_name
from repro.machine.cache import Cache
from repro.machine.models import SwitchModel
from repro.machine.simulator import SimulationTimeout
from repro.machine.thread import ThreadContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.simulator import Simulator

# Hoisted integer constants of the opcodes the loop runs itself (Op is
# an IntEnum; comparisons against plain ints run at C speed).
_J = Op.J.value
_JAL = Op.JAL.value
_JR = Op.JR.value
_NOP = Op.NOP.value
_LWL = Op.LWL.value
_SWL = Op.SWL.value
_LDL = Op.LDL.value
_LWS = Op.LWS.value
_SWS = Op.SWS.value
_LDS = Op.LDS.value
_SDS = Op.SDS.value
_FAA = Op.FAA.value

# Compact model codes for the interpreter.
M_IDEAL = 0
M_SOL = 1
M_USE = 2
M_EXPLICIT = 3
M_MISS = 4
M_USE_MISS = 5
M_COND = 6
M_SEC = 7

_MODEL_CODES = {
    SwitchModel.IDEAL: M_IDEAL,
    SwitchModel.SWITCH_ON_LOAD: M_SOL,
    SwitchModel.SWITCH_ON_USE: M_USE,
    SwitchModel.EXPLICIT_SWITCH: M_EXPLICIT,
    SwitchModel.SWITCH_ON_MISS: M_MISS,
    SwitchModel.SWITCH_ON_USE_MISS: M_USE_MISS,
    SwitchModel.CONDITIONAL_SWITCH: M_COND,
    SwitchModel.SWITCH_EVERY_CYCLE: M_SEC,
}

# Burst outcomes.
OUT_SWITCH = 0  # a context switch was taken: record the run, rotate threads
OUT_PAUSE = 1  # simulation artifact: same thread continues (no switch)
OUT_YIELD = 2  # rotate threads without a model-level switch (IDEAL fairness)
OUT_HALT = 3
#: Block-function outcome: control moved to ``pc`` within the same burst,
#: so the loop calls the function behind it.
CONTINUE = 4
#: Compiled-block outcome: a guard stopped before the instruction at
#: ``pc``, at the deadline or on an in-flight register; the loop resolves
#: it to a pause, a yield or a switch (``_burst`` never returns it).
STOP = 5

#: Pauses that ran nothing, at one cycle on one processor, before the run
#: is declared stalled: a scoreboard entry already due whose delivery
#: never comes pauses its thread at that cycle forever.
STALL_LIMIT = 1000


class ExecutionError(Exception):
    """An instruction faulted (bad address, divide by zero, ...)."""


class Processor:
    """One multithreaded processor."""

    def __init__(
        self,
        sim: "Simulator",
        pid: int,
        threads: List[ThreadContext],
        cache: Optional[Cache],
    ):
        self.sim = sim
        self.pid = pid
        self.threads = threads
        self.cache = cache
        #: Outstanding line fills: line number -> install time (MSHRs).
        self.mshr = {}
        #: Write-combining buffer state: last written line and cycle.
        self.wc_line = -1
        self.wc_time = -(1 << 30)
        self.cur = 0
        self.busy_cycles = 0
        self.idle_cycles = 0

        config = sim.config
        self.model = _MODEL_CODES[config.model]
        self.burst_limit = config.burst_limit
        # switch-every-cycle runs one-cycle switch-on-load bursts, each
        # ending in a rotation (see dispatch_event).  Fold that rewrite
        # in here, once, instead of swapping model/burst_limit around
        # every burst.
        self._sec = self.model == M_SEC
        if self._sec:
            self.model = M_SOL
            self.burst_limit = 1
        self.forced_interval = config.forced_switch_interval
        self.switch_cost = config.switch_cost if config.model.pays_flush_cost else 0
        self.code = sim.program.instructions
        #: Per pc: the instruction's ``EVAL`` evaluator, or None for the
        #: memory, jump and SWITCH opcodes the interpreter runs itself.
        self.evaluators = [EVAL.get(ins.op) for ins in self.code]
        #: Section 5.2 estimator (list of per-thread OneLineCache or None).
        self.oracle = sim.oracle_caches
        #: The cycle of the last pause that ran nothing, and how many
        #: such pauses it has seen (the progress guard).
        self._stall_cycle = -1
        self._stalls = 0

        #: The function behind each pc: compiled blocks (None until a
        #: burst first reaches the pc), or the interpreter.  A traced run
        #: is a one-off, and switch-every-cycle's one-instruction bursts
        #: leave a block nothing to amortize, so both keep the latter.
        self._compiled = None
        if sim.backend == "compiled" and not self._sec and sim.tracer is None:
            from repro.jit.codegen import compiled_for  # circular-import guard

            self._compiled = compiled_for(
                sim.program,
                model=self.model,
                oracle_on=self.oracle is not None,
                cached=cache is not None,
                faulted=sim._fault_plan is not None,
            )
            self._funcs = self._compiled.funcs
            self._hazards = self._compiled.hazards
        else:
            self._funcs = [Processor._burst] * len(self.code)

    # -- event entry points -----------------------------------------------------

    def dispatch_event(self, now: int, _arg=None) -> None:
        """Heap event: run one burst of the current thread, do its
        bookkeeping and reschedule.

        Calls the function behind each pc until one returns an outcome
        other than :data:`CONTINUE`.  The tracer sees ``switch_taken`` /
        ``thread_halt`` before ``burst``.
        """
        thread = self.threads[self.cur]
        funcs = self._funcs

        t = now
        deadline = now + self.burst_limit
        pc = thread.pc
        run0 = thread.run_cycles - now  # run length = run0 + t at any point
        n_instr = 0
        while True:
            fn = funcs[pc]
            if fn is None:
                fn = self._compiled.ensure(pc)
            outcome, t, pc, n, resume, flush = fn(
                self, thread, t, deadline, run0, pc)
            n_instr += n
            if outcome != CONTINUE:
                break

        sim = self.sim
        stats = sim.stats
        tracer = sim.tracer
        if outcome == STOP:
            # _burst's guard decision, for the compiled block that stopped
            # before pc: the deadline first, then the pc's slots.
            resume = t
            if t >= deadline:
                outcome = OUT_YIELD if self.model == M_IDEAL else OUT_PAUSE
            else:
                inflight = thread.inflight
                blocked = -1
                for slot in self._hazards[pc]:
                    ready = inflight.get(slot, -1)
                    if ready > blocked:
                        blocked = ready
                if blocked <= t:
                    outcome = OUT_PAUSE  # due, its event still queued
                else:
                    if self.model != M_USE and self.model != M_USE_MISS:
                        stats.implicit_use_switches += 1
                    outcome = OUT_SWITCH
                    resume = blocked
        elapsed = t - now
        self.busy_cycles += elapsed
        stats.busy_cycles += elapsed
        stats.instructions += n_instr
        thread.pc = pc

        if outcome == OUT_PAUSE:
            if t == now:
                self._stalled(thread, now)
            if self._sec:
                # switch-every-cycle rotates after every burst: a pause
                # (resume t, flush 0) becomes a taken switch.
                outcome = OUT_SWITCH
        if outcome == OUT_SWITCH:
            stats.switches += 1
            run = run0 + t  # inlined stats.record_run
            if run > 0:
                stats.run_lengths[run] += 1
            thread.run_cycles = 0
            thread.resume_time = resume
            if tracer is not None:
                tracer.switch_taken(t, self.pid, thread.tid, resume)
            if flush:
                stats.switch_overhead_cycles += flush
                t += flush
        elif outcome == OUT_HALT:
            stats.record_run(run0 + t)
            thread.run_cycles = 0
            thread.halted = True
            thread.halt_time = t
            sim.thread_halted(t)
            if tracer is not None:
                tracer.thread_halt(t, self.pid, thread.tid)
        else:  # PAUSE / YIELD: the run continues across the boundary.
            thread.run_cycles = run0 + t
            thread.resume_time = resume
        if tracer is not None:
            tracer.burst(now, self.pid, thread.tid, t, outcome)
        if outcome == OUT_PAUSE:
            # Inlined sim.schedule (priority 2): one dispatch per burst
            # makes the method-call overhead measurable.
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (t, 2, seq, self.dispatch_event, None))
        else:
            self._schedule_next(t)

    def _stalled(self, thread: ThreadContext, now: int) -> None:
        """Count a pause that ran nothing at cycle *now*; past
        :data:`STALL_LIMIT` of them the run has stopped making progress
        (``Simulator.run`` bounds only cycles), so raise naming what the
        thread waits on."""
        if now != self._stall_cycle:
            self._stall_cycle = now
            self._stalls = 0
        self._stalls += 1
        if self._stalls <= STALL_LIMIT:
            return
        due = ", ".join(
            f"{reg_name(reg)}@{ready}"
            for reg, ready in sorted(thread.inflight.items())
            if ready <= now
        )
        raise SimulationTimeout(
            f"no progress: processor {self.pid} paused {self._stalls} times "
            f"at cycle {now} without running an instruction (thread "
            f"{thread.tid}, pc {thread.pc}, registers due by then: "
            f"{due or 'none'}) [{self.sim.describe()}]"
        )

    def _schedule_next(self, t: int) -> None:
        """Strict round-robin: advance to the next live thread and wait for
        it if necessary (optimal under ordered delivery, Section 3)."""
        threads = self.threads
        count = len(threads)
        index = self.cur + 1
        if index == count:
            index = 0
        for _ in range(count):
            thread = threads[index]
            if not thread.halted:
                self.cur = index
                when = thread.resume_time
                if when < t:
                    when = t
                self.idle_cycles += when - t
                sim = self.sim
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (when, 2, seq, self.dispatch_event, None))
                return
            index += 1
            if index == count:
                index = 0
        # All threads on this processor have halted; the processor stops.

    # -- the interpreter ----------------------------------------------------------

    def _burst(self, thread: ThreadContext, t: int, deadline: int, run0: int,
               pc: int):
        """Execute *thread* from *pc* at cycle *t* until a burst-ending
        condition, under the block contract (see :meth:`dispatch_event`).

        Returns ``(outcome, t, pc, n, resume, flush)``: the outcome, the
        cycle and pc it ended at, the instructions executed, when the
        thread may resume and the switch's flush cycles.
        """
        sim = self.sim
        stats = sim.stats
        shared = sim.shared
        code = self.code
        regs = thread.regs
        local = thread.local
        inflight = thread.inflight
        cache = self.cache
        model = self.model
        forced = self.forced_interval
        pid = self.pid
        # The whole cost of disabled tracing on this hot loop: one local
        # load + None check per instruction (see repro.obs.tracer).
        tracer = sim.tracer
        evaluators = self.evaluators

        n_instr = 0
        outcome = -1
        resume = t
        flush = 0

        while True:
            if t >= deadline:
                outcome = OUT_YIELD if model == M_IDEAL else OUT_PAUSE
                resume = t
                break

            ins = code[pc]
            op = ins.op

            # Split-phase scoreboard: does this instruction read — or
            # overwrite (WAW) — a register whose shared load is still in
            # flight?  Reads need the value; writes must stall so the
            # late response cannot clobber the newer result.
            if inflight:
                blocked = -1
                for reg in instr_reads(ins):
                    ready = inflight.get(reg)
                    if ready is not None and ready > blocked:
                        blocked = ready
                for reg in instr_writes(ins):
                    ready = inflight.get(reg)
                    if ready is not None and ready > blocked:
                        blocked = ready
                if blocked >= 0:
                    if blocked <= t:
                        # The response has arrived in simulated time but its
                        # event is still queued: re-dispatch at t (artifact).
                        outcome = OUT_PAUSE
                        resume = t
                        break
                    # A genuine wait on an in-flight value.
                    if model != M_USE and model != M_USE_MISS:
                        stats.implicit_use_switches += 1
                    outcome = OUT_SWITCH
                    resume = blocked
                    break

            if tracer is not None:
                tracer.instr(t, pid, thread.tid, pc, op)

            evaluate = evaluators[pc]
            if evaluate is not None:  # value and compare-branch opcodes
                try:
                    value = evaluate(regs, ins)
                except OpFault as fault:
                    raise ExecutionError(
                        f"pc={pc}: {fault} ({ins.to_asm()})"
                    ) from None
                if op <= 39:  # integer ALU / FP: a value for rd
                    if ins.rd:
                        regs[ins.rd] = value
                    t += ins.cost
                    pc += 1
                else:  # conditional branch: a condition
                    pc = ins.target if value else pc + 1
                    t += 1
                n_instr += 1

            elif op <= 50:  # J / JAL / JR / NOP / HALT
                if op == _J:
                    pc = ins.target
                elif op == _JAL:
                    regs[31] = pc + 1
                    pc = ins.target
                elif op == _JR:
                    pc = regs[ins.rs1]
                elif op == _NOP:
                    pc += 1
                else:  # _HALT
                    outcome = OUT_HALT
                    resume = t
                    break
                t += 1
                n_instr += 1

            elif op <= 54:  # local memory (serviced locally, never switches)
                addr = regs[ins.rs1] + ins.imm
                if op == _LWL:
                    if ins.rd:
                        regs[ins.rd] = local[addr]
                elif op == _SWL:
                    local[addr] = regs[ins.rs2]
                elif op == _LDL:
                    if ins.rd:
                        regs[ins.rd] = local[addr]
                        regs[ins.rd + 1] = local[addr + 1]
                else:  # _SDL
                    local[addr] = regs[ins.rs2]
                    local[addr + 1] = regs[ins.rs2 + 1]
                t += ins.cost
                pc += 1
                n_instr += 1

            elif op <= 59:  # shared memory
                addr = regs[ins.rs1] + ins.imm

                if model == M_IDEAL:  # zero latency: execute eagerly
                    if op == _LWS:
                        if ins.rd:
                            regs[ins.rd] = shared[addr]
                    elif op == _SWS:
                        shared[addr] = regs[ins.rs2]
                    elif op == _LDS:
                        if ins.rd:
                            regs[ins.rd] = shared[addr]
                            regs[ins.rd + 1] = shared[addr + 1]
                    elif op == _SDS:
                        shared[addr] = regs[ins.rs2]
                        shared[addr + 1] = regs[ins.rs2 + 1]
                    else:  # _FAA
                        old = shared[addr]
                        shared[addr] = old + regs[ins.rs2]
                        if ins.rd:
                            regs[ins.rd] = old
                    t += ins.cost
                    pc += 1
                    n_instr += 1

                elif op == _SWS or op == _SDS:  # fire-and-forget stores
                    if op == _SWS:
                        values = (regs[ins.rs2],)
                    else:
                        values = (regs[ins.rs2], regs[ins.rs2 + 1])
                    if cache is not None:
                        # Keep our own copy coherent with our own stores
                        # (program order); remote copies — and, at apply
                        # time, this one too — are invalidated at memory.
                        for offset, word in enumerate(values):
                            cache.update_if_present(addr + offset, word)
                        # Write-combining: follow-on stores into the line
                        # written moments ago ride the open transaction.
                        line_words = cache.line_words
                        first = addr // line_words
                        last_word = (addr + len(values) - 1) // line_words
                        combined = (
                            first == self.wc_line
                            and last_word == first
                            and t - self.wc_time <= 8
                        )
                        self.wc_line = last_word
                        self.wc_time = t
                        sim.write_through(
                            t, addr, values, pid, ins.sync, combined=combined
                        )
                    else:
                        sim.mem_store(t, addr, values, ins.sync, thread.tid)
                    t += ins.cost
                    pc += 1
                    n_instr += 1

                elif op == _FAA or cache is None:  # uncached value-returning
                    if (
                        self.oracle is not None
                        and op != _FAA
                        and not ins.sync
                        and self.oracle[thread.tid].access(addr)
                    ):
                        # Section 5.2 estimator: this load touches the same
                        # line as the thread's preceding shared reference, so
                        # an inter-block compiler could have grouped it there;
                        # model it as already prefetched (no transaction).
                        if ins.rd:
                            regs[ins.rd] = shared[addr]
                            if op == _LDS:
                                regs[ins.rd + 1] = shared[addr + 1]
                        t += ins.cost
                        pc += 1
                        n_instr += 1
                        continue
                    if op == _FAA:
                        if cache is not None:
                            # F&A mutates memory directly: drop our own copy
                            # now so later own loads refetch (their memory
                            # read is ordered after the F&A's apply).
                            cache.invalidate(addr // cache.line_words)
                        sim.mem_faa(t, addr, thread, ins.rd, regs[ins.rs2], ins.sync)
                    else:
                        sim.mem_load(
                            t, addr, 2 if op == _LDS else 1, thread, ins.rd, ins.sync
                        )
                    t += ins.cost
                    pc += 1
                    n_instr += 1
                    if model == M_SOL or (model == M_MISS and op == _FAA):
                        outcome = OUT_SWITCH
                        resume = thread.pending_until
                        flush = self.switch_cost
                        break
                    # EXPLICIT / USE / COND / USE_MISS: keep executing; the
                    # switch decision happens at SWITCH or at first use.

                else:  # cached load (LWS / LDS)
                    nwords = 2 if op == _LDS else 1
                    first = cache.lookup(addr)
                    hit = first is not None
                    second = None
                    if hit and nwords == 2:
                        second = cache.lookup(addr + 1)
                        hit = second is not None
                    if hit:
                        if ins.rd:
                            regs[ins.rd] = first
                            if nwords == 2:
                                regs[ins.rd + 1] = second
                        if tracer is not None:
                            tracer.cache_hit(t, pid, thread.tid, addr)
                        if not ins.sync:
                            stats.cache_hits += 1
                        t += ins.cost
                        pc += 1
                        n_instr += 1
                        # Starvation guard for models without SWITCH opcodes:
                        # force a rotation after forced_interval busy cycles.
                        if (
                            (model == M_MISS or model == M_USE_MISS)
                            and forced
                            and run0 + t >= forced
                        ):
                            stats.forced_switches += 1
                            if tracer is not None:
                                tracer.switch_forced(t, pid, thread.tid)
                            outcome = OUT_SWITCH
                            resume = t
                            break
                    else:
                        issued = sim.cached_load(
                            t, addr, nwords, thread, ins.rd, pid, ins.sync
                        )
                        if tracer is not None:
                            if issued:
                                tracer.cache_miss(t, pid, thread.tid, addr)
                            else:
                                tracer.cache_merge(t, pid, thread.tid, addr)
                        if not ins.sync:
                            stats.cache_misses += 1
                            if not issued:
                                stats.cache_merged += 1
                        t += ins.cost
                        pc += 1
                        n_instr += 1
                        if model == M_MISS:
                            outcome = OUT_SWITCH
                            resume = thread.pending_until
                            flush = self.switch_cost
                            break

            else:  # SWITCH
                t += 1
                pc += 1
                n_instr += 1
                if model == M_COND or (model == M_EXPLICIT and self.oracle is not None):
                    # conditional-switch — or explicit-switch under the
                    # Section 5.2 estimator, where oracle-grouped loads
                    # leave nothing outstanding and the switch is skipped.
                    if thread.pending_until > t:
                        outcome = OUT_SWITCH
                        resume = thread.pending_until
                        break
                    if forced and run0 + t >= forced:
                        stats.forced_switches += 1
                        if tracer is not None:
                            tracer.switch_forced(t, pid, thread.tid)
                        outcome = OUT_SWITCH
                        resume = t
                        break
                    stats.skipped_switches += 1
                    if tracer is not None:
                        tracer.switch_skipped(t, pid, thread.tid)
                elif model == M_EXPLICIT or model == M_SOL or model == M_USE:
                    outcome = OUT_SWITCH
                    resume = thread.pending_until
                    if resume < t:
                        resume = t
                    break
                # IDEAL / MISS / USE_MISS ignore stray SWITCH opcodes.

        return outcome, t, pc, n_instr, resume, flush
