"""The compiled backend's processor: block dispatch over generated code.

:class:`CompiledProcessor` is a drop-in :class:`~repro.machine.processor.
Processor` whose fused ``dispatch_event`` dispatches pre-compiled block
functions (:mod:`repro.jit.codegen`) instead of interpreting instruction
by instruction.  Everything around the hot loop — round-robin
scheduling, switch-every-cycle's one-instruction bursts — is inherited
unchanged, memory transactions (and with them the NACK/retry protocol)
go through the same :class:`~repro.machine.simulator.Simulator`
methods, and the burst bookkeeping below is a line-for-line copy of the
interpreter's, so the two backends produce bit-identical
:class:`~repro.machine.stats.SimStats` and tracer event streams.
"""

from __future__ import annotations

from typing import List, Optional

from repro.machine.cache import Cache
from heapq import heappush

from repro.machine.processor import (
    OUT_HALT,
    OUT_PAUSE,
    OUT_SWITCH,
    Processor,
)
from repro.machine.thread import ThreadContext
from repro.jit.codegen import CONTINUE, compiled_for


class CompiledProcessor(Processor):
    """One multithreaded processor executing compiled block functions."""

    def __init__(
        self,
        sim,
        pid: int,
        threads: List[ThreadContext],
        cache: Optional[Cache],
    ):
        super().__init__(sim, pid, threads, cache)
        # Switch-every-cycle runs one-instruction bursts: block dispatch
        # has nothing to amortize its per-call preamble over, so the
        # interpreter's per-instruction path, reached through the
        # inherited ``dispatch_event``, is the faster engine (and
        # trivially bit-identical).
        if not self._sec:
            self._compiled = compiled_for(
                sim.program,
                model=self.model,
                traced=sim.tracer is not None,
                oracle_on=self.oracle is not None,
                cached=cache is not None,
                faulted=sim._fault_plan is not None,
            )
            self._funcs = self._compiled.funcs

    def dispatch_event(self, now: int, _arg=None) -> None:
        """Heap event: one burst, bookkeeping, and rescheduling, fused.

        Folds ``Processor.dispatch_event`` + ``Processor._burst`` into a
        single frame — block dispatch is the compiled backend's hot
        path, and the stage-to-stage call overhead is measurable at one
        dispatch per burst.  Every bookkeeping and scheduling statement
        is a verbatim copy; the tracer event order (``switch_taken`` /
        ``thread_halt`` before ``burst``) matches the split original.
        """
        if self._sec:
            Processor.dispatch_event(self, now, _arg)
            return
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
        elapsed = t - now
        self.busy_cycles += elapsed
        stats.busy_cycles += elapsed
        stats.instructions += n_instr
        thread.pc = pc

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
            if tracer is not None:
                tracer.burst(now, self.pid, thread.tid, t, OUT_SWITCH)
            self._schedule_next(t)
            return
        if outcome == OUT_HALT:
            stats.record_run(run0 + t)
            thread.run_cycles = 0
            thread.halted = True
            thread.halt_time = t
            sim.thread_halted(t)
            if tracer is not None:
                tracer.thread_halt(t, self.pid, thread.tid)
                tracer.burst(now, self.pid, thread.tid, t, OUT_HALT)
            self._schedule_next(t)
            return
        # PAUSE / YIELD: the run continues across the boundary.
        thread.run_cycles = run0 + t
        thread.resume_time = resume
        if tracer is not None:
            tracer.burst(now, self.pid, thread.tid, t, outcome)
        if outcome == OUT_PAUSE:
            # Inlined sim.schedule (priority 2), as in the base class.
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (t, 2, seq, self.dispatch_event, None))
        else:
            self._schedule_next(t)
