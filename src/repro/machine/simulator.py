"""Discrete-event simulation engine.

The engine exploits the paper's machine model: processors interact *only*
through timestamped shared-memory transactions (constant latency, ordered
delivery), so each processor can execute a short *burst* of instructions
as one event, and memory-side effects are applied by separate events in
global timestamp order.  A shared load issued at cycle *t* reads memory
when the request arrives (``t + latency/2``) and the value is usable by
the thread at ``t + latency`` — exactly the paper's round-trip model.

Event kinds:

* processor dispatch — run one burst of the processor's current thread;
* memory events — apply a load/store/Fetch-and-Add (or, on the cached
  machine, a line fill / write-through / invalidation) at its arrival
  time.

Because bursts are bounded (``MachineConfig.burst_limit`` cycles) and all
cross-processor communication flows through memory events, the interleaving
error of burst-atomicity is bounded by one burst, and synchronisation
operations (Fetch-and-Add) are always exact: they execute at the memory, in
timestamp order.
"""

from __future__ import annotations

import dataclasses
import heapq
from heapq import heappush
from typing import Callable, List, Optional, Sequence

from repro.faults import RetryLimitExceeded, build_fault_plan, build_latency_model
from repro.faults.lifecycle import DEGRADED, FAILED, HEALTHY, build_lifecycle_plan
from repro.isa.program import Program
from repro.machine.cache import Cache
from repro.machine.config import MachineConfig
from repro.machine.directory import Directory
from repro.machine.network import MsgKind
from repro.machine.stats import SimStats
from repro.machine.thread import ThreadContext
from repro.obs.tracer import TimelineTracer, Tracer


class SimulationTimeout(Exception):
    """The simulation exceeded ``MachineConfig.max_cycles`` (livelock or a
    runaway program)."""


class SimulationResult:
    """Outcome of one simulation run."""

    def __init__(
        self,
        wall_cycles: int,
        stats: SimStats,
        shared: List,
        threads: List[ThreadContext],
        config: MachineConfig,
        program: Program,
    ):
        self.wall_cycles = wall_cycles
        self.stats = stats
        self.shared = shared
        self.threads = threads
        self.config = config
        self.program = program

    def efficiency(self, single_thread_cycles: int) -> float:
        """Paper's metric: ``speedup / processors`` where speedup is
        relative to a single zero-latency processor needing
        *single_thread_cycles*."""
        if not self.wall_cycles:
            return 0.0
        speedup = single_thread_cycles / self.wall_cycles
        return speedup / self.config.num_processors

    # -- serialization ---------------------------------------------------------

    def to_dict(self, include_shared: bool = False) -> dict:
        """JSON-safe dictionary; inverse of :meth:`from_dict`.

        Thread contexts and the program are *not* serialized — a restored
        result carries everything the analysis layer consumes (wall
        cycles, the full :class:`~repro.machine.stats.SimStats`, the
        machine configuration) but ``threads`` is empty and ``program``
        is ``None``.  Pass ``include_shared=True`` to also keep the final
        shared-memory image (useful for correctness archaeology; omitted
        by default because it can dominate the cache-entry size).
        """
        out = {
            "wall_cycles": self.wall_cycles,
            "stats": self.stats.to_dict(),
            "config": self.config.to_dict(),
        }
        if include_shared:
            out["shared"] = list(self.shared)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        return cls(
            wall_cycles=data["wall_cycles"],
            stats=SimStats.from_dict(data["stats"]),
            shared=list(data.get("shared", [])),
            threads=[],
            config=MachineConfig.from_dict(data["config"]),
            program=None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimulationResult wall={self.wall_cycles} "
            f"P={self.config.num_processors} M={self.config.threads_per_processor}>"
        )


@dataclasses.dataclass
class _Transaction:
    """One load, FAA or line fill in flight while a fault plan is active,
    carried from arrival to NACK to reissue.

    For a line fill, ``addr`` is the line number and ``owner`` the
    issuing :class:`~repro.machine.processor.Processor`; otherwise
    ``owner`` is the thread and ``dest`` its destination register.
    ``ready`` is when the reply is due, ``txn`` the tracer's id of the
    current attempt and ``ftxn`` the fault plan's id of the transaction.
    """

    kind: MsgKind
    addr: int
    owner: object
    dest: int
    addend: object
    ready: int
    txn: int
    ftxn: int
    sync: bool
    attempt: int = 1


class Simulator:
    """One configured machine executing one SPMD program.

    *thread_registers* supplies the initial register values for each
    thread (index = thread id); threads are assigned to processors in
    blocks, thread ``i`` to processor ``i // threads_per_processor``.
    """

    def __init__(
        self,
        program: Program,
        config: MachineConfig,
        shared: List,
        thread_registers: Sequence[dict],
        local_size: int = 0,
        tracer: Optional[Tracer] = None,
        backend: Optional[str] = None,
    ):
        if not program.finalized:
            raise ValueError("program must be finalized before simulation")
        if len(thread_registers) != config.total_threads:
            raise ValueError(
                f"need initial registers for {config.total_threads} threads, "
                f"got {len(thread_registers)}"
            )
        self.program = program
        self.config = config
        self.shared = shared
        line_words = config.cache.line_words if config.cache else 8
        self.stats = SimStats(config.num_processors, config.network, line_words)
        self.latency = config.latency
        self.half_latency = config.latency // 2

        self.threads: List[ThreadContext] = []
        for tid, regs in enumerate(thread_registers):
            thread = ThreadContext(tid, local_size)
            for slot, value in regs.items():
                thread.regs[slot] = value
            self.threads.append(thread)

        from repro.machine.processor import Processor  # circular-import guard
        from repro.machine.cache import OneLineCache
        from repro.jit import resolve_backend

        self.directory: Optional[Directory] = None
        if config.model.uses_cache:
            self.directory = Directory(config.num_processors)

        #: Section 5.2 estimator: one-line cache per thread.
        self.oracle_caches = None
        if config.interblock_oracle:
            self.oracle_caches = [
                OneLineCache(config.oracle_line_words) for _ in self.threads
            ]

        #: The probe sink (None = tracing off).  The disabled-overhead
        #: contract: a tracer whose ``enabled`` flag is false is dropped
        #: *here*, so every hot path pays exactly one ``is not None``
        #: check and nothing else when tracing is off.  Normalized before
        #: the processors exist: the compiled backend specializes its
        #: generated code on whether a tracer is attached.
        if tracer is not None and not tracer.enabled:
            tracer = None
        if tracer is None and config.record_timeline:
            tracer = TimelineTracer()
        self.tracer: Optional[Tracer] = tracer

        #: Which execution backend runs the bursts.  Backends are
        #: bit-identical by contract, so this is *not* part of
        #: MachineConfig (and never reaches config keys, golden fixtures
        #: or cache payloads) — it only selects the processor class.
        self._heap: List = []
        self._seq = 0
        self.now = 0
        self.live_threads = len(self.threads)
        self.last_halt_time = 0
        self._jitter_range = config.latency_jitter
        #: Fault injection (repro.faults).  Both stay ``None`` for the
        #: constant-latency, fault-free machine, keeping every memory
        #: path on its original arithmetic — the zero-perturbation
        #: contract mirrors the tracer's: one ``is None`` check per issue.
        #: Resolved before the processors exist: the compiled backend
        #: specializes its generated code on whether a plan is active.
        self.fault_config = config.faults
        self._latency_model = None
        self._fault_plan = None
        if config.faults is not None:
            self._latency_model = build_latency_model(config.faults, config.latency)
            self._fault_plan = build_fault_plan(config.faults)
        #: Component degradation-and-repair lifecycles (repro.faults.
        #: lifecycle).  ``_lifecycle`` exists whenever one is configured
        #: (availability stats are always reported then);
        #: ``_lifecycle_active`` is non-None only when components can
        #: actually transition — that is what perturbs round trips and
        #: NACKs requests, and build_fault_plan guarantees a plan exists
        #: then, so all lifecycle service decisions ride the faulty
        #: delivery paths (interpreter and compiled alike).
        self._lifecycle = build_lifecycle_plan(config.faults)
        self._lifecycle_active = (
            self._lifecycle
            if self._lifecycle is not None and not self._lifecycle.static
            else None
        )
        #: Constant round trip for the common (no fault model, no jitter)
        #: machine, or None when _round_trip must actually be consulted —
        #: saves two Python calls per memory transaction on hot paths.
        self._fixed_rt = (
            self.latency
            if self._latency_model is None
            and not self._jitter_range
            and self._lifecycle_active is None
            else None
        )
        #: Hoisted cache-line geometry for per-transaction arithmetic.
        self._line_words = line_words
        #: Fault-transaction sequence (ids feed the FaultPlan hashes).
        self._txn_seq = 0
        #: Fetch-and-Add idempotent-replay buffer: fault txn id -> the
        #: old value returned by the (single) application at memory.
        #: Filled when the add is applied, drained when its reply is
        #: delivered, so only adds whose reply is in flight remain.
        self._faa_replay = {}

        self.backend = resolve_backend(backend)
        if self.backend == "compiled":
            from repro.jit.driver import CompiledProcessor as processor_cls
        else:
            processor_cls = Processor

        self.processors: List[Processor] = []
        per = config.threads_per_processor
        for pid in range(config.num_processors):
            group = self.threads[pid * per : (pid + 1) * per]
            cache = Cache(config.cache) if config.model.uses_cache else None
            self.processors.append(processor_cls(self, pid, group, cache))

    @property
    def timeline(self) -> Optional[List]:
        """Burst tuples ``(start, pid, tid, end, outcome)`` when a
        burst-recording tracer is attached (``record_timeline=True`` or
        any :class:`~repro.obs.RingTracer`), else ``None``.

        The ASCII timeline and the Chrome trace both derive from the
        same tracer event stream — two views of one source of truth.
        """
        getter = getattr(self.tracer, "burst_tuples", None)
        return getter() if getter is not None else None

    def _pid_of(self, tid: int) -> int:
        return tid // self.config.threads_per_processor

    # -- event plumbing -----------------------------------------------------------

    def schedule(self, time: int, fn: Callable, arg, priority: int = 0) -> None:
        """Schedule ``fn(time, arg)``.

        Ties break by *priority*, then by scheduling order.  Three levels
        keep same-cycle semantics right: memory-side events (0) land
        before register deliveries (1), which land before processor
        dispatches (2) — so a line fill arriving at cycle *t* feeds a
        delivery at *t*, which is visible to a thread resuming at *t*.
        """
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, fn, arg))

    def run(self) -> SimulationResult:
        """Run to completion and return the result."""
        for proc in self.processors:
            self.schedule(0, proc.dispatch_event, None)
        max_cycles = self.config.max_cycles
        heap = self._heap
        while heap:
            time, _priority, _seq, fn, arg = heapq.heappop(heap)
            if time > max_cycles:
                raise SimulationTimeout(
                    f"simulation exceeded {max_cycles} cycles "
                    f"({self.live_threads} threads still live) [{self.describe()}]"
                )
            self.now = time
            fn(time, arg)
        if self.live_threads:
            raise SimulationTimeout(
                f"event queue drained with {self.live_threads} threads "
                f"still live (deadlock) [{self.describe()}]"
            )
        self.stats.wall_cycles = self.last_halt_time
        for proc in self.processors:
            self.stats.per_proc_busy[proc.pid] = proc.busy_cycles
            self.stats.per_proc_idle[proc.pid] = proc.idle_cycles
        if self.oracle_caches is not None:
            self.stats.oracle_hits = sum(olc.hits for olc in self.oracle_caches)
            self.stats.oracle_misses = sum(olc.misses for olc in self.oracle_caches)
        if self._lifecycle is not None:
            wall = self.last_halt_time
            # The schedule is a pure function of the config, so folding
            # it after the event loop (rather than on live transitions)
            # cannot diverge from what the memory paths observed — and
            # keeps the heap free of lifecycle bookkeeping events.
            self.stats.component_availability = self._lifecycle.availability(wall)
            if self.tracer is not None:
                for when, comp, state, stage in self._lifecycle.transitions(wall):
                    if state == DEGRADED:
                        self.tracer.component_degrade(when, comp, stage)
                    elif state == FAILED:
                        self.tracer.component_fail(when, comp)
                    elif state == HEALTHY:
                        self.tracer.component_repair(when, comp)
        return SimulationResult(
            self.last_halt_time,
            self.stats,
            self.shared,
            self.threads,
            self.config,
            self.program,
        )

    def describe(self) -> str:
        """Short configuration tag for error messages, so a timeout in an
        engine runlog is triageable without re-deriving the spec."""
        config = self.config
        parts = [
            f"model={config.model.value}",
            f"P={config.num_processors}",
            f"M={config.threads_per_processor}",
            f"latency={config.latency}",
        ]
        faults = config.faults
        if faults is not None and not faults.inert:
            parts.append(
                f"faults={faults.latency_model}"
                f"/loss={faults.loss_rate}/delay={faults.delay_rate}"
                f"/seed={faults.seed}"
            )
        if faults is not None and faults.has_lifecycles:
            lc = faults.lifecycle
            parts.append(
                f"lifecycle={lc.components}c/seed={lc.seed}"
                + ("" if lc.active else "/inert")
            )
        return " ".join(parts)

    def thread_halted(self, time: int) -> None:
        self.live_threads -= 1
        self.stats.halted_threads += 1
        if time > self.last_halt_time:
            self.last_halt_time = time

    def _jitter(self, time: int, addr: int) -> int:
        """Deterministic return-path jitter for one transaction.

        A multiplicative hash of (issue time, address) — reproducible
        run to run, roughly uniform over [0, latency_jitter].  Only the
        return leg is jittered; requests still reach memory in issue
        order, so Fetch-and-Add atomicity and store ordering hold.
        """
        if not self._jitter_range:
            return 0
        h = (time * 2654435761 + addr * 2246822519 + 3266489917) & 0xFFFFFFFF
        return (h >> 9) % (self._jitter_range + 1)

    def _round_trip(self, time: int, addr: int) -> int:
        """Round-trip cycles for a transaction issued now to *addr*.

        With no fault-injection latency model this is the original
        arithmetic (constant latency + legacy jitter knob), kept inline
        and bit-exact; otherwise the pluggable model decides."""
        model = self._latency_model
        if model is None:
            rt = self.latency + self._jitter(time, addr)
        else:
            rt = model.round_trip(time, addr)
        lifecycle = self._lifecycle_active
        if lifecycle is not None:
            rt = lifecycle.stretch(rt, addr, time)
        return rt

    def _mark_inflight(
        self, thread: ThreadContext, dest: int, nwords: int, ready: int
    ) -> None:
        """(Re)stamp the scoreboard for an outstanding load's registers —
        used by the retry/delay paths when a reply's arrival moves."""
        thread.inflight[dest] = ready
        if nwords == 2:
            thread.inflight[dest + 1] = ready
        if ready > thread.pending_until:
            thread.pending_until = ready

    # -- uncached shared-memory transactions ------------------------------------

    def mem_load(
        self,
        time: int,
        addr: int,
        nwords: int,
        thread: ThreadContext,
        dest: int,
        sync: bool,
    ) -> None:
        """Issue an uncached shared load (LWS/LDS): the value is read at
        memory at ``time + latency/2`` and usable at ``time + latency``."""
        kind = MsgKind.READ if nwords == 1 else MsgKind.READ2
        self.stats.count_message(kind, sync)
        self.stats.mem_issued += 1
        rt = self._fixed_rt
        ready = time + (rt if rt is not None else self._round_trip(time, addr))
        txn = 0
        if self.tracer is not None:
            txn = self.tracer.mem_issue(
                time, self._pid_of(thread.tid), thread.tid, kind.name, addr,
                ready - time,
            )
        thread.inflight[dest] = ready
        if nwords == 2:
            thread.inflight[dest + 1] = ready
        if ready > thread.pending_until:
            thread.pending_until = ready
        if self._fault_plan is None:
            # Inlined self.schedule — this is the hottest event source.
            self._seq = seq = self._seq + 1
            heappush(self._heap, (time + self.half_latency, 0, seq,
                                  self._load_event,
                                  (addr, nwords, thread, dest, ready, txn)))
            return
        self._txn_seq += 1
        self.schedule(
            time + self.half_latency,
            self._arrival_event,
            _Transaction(kind, addr, thread, dest, 0, ready, txn, self._txn_seq, sync),
        )

    def _load_event(self, time: int, arg) -> None:
        addr, nwords, thread, dest, ready, txn = arg
        self.stats.mem_completed += 1
        # Inlined thread.deliver (the hottest completion path): write the
        # register and clear the scoreboard slot only when this response
        # is the one the marker waits for (see ThreadContext.deliver).
        shared = self.shared
        inflight = thread.inflight
        if dest:
            thread.regs[dest] = shared[addr]
        if inflight.get(dest) == ready:
            del inflight[dest]
        if nwords == 2:
            dest += 1  # dest + 1 >= 1, so the r0 drop can't apply
            thread.regs[dest] = shared[addr + 1]
            if inflight.get(dest) == ready:
                del inflight[dest]
        if self.tracer is not None:
            self.tracer.mem_complete(ready, self._pid_of(thread.tid), thread.tid, txn)

    def mem_store(
        self, time: int, addr: int, values: tuple, sync: bool, tid: int = -1
    ) -> None:
        """Issue a fire-and-forget shared store (SWS/SDS)."""
        kind = MsgKind.WRITE if len(values) == 1 else MsgKind.WRITE2
        self.stats.count_message(kind, sync)
        if self.tracer is not None:
            pid = self._pid_of(tid) if tid >= 0 else -1
            self.tracer.mem_issue(time, pid, tid, kind.name, addr, self.half_latency)
        self._seq = seq = self._seq + 1  # inlined self.schedule
        heappush(self._heap, (time + self.half_latency, 0, seq,
                              self._store_event, (addr, values)))

    def _store_event(self, time: int, arg) -> None:
        addr, values = arg
        shared = self.shared
        shared[addr] = values[0]
        nvals = len(values)
        if nvals > 1:
            shared[addr + 1] = values[1]
        if self.directory is not None:
            line_words = self._line_words
            first = addr // line_words
            self._invalidate_sharers(time, first, writer=-1)
            if nvals > 1:
                last = (addr + nvals - 1) // line_words
                if last != first:
                    self._invalidate_sharers(time, last, writer=-1)

    def mem_faa(
        self,
        time: int,
        addr: int,
        thread: ThreadContext,
        dest: int,
        addend,
        sync: bool,
    ) -> None:
        """Fetch-and-Add: atomic at the memory module (combining network)."""
        self.stats.count_message(MsgKind.FAA, sync)
        self.stats.mem_issued += 1
        rt = self._fixed_rt
        ready = time + (rt if rt is not None else self._round_trip(time, addr))
        txn = 0
        if self.tracer is not None:
            txn = self.tracer.mem_issue(
                time, self._pid_of(thread.tid), thread.tid, MsgKind.FAA.name, addr,
                ready - time,
            )
        thread.inflight[dest] = ready
        if ready > thread.pending_until:
            thread.pending_until = ready
        if self._fault_plan is None:
            self._seq = seq = self._seq + 1  # inlined self.schedule
            heappush(self._heap, (time + self.half_latency, 0, seq,
                                  self._faa_event,
                                  (addr, thread, dest, addend, ready, txn)))
            return
        self._txn_seq += 1
        self.schedule(
            time + self.half_latency,
            self._arrival_event,
            _Transaction(
                MsgKind.FAA, addr, thread, dest, addend, ready, txn, self._txn_seq,
                sync,
            ),
        )

    def _faa_event(self, time: int, arg) -> None:
        addr, thread, dest, addend, ready, txn = arg
        old = self.shared[addr]
        self.shared[addr] = old + addend
        self.stats.mem_completed += 1
        thread.deliver(dest, old, ready)
        if self.tracer is not None:
            self.tracer.faa_combine(time, addr, old, addend)
            self.tracer.mem_complete(ready, self._pid_of(thread.tid), thread.tid, txn)
        if self.directory is not None:
            line = addr // self.config.cache.line_words
            self._invalidate_sharers(time, line, writer=-1)

    # -- cached shared-memory transactions ---------------------------------------

    def cached_load(
        self,
        time: int,
        addr: int,
        nwords: int,
        thread: ThreadContext,
        dest: int,
        pid: int,
        sync: bool,
    ) -> int:
        """Cache-missing shared load on the cached machine.

        Issues a line fill for every needed line that is neither resident
        nor already in flight; a load whose line is already being fetched
        *merges* onto the outstanding fill (MSHR behaviour — essential
        once grouped loads touch the same line back to back, or every
        group member would re-fetch the line).  Returns the number of
        fills actually issued (0 = fully merged).

        The requested words are delivered to the thread when the last
        involved line has been installed.
        """
        line_words = self._line_words
        proc = self.processors[pid]
        first = addr // line_words
        if nwords == 1:
            lines = (first,)
        else:
            last = (addr + nwords - 1) // line_words
            lines = (first,) if last == first else (first, last)
        ready = 0
        issued = 0
        rt = self._fixed_rt
        for line in lines:
            pending = proc.mshr.get(line)
            if pending is not None:
                ready = max(ready, pending)
                continue
            if proc.cache.contains(line * line_words):
                continue
            fill_ready = time + (rt if rt is not None
                                 else self._round_trip(time, line))
            proc.mshr[line] = fill_ready
            issued += 1
            self.stats.count_message(MsgKind.LINE_READ, sync)
            self.stats.mem_issued += 1
            txn = 0
            if self.tracer is not None:
                txn = self.tracer.mem_issue(
                    time, pid, thread.tid, MsgKind.LINE_READ.name,
                    line * line_words, fill_ready - time,
                )
            if self._fault_plan is None:
                self.schedule(
                    time + self.half_latency,
                    self._line_read_event,
                    (line, pid, fill_ready, txn),
                )
            else:
                self._txn_seq += 1
                self.schedule(
                    time + self.half_latency,
                    self._arrival_event,
                    _Transaction(
                        MsgKind.LINE_READ, line, proc, -1, 0, fill_ready, txn,
                        self._txn_seq, sync,
                    ),
                )
            ready = max(ready, fill_ready)
        if ready <= time:  # resident after all (race with a fill): serve now
            ready = time
        thread.inflight[dest] = ready
        if nwords == 2:
            thread.inflight[dest + 1] = ready
        if ready > thread.pending_until:
            thread.pending_until = ready
        self.schedule(
            ready, self._cached_deliver_event, (addr, nwords, thread, dest, pid, ready),
            priority=1,
        )
        return issued

    def _line_read_event(self, time: int, arg) -> None:
        line, pid, fill_ready, txn = arg
        line_words = self._line_words
        base = line * line_words
        data = list(self.shared[base : base + line_words])
        self.directory.add_sharer(line, pid)
        self.schedule(fill_ready, self._line_fill_event, (line, data, pid, txn))

    def _line_fill_event(self, time: int, arg) -> None:
        line, data, pid, txn = arg
        proc = self.processors[pid]
        proc.mshr.pop(line, None)
        self.stats.mem_completed += 1
        if self.tracer is not None:
            self.tracer.mem_complete(time, pid, -1, txn)
        if pid not in self.directory.sharers_of(line):
            # A write invalidated this fill while it was in flight (the
            # directory already dropped us): the data is stale, so the
            # fill is squashed.  The requesting loads' delivery events
            # fall back to the up-to-date memory image.
            return
        victim = proc.cache.install(line, data)
        if victim is not None:
            self.directory.drop_sharer(victim, pid)
            if self.tracer is not None:
                self.tracer.cache_evict(time, pid, victim)

    def _cached_deliver_event(self, time: int, arg) -> None:
        addr, nwords, thread, dest, pid, ready = arg
        if self._fault_plan is not None:
            # A fill this load was waiting on may have been lost or
            # delayed after this delivery was scheduled; its MSHR entry
            # then carries a later arrival.  Chase it: restamp the
            # scoreboard and re-run delivery at the new time (repeats
            # until the fill actually lands).
            mshr = self.processors[pid].mshr
            line_words = self.config.cache.line_words
            pending = 0
            for offset in range(nwords):
                entry = mshr.get((addr + offset) // line_words)
                if entry is not None and entry > pending:
                    pending = entry
            if pending > ready:
                self._mark_inflight(thread, dest, nwords, pending)
                self.schedule(
                    pending,
                    self._cached_deliver_event,
                    (addr, nwords, thread, dest, pid, pending),
                    priority=1,
                )
                return
        cache = self.processors[pid].cache
        for offset in range(nwords):
            value = cache.lookup(addr + offset)
            if value is None:
                # The line was evicted (or invalidated) between fill and
                # delivery; fall back to the memory image.
                value = self.shared[addr + offset]
            thread.deliver(dest + offset, value, ready)

    def write_through(
        self, time: int, addr: int, values: tuple, pid: int, sync: bool,
        combined: bool = False,
    ) -> None:
        """Shared store on the cached machine: update memory and
        invalidate *every* cached copy of the line.

        The writer's own processor is not spared: with a no-allocate
        write-through cache, a concurrent fetch by a sibling thread on the
        writer's processor can be installing a stale snapshot of the line,
        and only an unconditional invalidation closes that window (a real
        ownership protocol would instead serialise the write against the
        fetch at the directory).
        """
        if combined:
            for _ in values:
                self.stats.count_message(MsgKind.WRITE_COMBINED, sync)
            kind = MsgKind.WRITE_COMBINED
        else:
            kind = MsgKind.WRITE_THROUGH if len(values) == 1 else MsgKind.WRITE2
            self.stats.count_message(kind, sync)
        if self.tracer is not None:
            self.tracer.mem_issue(time, pid, -1, kind.name, addr, self.half_latency)
        self.schedule(time + self.half_latency, self._store_event, (addr, values))

    def _invalidate_sharers(self, time: int, line: int, writer: int) -> None:
        for victim in self.directory.invalidate_others(line, writer):
            self.stats.count_message(MsgKind.INVALIDATE, sync=False)
            self.schedule(time + self.half_latency, self._inval_event, (line, victim))

    def _inval_event(self, time: int, arg) -> None:
        line, victim = arg
        self.processors[victim].cache.invalidate(line)
        if self.tracer is not None:
            self.tracer.invalidate(time, victim, line)

    # -- the NACK/retry protocol (repro.faults) ---------------------------------

    def _arrival_event(self, time: int, rec: _Transaction) -> None:
        """A load, FAA or line-fill request reaches memory while a fault
        plan is active: NACK it, or lose, delay or deliver its reply.

        Values are read (and an FAA applied) at arrival, exactly as on
        the fault-free paths; a delayed reply only moves delivery, and a
        line fill hands its snapshot to :meth:`_line_read_event`."""
        kind = rec.kind
        lifecycle = self._lifecycle_active
        if lifecycle is not None:
            # A FAILED/REPAIRING component NACKs every request that
            # arrives while it is down, before any memory side effect (a
            # down module never applies an FAA add).  The NACK carries
            # the scheduled recovery cycle so the retry backs off past
            # the outage instead of burning the attempt budget.  Lines
            # map to components by index, like word addresses.
            recover = lifecycle.outage_until(rec.addr, time)
            if recover:
                self.stats.replies_dropped += 1
                self.schedule(rec.ready, self._nack_event, (rec, recover), priority=1)
                return
        if kind is MsgKind.FAA:
            old = self._faa_apply(time, rec.addr, rec.addend, rec.ftxn)
        lost, delay = self._fault_plan.reply_fate(rec.ftxn, rec.attempt)
        if lost:
            # The reply vanishes in flight; the issuer notices when it
            # was due.  Priority 1 lands the NACK before any dispatch of
            # the waiting thread at that cycle.
            self.stats.replies_dropped += 1
            self.schedule(rec.ready, self._nack_event, (rec, 0), priority=1)
            return
        if delay:
            self.stats.replies_delayed += 1
            rec.ready += delay
            self._restamp(rec)
        if kind is MsgKind.LINE_READ:
            self._line_read_event(time, (rec.addr, rec.owner.pid, rec.ready, rec.txn))
            return
        if kind is MsgKind.FAA:
            del self._faa_replay[rec.ftxn]
            values = (old,)
        elif kind is MsgKind.READ:
            values = (self.shared[rec.addr],)
        else:
            values = (self.shared[rec.addr], self.shared[rec.addr + 1])
        reply = (values, rec.owner, rec.dest, rec.ready, rec.txn)
        if delay:
            self.schedule(rec.ready, self._reply_event, reply, priority=1)
        else:
            self._reply_event(time, reply)

    def _nack_event(self, time: int, arg) -> None:
        """The issuer detects a lost reply when it was due, backs off and
        reissues the request.

        The backoff is capped exponential, ``min(backoff_base <<
        (attempt-1), backoff_cap)`` cycles, which bounds livelock under
        bursty loss while keeping early retries cheap.  A non-zero
        *hint* (an outage NACK's recovery cycle) stretches it to reach
        the repair, so a long outage costs one retry instead of the
        whole attempt budget.  Past ``max_retries`` attempts the run
        raises :class:`~repro.faults.plan.RetryLimitExceeded`, so a
        pathological loss rate is diagnosable instead of an eventual
        :class:`SimulationTimeout`."""
        rec, hint = arg
        kind, attempt = rec.kind, rec.attempt
        if kind is MsgKind.LINE_READ:  # a fill belongs to its processor
            pid, tid, where = rec.owner.pid, -1, rec.addr * self._line_words
        else:
            tid, where = rec.owner.tid, rec.addr
            pid = self._pid_of(tid)
        faults = self.fault_config
        if attempt >= faults.max_retries:
            raise RetryLimitExceeded(
                f"transaction {rec.ftxn} still unanswered after {attempt} attempts "
                f"(processor {pid}, thread {tid}) [{self.describe()}]"
            )
        backoff = min(faults.backoff_base << (attempt - 1), faults.backoff_cap)
        if hint > time + backoff:
            backoff = hint - time
        reissue = time + backoff
        stats = self.stats
        stats.nacks += 1
        stats.backoff_cycles += backoff
        stats.retries += 1
        stats.count_message(kind, rec.sync)  # retries re-spend bandwidth
        rec.ready = reissue + self._round_trip(reissue, rec.addr)
        rec.attempt = attempt + 1
        tracer = self.tracer
        if tracer is not None:
            tracer.mem_nack(time, pid, tid, rec.txn, attempt, backoff)
            tracer.mem_retry(reissue, pid, tid, rec.txn, attempt)
            rec.txn = tracer.mem_issue(
                reissue, pid, tid, kind.name, where, rec.ready - reissue
            )
        self._restamp(rec)
        self.schedule(reissue + self.half_latency, self._arrival_event, rec)

    def _restamp(self, rec: _Transaction) -> None:
        """Move where the issuer waits for *rec* to ``rec.ready``: the
        thread's scoreboard, or a line fill's MSHR entry.  The entry
        outlives a lost fill (cached_load only issues when none exists),
        and waiting loads' delivery events re-check it and push
        themselves out (:meth:`_cached_deliver_event`)."""
        if rec.kind is MsgKind.LINE_READ:
            mshr = rec.owner.mshr
            if rec.addr in mshr:
                mshr[rec.addr] = rec.ready
        else:
            nwords = 2 if rec.kind is MsgKind.READ2 else 1
            self._mark_inflight(rec.owner, rec.dest, nwords, rec.ready)

    def _faa_apply(self, time: int, addr: int, addend, ftxn: int):
        """Apply one Fetch-and-Add *exactly once* under retries.

        A retry of a transaction whose add already landed (only the
        reply was lost) is answered from the replay buffer — the memory
        module remembers the old value by transaction id until the
        reply is delivered, instead of re-applying the add."""
        replay = self._faa_replay
        if ftxn in replay:
            self.stats.faa_replays += 1
            if self.tracer is not None:
                self.tracer.faa_replay(time, addr, ftxn)
            return replay[ftxn]
        old = replay[ftxn] = self.shared[addr]
        self.shared[addr] = old + addend
        if self.tracer is not None:
            self.tracer.faa_combine(time, addr, old, addend)
        if self.directory is not None:
            line = addr // self.config.cache.line_words
            self._invalidate_sharers(time, line, writer=-1)
        return old

    def _reply_event(self, time: int, arg) -> None:
        """Deliver a load or FAA reply (values were read at memory on
        arrival)."""
        values, thread, dest, ready, txn = arg
        self.stats.mem_completed += 1
        for offset, value in enumerate(values):
            thread.deliver(dest + offset, value, ready)
        if self.tracer is not None:
            self.tracer.mem_complete(ready, self._pid_of(thread.tid), thread.tid, txn)
