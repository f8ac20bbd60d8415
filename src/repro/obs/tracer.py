"""The probe API: what the machine calls when something happens.

A tracer is any object with the emit methods below.  ``None`` is off:
the machine's hot paths then pay one attribute check
(``if tracer is not None``) and nothing else.

Two implementations ship:

* :class:`Tracer` — the no-op base; every emit method does nothing, so a
  subclass overrides only the probes it cares about;
* :class:`RingTracer` — records every event into a bounded
  :class:`~repro.obs.events.RingBuffer` and issues memory-transaction
  ids, feeding the exporters in :mod:`repro.obs.chrome`, the ASCII
  timeline in :mod:`repro.tools.timeline` and the metrics derivation in
  :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.events import EventKind, MEMORY_SIDE, RingBuffer, TraceEvent


class Tracer:
    """No-op probe sink; subclass and override the probes you need.

    Every method is called with the simulated cycle first.  ``mem_issue``
    must return an integer transaction id (``0`` is fine for sinks that
    do not correlate issues with completions).
    """

    # -- processor-side probes -------------------------------------------------

    def instr(self, time: int, pid: int, tid: int, pc: int, op: int) -> None:
        """One instruction executed (cycle = start of execution)."""

    def burst(self, start: int, pid: int, tid: int, end: int, outcome: int) -> None:
        """One dispatch burst ran *tid* on *pid* over ``[start, end)``."""

    def switch_taken(self, time: int, pid: int, tid: int, resume: int) -> None:
        """A context switch was taken; the thread resumes at *resume*."""

    def switch_skipped(self, time: int, pid: int, tid: int) -> None:
        """A conditional SWITCH fell through (no load outstanding)."""

    def switch_forced(self, time: int, pid: int, tid: int) -> None:
        """The forced-interval starvation guard (Section 6.2) fired."""

    def thread_halt(self, time: int, pid: int, tid: int) -> None:
        """Thread *tid* executed HALT."""

    # -- cache probes ----------------------------------------------------------

    def cache_hit(self, time: int, pid: int, tid: int, addr: int) -> None:
        """Shared load hit in *pid*'s cache."""

    def cache_miss(self, time: int, pid: int, tid: int, addr: int) -> None:
        """Shared load missed in *pid*'s cache."""

    def cache_merge(self, time: int, pid: int, tid: int, addr: int) -> None:
        """Miss merged onto an outstanding line fill (MSHR secondary)."""

    def cache_evict(self, time: int, pid: int, line: int) -> None:
        """Installing a fill evicted *line* from *pid*'s cache."""

    def invalidate(self, time: int, pid: int, line: int) -> None:
        """The directory invalidated *pid*'s copy of *line*."""

    # -- memory-transaction probes ---------------------------------------------

    def mem_issue(
        self, time: int, pid: int, tid: int, msg: str, addr: int, latency: int
    ) -> int:
        """A shared-memory transaction left the processor; returns its id.

        *msg* is a :class:`~repro.machine.network.MsgKind` name; the
        response (if the kind has one) arrives at ``time + latency``.
        """
        return 0

    def mem_complete(self, time: int, pid: int, tid: int, txn: int) -> None:
        """Transaction *txn*'s response was delivered."""

    def faa_combine(self, time: int, addr: int, old, addend) -> None:
        """A Fetch-and-Add was applied atomically at the memory module."""

    # -- fault-injection probes (see repro.faults) -----------------------------

    def mem_nack(
        self, time: int, pid: int, tid: int, txn: int, attempt: int, backoff: int
    ) -> None:
        """Transaction *txn*'s reply was lost; retry after *backoff* cycles."""

    def mem_retry(self, time: int, pid: int, tid: int, txn: int, attempt: int) -> None:
        """Retry *attempt* of transaction *txn* reissued (a fresh
        ``mem_issue`` with a new id follows immediately)."""

    def faa_replay(self, time: int, addr: int, txn: int) -> None:
        """A retried Fetch-and-Add was answered from the replay buffer
        instead of being applied a second time."""

    # -- component-lifecycle probes (see repro.faults.lifecycle) ---------------

    def component_degrade(self, time: int, component: int, stage: int) -> None:
        """Memory *component* entered DEGRADED stage *stage*."""

    def component_fail(self, time: int, component: int) -> None:
        """Memory *component* failed hard (requests NACK until repair)."""

    def component_repair(self, time: int, component: int) -> None:
        """Memory *component* finished repairing and is serving again."""


class RingTracer(Tracer):
    """Record every probe into a bounded ring of typed events.

    :param capacity: maximum events retained (oldest dropped first);
        ``None`` keeps everything.  The default fits any small-scale run
        while bounding memory on big ones.
    """

    def __init__(self, capacity: Optional[int] = 1_000_000):
        self.buffer = RingBuffer(capacity)
        self._next_txn = 0

    # -- access ----------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first."""
        return self.buffer.to_list()

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound (0 = the trace is complete)."""
        return self.buffer.dropped

    @property
    def total_events(self) -> int:
        return self.buffer.total

    def clear(self) -> None:
        self.buffer.clear()
        self._next_txn = 0

    # -- probes ----------------------------------------------------------------

    def instr(self, time, pid, tid, pc, op):
        self.buffer.append(TraceEvent(time, EventKind.INSTR, pid, tid, (pc, op)))

    def burst(self, start, pid, tid, end, outcome):
        self.buffer.append(
            TraceEvent(start, EventKind.BURST, pid, tid, (end, outcome))
        )

    def switch_taken(self, time, pid, tid, resume):
        self.buffer.append(
            TraceEvent(time, EventKind.SWITCH_TAKEN, pid, tid, (resume,))
        )

    def switch_skipped(self, time, pid, tid):
        self.buffer.append(TraceEvent(time, EventKind.SWITCH_SKIPPED, pid, tid, ()))

    def switch_forced(self, time, pid, tid):
        self.buffer.append(TraceEvent(time, EventKind.SWITCH_FORCED, pid, tid, ()))

    def thread_halt(self, time, pid, tid):
        self.buffer.append(TraceEvent(time, EventKind.THREAD_HALT, pid, tid, ()))

    def cache_hit(self, time, pid, tid, addr):
        self.buffer.append(TraceEvent(time, EventKind.CACHE_HIT, pid, tid, (addr,)))

    def cache_miss(self, time, pid, tid, addr):
        self.buffer.append(TraceEvent(time, EventKind.CACHE_MISS, pid, tid, (addr,)))

    def cache_merge(self, time, pid, tid, addr):
        self.buffer.append(TraceEvent(time, EventKind.CACHE_MERGE, pid, tid, (addr,)))

    def cache_evict(self, time, pid, line):
        self.buffer.append(TraceEvent(time, EventKind.CACHE_EVICT, pid, -1, (line,)))

    def invalidate(self, time, pid, line):
        self.buffer.append(TraceEvent(time, EventKind.INVALIDATE, pid, -1, (line,)))

    def mem_issue(self, time, pid, tid, msg, addr, latency):
        self._next_txn += 1
        txn = self._next_txn
        self.buffer.append(
            TraceEvent(time, EventKind.MEM_ISSUE, pid, tid, (txn, msg, addr, latency))
        )
        return txn

    def mem_complete(self, time, pid, tid, txn):
        self.buffer.append(TraceEvent(time, EventKind.MEM_COMPLETE, pid, tid, (txn,)))

    def faa_combine(self, time, addr, old, addend):
        self.buffer.append(
            TraceEvent(
                time, EventKind.FAA_COMBINE, MEMORY_SIDE, -1, (addr, old, addend)
            )
        )

    def mem_nack(self, time, pid, tid, txn, attempt, backoff):
        self.buffer.append(
            TraceEvent(time, EventKind.MEM_NACK, pid, tid, (txn, attempt, backoff))
        )

    def mem_retry(self, time, pid, tid, txn, attempt):
        self.buffer.append(
            TraceEvent(time, EventKind.MEM_RETRY, pid, tid, (txn, attempt))
        )

    def faa_replay(self, time, addr, txn):
        self.buffer.append(
            TraceEvent(time, EventKind.FAA_REPLAY, MEMORY_SIDE, -1, (addr, txn))
        )

    def component_degrade(self, time, component, stage):
        self.buffer.append(
            TraceEvent(
                time, EventKind.COMPONENT_DEGRADE, MEMORY_SIDE, -1,
                (component, stage),
            )
        )

    def component_fail(self, time, component):
        self.buffer.append(
            TraceEvent(time, EventKind.COMPONENT_FAIL, MEMORY_SIDE, -1, (component,))
        )

    def component_repair(self, time, component):
        self.buffer.append(
            TraceEvent(time, EventKind.COMPONENT_REPAIR, MEMORY_SIDE, -1, (component,))
        )
