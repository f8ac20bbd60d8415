"""The typed event vocabulary of the tracing layer.

Every probe point in the machine emits one :class:`TraceEvent` — a small
named tuple ``(time, kind, pid, tid, data)`` where *time* is the
simulated cycle, *pid*/*tid* locate the processor and hardware thread
(``-1`` = the shared-memory side, which belongs to no processor) and
*data* is a per-kind payload tuple (schemas below, and in DESIGN §5c).

Event kinds and payloads:

=================  ============================================================
kind               data
=================  ============================================================
INSTR              ``(pc, op)`` — one instruction executed at cycle *time*
                   (HALTs appear here but are excluded from the
                   retired-instruction statistic)
BURST              ``(end, outcome)`` — processor ran *tid* from *time*
                   to *end* (outcome codes from :mod:`repro.machine.processor`)
SWITCH_TAKEN       ``(resume,)`` — context switch taken; thread resumes at
                   *resume*
SWITCH_SKIPPED     ``()`` — conditional SWITCH fell through (nothing pending)
SWITCH_FORCED      ``()`` — the forced-interval starvation guard fired
MEM_ISSUE          ``(txn, kind, addr, latency)`` — transaction *txn* of
                   message kind *kind* (a :class:`~repro.machine.network.
                   MsgKind` name) issued; completes at ``time + latency``
MEM_COMPLETE       ``(txn,)`` — transaction *txn*'s response delivered
CACHE_HIT          ``(addr,)``
CACHE_MISS         ``(addr,)``
CACHE_MERGE        ``(addr,)`` — miss merged onto an in-flight fill (MSHR)
CACHE_EVICT        ``(line,)`` — capacity eviction installing a new line
FAA_COMBINE        ``(addr, old, addend)`` — Fetch-and-Add applied at memory
INVALIDATE         ``(line,)`` — directory invalidated *pid*'s copy of *line*
THREAD_HALT        ``()`` — thread *tid* executed HALT
MEM_NACK           ``(txn, attempt, backoff)`` — transaction *txn*'s reply was
                   lost; the processor backs off *backoff* cycles before retry
MEM_RETRY          ``(txn, attempt)`` — retry attempt *attempt* of transaction
                   *txn* reissued (followed by a fresh MEM_ISSUE)
FAA_REPLAY         ``(addr, txn)`` — a retried Fetch-and-Add was answered from
                   the idempotent-replay buffer (not re-applied)
COMPONENT_DEGRADE  ``(component, stage)`` — memory component entered DEGRADED
                   stage *stage* (round trips stretch; see repro.faults.
                   lifecycle)
COMPONENT_FAIL     ``(component,)`` — component failed hard (requests NACKed
                   until it returns to service)
COMPONENT_REPAIR   ``(component,)`` — component finished repairing and
                   returned to HEALTHY service
=================  ============================================================
"""

from __future__ import annotations

import enum
import json
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple


class EventKind(enum.IntEnum):
    """Discriminator for :class:`TraceEvent` payloads."""

    INSTR = 0
    BURST = 1
    SWITCH_TAKEN = 2
    SWITCH_SKIPPED = 3
    SWITCH_FORCED = 4
    MEM_ISSUE = 5
    MEM_COMPLETE = 6
    CACHE_HIT = 7
    CACHE_MISS = 8
    CACHE_MERGE = 9
    CACHE_EVICT = 10
    FAA_COMBINE = 11
    INVALIDATE = 12
    THREAD_HALT = 13
    MEM_NACK = 14
    MEM_RETRY = 15
    FAA_REPLAY = 16
    COMPONENT_DEGRADE = 17
    COMPONENT_FAIL = 18
    COMPONENT_REPAIR = 19


#: Field names of each kind's ``data`` tuple (drives the JSONL export).
DATA_FIELDS = {
    EventKind.INSTR: ("pc", "op"),
    EventKind.BURST: ("end", "outcome"),
    EventKind.SWITCH_TAKEN: ("resume",),
    EventKind.SWITCH_SKIPPED: (),
    EventKind.SWITCH_FORCED: (),
    EventKind.MEM_ISSUE: ("txn", "msg", "addr", "latency"),
    EventKind.MEM_COMPLETE: ("txn",),
    EventKind.CACHE_HIT: ("addr",),
    EventKind.CACHE_MISS: ("addr",),
    EventKind.CACHE_MERGE: ("addr",),
    EventKind.CACHE_EVICT: ("line",),
    EventKind.FAA_COMBINE: ("addr", "old", "addend"),
    EventKind.INVALIDATE: ("line",),
    EventKind.THREAD_HALT: (),
    EventKind.MEM_NACK: ("txn", "attempt", "backoff"),
    EventKind.MEM_RETRY: ("txn", "attempt"),
    EventKind.FAA_REPLAY: ("addr", "txn"),
    EventKind.COMPONENT_DEGRADE: ("component", "stage"),
    EventKind.COMPONENT_FAIL: ("component",),
    EventKind.COMPONENT_REPAIR: ("component",),
}


class TraceEvent(NamedTuple):
    """One cycle-stamped observation from the machine."""

    time: int
    kind: EventKind
    pid: int
    tid: int
    data: Tuple


#: ``pid`` used for events that happen at the memory/network side.
MEMORY_SIDE = -1


def event_to_record(event: TraceEvent) -> dict:
    """Flatten an event into a JSON-safe dictionary (for the JSONL dump)."""
    record = {
        "t": event.time,
        "kind": event.kind.name,
        "pid": event.pid,
        "tid": event.tid,
    }
    for name, value in zip(DATA_FIELDS[event.kind], event.data):
        record[name] = value
    return record


def record_to_event(record: dict) -> TraceEvent:
    """Inverse of :func:`event_to_record`."""
    kind = EventKind[record["kind"]]
    data = tuple(record[name] for name in DATA_FIELDS[kind])
    return TraceEvent(record["t"], kind, record["pid"], record["tid"], data)


class RingBuffer:
    """Bounded append-only event store.

    Keeps the most recent *capacity* events (``None`` = unbounded) and
    counts how many were dropped, so exporters can report truncation
    instead of silently presenting a partial trace as complete.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None = unbounded)")
        self.capacity = capacity
        self._events: List[TraceEvent] = []
        self._start = 0  # ring head when the buffer has wrapped
        self.total = 0

    def append(self, event: TraceEvent) -> None:
        capacity = self.capacity
        self.total += 1
        if capacity is None or len(self._events) < capacity:
            self._events.append(event)
            return
        # Overwrite the oldest slot in place (classic ring).
        self._events[self._start] = event
        self._start = (self._start + 1) % capacity

    @property
    def dropped(self) -> int:
        return self.total - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        events = self._events
        start = self._start
        for index in range(len(events)):
            yield events[(start + index) % len(events)]

    def to_list(self) -> List[TraceEvent]:
        return list(self)

    def clear(self) -> None:
        self._events.clear()
        self._start = 0
        self.total = 0


def write_events_jsonl(path, events: Iterable[TraceEvent]) -> int:
    """Dump *events* to *path*, one JSON record per line; returns the
    number written.  Inverse: :func:`read_events_jsonl`."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event_to_record(event), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_events_jsonl(path) -> List[TraceEvent]:
    """Load a JSONL event dump back into :class:`TraceEvent` objects."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(record_to_event(json.loads(line)))
    return events


def bursts(events: Iterable[TraceEvent]):
    """Yield ``(start, pid, tid, end, outcome)`` tuples from the BURST
    events of a stream (what :mod:`repro.tools.timeline` reads)."""
    for event in events:
        if event.kind is EventKind.BURST:
            yield (event.time, event.pid, event.tid, event.data[0], event.data[1])
