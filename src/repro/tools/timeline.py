"""ASCII processor-occupancy timelines.

This is one of the views over the :mod:`repro.obs` event stream (the
Chrome ``trace_event`` exporter in :mod:`repro.obs.chrome` is another).
Both functions here take a stream of
:class:`~repro.obs.events.TraceEvent` objects (for example
``RingTracer.events()``) and read its BURST events.

:func:`render_timeline` buckets the bursts into a fixed-width chart,
one row per processor, marking each bucket with the thread that was
busiest in it (``.`` = idle).

This is the fastest way to *see* the paper's Section 6.2 anomaly: under
conditional-switch without the forced interval, one thread's mark fills
a processor's whole row while its siblings — one of them holding the
work-queue lock everyone else spins on — never appear.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.obs.events import TraceEvent, bursts

_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_timeline(
    events: Iterable[TraceEvent],
    num_processors: int,
    width: int = 72,
    until: "int | None" = None,
) -> str:
    """Render the bursts of *events* as one occupancy row per processor."""
    events = list(bursts(events))
    if not events:
        return "(empty timeline)"
    horizon = until if until is not None else max(end for _s, _p, _t, end, _o in events)
    horizon = max(horizon, 1)
    bucket = max(1, -(-horizon // width))
    # busy[pid][col][tid] = cycles of tid in that bucket
    busy: List[List[Dict[int, int]]] = [
        [dict() for _ in range(width)] for _ in range(num_processors)
    ]
    for start, pid, tid, end, _outcome in events:
        # Widen degenerate (zero-length) bursts to one cycle *before*
        # clamping to the horizon — the other order used to push a
        # one-cycle mark past ``until``.  Events at/after the horizon
        # are simply outside the chart.
        if end <= start:
            end = start + 1
        if start >= horizon:
            continue
        end = min(end, horizon)
        col = start // bucket
        position = start
        while position < end and col < width:
            span = min(end, (col + 1) * bucket) - position
            cell = busy[pid][col]
            cell[tid] = cell.get(tid, 0) + span
            position += span
            col += 1
    lines = [
        f"processor occupancy, {horizon} cycles in {width} buckets of "
        f"{bucket} (glyph = busiest thread, '.' = idle)"
    ]
    for pid in range(num_processors):
        row = []
        for col in range(width):
            cell = busy[pid][col]
            if not cell:
                row.append(".")
            else:
                tid = max(cell, key=cell.get)
                row.append(_GLYPHS[tid % len(_GLYPHS)])
        lines.append(f"P{pid}: " + "".join(row))
    return "\n".join(lines)


def timeline_summary(
    events: Iterable[TraceEvent], num_processors: int
) -> Dict[int, Dict[int, int]]:
    """Busy cycles per thread per processor: {pid: {tid: cycles}}."""
    summary: Dict[int, Dict[int, int]] = {pid: {} for pid in range(num_processors)}
    for start, pid, tid, end, _outcome in bursts(events):
        summary[pid][tid] = summary[pid].get(tid, 0) + max(0, end - start)
    return summary
