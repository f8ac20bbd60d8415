"""Inspection tools for simulation runs.

* :mod:`repro.tools.timeline` — ASCII Gantt charts of which thread held
  each processor over time (built from the burst events a
  :class:`~repro.obs.RingTracer` records); makes scheduling pathologies
  like the Section 6.2 starvation visible at a glance.
"""

from repro.tools.timeline import render_timeline, timeline_summary

__all__ = ["render_timeline", "timeline_summary"]
