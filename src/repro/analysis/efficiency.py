"""The efficiency baseline.

The paper's efficiency metric is ``speedup / processors`` relative to a
single *zero-latency* processor (Section 3.2).  The tables search the
multithreading level through the engine
(:meth:`repro.harness.context.ExperimentContext.mt_levels`); this module
keeps the baseline for callers that build an application themselves.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.base import AppSpec
from repro.machine.config import MachineConfig
from repro.machine.models import SwitchModel
from repro.runtime.execution import run_app


def single_thread_cycles(spec: AppSpec, size: Dict) -> int:
    """Cycles on the ideal single processor (Table 1's "Cycles")."""
    app = spec.build(1, **size)
    config = MachineConfig(model=SwitchModel.IDEAL)
    return run_app(app, config).wall_cycles
