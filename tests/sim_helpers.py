"""Simulate assembly snippets and programs in tests.

Test modules import these by name (``from sim_helpers import run_asm``);
``conftest.py`` keeps only fixtures, because pytest loads every
``conftest.py`` outside a package as the one module ``conftest``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.isa import assemble, Program
from repro.machine import MachineConfig, SwitchModel, Simulator, SimulationResult

#: The concrete backends of :data:`repro.jit.BACKENDS` (not its ``auto``
#: alias): a test runs each case on both.
BACKENDS = ("interpreter", "compiled")


def run_asm(
    asm: str,
    shared: Optional[List] = None,
    model: SwitchModel = SwitchModel.IDEAL,
    processors: int = 1,
    threads: int = 1,
    latency: int = 200,
    local_size: int = 64,
    regs: Optional[Sequence[Dict[int, object]]] = None,
    tracer=None,
    backend: Optional[str] = None,
    **config_extra,
) -> SimulationResult:
    """Assemble and simulate a snippet; returns the SimulationResult."""
    program = assemble(asm)
    return run_program(
        program,
        shared=shared,
        model=model,
        processors=processors,
        threads=threads,
        latency=latency,
        local_size=local_size,
        regs=regs,
        tracer=tracer,
        backend=backend,
        **config_extra,
    )


def run_program(
    program: Program,
    shared: Optional[List] = None,
    model: SwitchModel = SwitchModel.IDEAL,
    processors: int = 1,
    threads: int = 1,
    latency: int = 200,
    local_size: int = 64,
    regs: Optional[Sequence[Dict[int, object]]] = None,
    tracer=None,
    backend: Optional[str] = None,
    **config_extra,
) -> SimulationResult:
    if model is SwitchModel.IDEAL:
        latency = 0
    config_extra.setdefault("max_cycles", 50_000_000)
    config = MachineConfig(
        model=model,
        num_processors=processors,
        threads_per_processor=threads,
        latency=latency,
        **config_extra,
    )
    total = config.total_threads
    thread_regs = list(regs) if regs is not None else [{} for _ in range(total)]
    for tid, reg_map in enumerate(thread_regs):
        reg_map.setdefault(4, tid)
        reg_map.setdefault(5, total)
    sim = Simulator(
        program,
        config,
        list(shared) if shared is not None else [0] * 64,
        thread_regs,
        local_size=local_size,
        tracer=tracer,
        backend=backend,
    )
    return sim.run()


NONIDEAL_MODELS = [m for m in SwitchModel if m is not SwitchModel.IDEAL]
