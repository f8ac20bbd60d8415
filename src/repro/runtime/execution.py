"""Load a built application onto a configured machine.

The loader plays the role of the fork step in the paper's applications:
it materialises the shared-memory image, creates one thread context per
simulated process, and sets the convention registers — ``r4`` thread id,
``r5`` thread count, ``r6`` argument-block base — before the machine
starts at cycle zero.

(Current home of what ``repro.runtime.loader`` used to export — that
module is gone; prefer the :mod:`repro.api` facade for new code.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.isa.registers import TID_REG, NTHREADS_REG, ARGS_REG
from repro.machine.config import MachineConfig
from repro.machine.simulator import Simulator, SimulationResult
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import BuiltApp
    from repro.isa.program import Program


def make_simulator(
    app: "BuiltApp",
    config: MachineConfig,
    program: "Program | None" = None,
    tracer: Optional[Tracer] = None,
    backend: Optional[str] = None,
) -> Simulator:
    """Build a ready-to-run simulator for *app* on *config*.

    *program* overrides the application's original code (pass the output
    of :func:`repro.compiler.prepare_for_model` to run transformed code).
    *tracer* attaches a :mod:`repro.obs` probe (see
    :class:`~repro.obs.tracer.RingTracer`).  *backend* picks the
    execution backend (see :mod:`repro.jit`); backends are bit-identical
    by contract, so the choice affects wall-clock speed only.  The
    application must have been built for ``config.total_threads``
    threads.
    """
    if app.nthreads != config.total_threads:
        raise ValueError(
            f"application {app.name!r} was built for {app.nthreads} threads "
            f"but the machine has {config.total_threads}"
        )
    thread_registers = []
    for tid in range(config.total_threads):
        regs = {TID_REG: tid, NTHREADS_REG: config.total_threads}
        if app.args_base is not None:
            regs[ARGS_REG] = app.args_base
        thread_registers.append(regs)
    return Simulator(
        program if program is not None else app.program,
        config,
        list(app.shared),
        thread_registers,
        local_size=app.local_size,
        tracer=tracer,
        backend=backend,
    )


def run_app(
    app: "BuiltApp",
    config: MachineConfig,
    program: "Program | None" = None,
    check: bool = True,
    tracer: Optional[Tracer] = None,
    backend: Optional[str] = None,
    deadline: Optional[float] = None,
) -> SimulationResult:
    """Simulate *app* on *config* and (by default) verify its result;
    *deadline* is passed to :meth:`~repro.machine.simulator.Simulator.run`."""
    result = make_simulator(app, config, program, tracer=tracer, backend=backend).run(deadline)
    if check and app.check is not None:
        app.check(result.shared)
    return result
