"""Shared single-spec command-line surface.

``repro-trace run`` and ``repro-serve submit`` describe one simulation
point the same way: an app name plus ``--model``, ``--processors``,
``--level``, ``--scale``, ``--latency`` and the fault-injection flags
from :mod:`repro.faults.cliargs`.  This module keeps the spelling and
defaults in one place and translates parsed arguments into a
:class:`~repro.engine.spec.RunSpec`.
"""

from __future__ import annotations

import argparse

from repro.engine.spec import DEFAULT_LATENCY, RunSpec
from repro.faults.cliargs import add_fault_arguments, fault_config_from_args
from repro.jit import BACKENDS
from repro.machine.models import SwitchModel


def add_backend_argument(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--backend`` flag (one definition for
    ``repro-bench``, ``repro-trace run`` and ``repro-serve submit``)."""
    parser.add_argument(
        "--backend",
        default=None,
        choices=sorted(BACKENDS),
        help="execution backend (bit-identical results; default: "
        "interpreter — see repro-bench --list-backends)",
    )


def add_check_argument(parser: argparse.ArgumentParser) -> None:
    """Install ``--check`` (one definition for ``repro-bench``,
    ``repro-trace run`` and ``repro-serve serve``)."""
    parser.add_argument(
        "--check",
        action="store_true",
        help="lint every program (repro.lint) and run the repro.check "
        "invariant oracle (conservation laws, clean halts) on every "
        "result; a run that fails either fails",
    )


def add_spec_arguments(
    parser: argparse.ArgumentParser, faults: bool = True
) -> None:
    """Install the one-simulation-point flags on *parser*."""
    parser.add_argument("app", help="registered application name (e.g. sieve)")
    parser.add_argument(
        "--model",
        default=SwitchModel.SWITCH_ON_LOAD.value,
        help="switch model (canonical name or paper alias, e.g. eswitch)",
    )
    parser.add_argument("--processors", type=int, default=2)
    parser.add_argument(
        "--level", type=int, default=4, help="threads per processor"
    )
    parser.add_argument(
        "--scale", default="tiny", choices=("tiny", "small", "medium", "bench")
    )
    parser.add_argument(
        "--latency", type=int, default=DEFAULT_LATENCY, help="round-trip cycles"
    )
    add_backend_argument(parser)
    if faults:
        add_fault_arguments(parser)


def spec_from_args(args) -> RunSpec:
    """The :class:`RunSpec` the parsed *args* describe (fault flags, when
    present, become a ``faults`` override; the ideal machine forces the
    default latency to 0, matching :func:`repro.api.simulate`).

    Raises ``ValueError`` for an unknown model spelling or latency-model
    name — callers print it and exit 2.
    """
    model = SwitchModel.parse(args.model)
    latency = args.latency
    if model is SwitchModel.IDEAL and latency == DEFAULT_LATENCY:
        latency = 0
    overrides = {}
    if hasattr(args, "latency_model"):
        faults = fault_config_from_args(args, latency)
        if faults is not None:
            overrides["faults"] = faults
    return RunSpec.create(
        args.app,
        model=model,
        processors=args.processors,
        level=args.level,
        scale=args.scale,
        latency=latency,
        backend=getattr(args, "backend", None),
        **overrides,
    )
