"""Shared command-line surface for fault injection.

``repro-bench``, ``repro-trace`` and ``repro-serve submit`` expose the
same fault flags (``--latency-model``, ``--fault-rate``, ``--fault-seed``,
``--fault-jitter``) plus the component-lifecycle group
(``--lifecycle-components`` and friends); this module keeps their
spelling, defaults and FaultConfig translation in one place.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.faults.config import LATENCY_MODELS, FaultConfig, LifecycleConfig


def add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the fault-injection flags on *parser*."""
    group = parser.add_argument_group("fault injection")
    group.add_argument(
        "--latency-model",
        default="constant",
        choices=LATENCY_MODELS,
        help="round-trip latency model (default: constant, the paper's)",
    )
    group.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="probability each memory reply is dropped in flight; "
        "dropped replies are NACKed and retried with capped "
        "exponential backoff (default: 0)",
    )
    group.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for every fault/latency draw — the same seed "
        "reproduces the same run bit for bit (default: 0)",
    )
    group.add_argument(
        "--fault-jitter",
        type=int,
        default=None,
        metavar="CYCLES",
        help="jitter magnitude for the uniform/geometric latency models "
        "(default: half the base latency)",
    )
    chaos = parser.add_argument_group(
        "component lifecycles (chaos scenarios)",
        "seed-deterministic HEALTHY→DEGRADED→FAILED→REPAIRING walks per "
        "memory component; see DESIGN §5i",
    )
    chaos.add_argument(
        "--lifecycle-components",
        type=int,
        default=0,
        metavar="N",
        help="number of interleaved memory components walking lifecycles "
        "(default: 0 = lifecycles off)",
    )
    chaos.add_argument(
        "--lifecycle-affected",
        type=int,
        default=None,
        metavar="K",
        help="components that actually degrade (ids 0..K-1; default: all)",
    )
    chaos.add_argument(
        "--lifecycle-mean-healthy",
        type=int,
        default=20_000,
        metavar="CYCLES",
        help="mean healthy time before degrading (default: 20000; "
        "0 = never degrade, availability stats only)",
    )
    chaos.add_argument(
        "--lifecycle-mean-degraded",
        type=int,
        default=4_000,
        metavar="CYCLES",
        help="mean time per degraded stage (default: 4000)",
    )
    chaos.add_argument(
        "--lifecycle-mean-failed",
        type=int,
        default=1_000,
        metavar="CYCLES",
        help="mean hard-failure time, every request NACKed (default: 1000)",
    )
    chaos.add_argument(
        "--lifecycle-mean-repair",
        type=int,
        default=2_000,
        metavar="CYCLES",
        help="mean repair time before returning to service (default: 2000)",
    )
    chaos.add_argument(
        "--lifecycle-stages",
        type=int,
        default=1,
        metavar="K",
        help="degraded stages walked before the hard failure (default: 1)",
    )
    chaos.add_argument(
        "--lifecycle-scale",
        type=float,
        default=1.5,
        metavar="X",
        help="round-trip multiplier per degraded stage (default: 1.5)",
    )
    chaos.add_argument(
        "--lifecycle-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the transition schedules (default: 0)",
    )


def lifecycle_config_from_args(args) -> Optional[LifecycleConfig]:
    """The :class:`LifecycleConfig` the parsed *args* describe, or
    ``None`` when ``--lifecycle-components`` was left at 0."""
    components = getattr(args, "lifecycle_components", 0)
    if components <= 0:
        return None
    return LifecycleConfig(
        components=components,
        seed=args.lifecycle_seed,
        mean_healthy=args.lifecycle_mean_healthy,
        mean_degraded=args.lifecycle_mean_degraded,
        mean_failed=args.lifecycle_mean_failed,
        mean_repair=args.lifecycle_mean_repair,
        degrade_stages=args.lifecycle_stages,
        degraded_scale=args.lifecycle_scale,
        affected=args.lifecycle_affected,
    )


def fault_config_from_args(args, base_latency: int) -> Optional[FaultConfig]:
    """The :class:`FaultConfig` the parsed *args* describe, or ``None``
    when they leave the machine unperturbed (constant latency, no loss,
    no lifecycles)."""
    lifecycle = lifecycle_config_from_args(args)
    if (
        args.latency_model == "constant"
        and args.fault_rate <= 0.0
        and lifecycle is None
    ):
        return None
    jitter = args.fault_jitter
    if jitter is None and args.latency_model != "constant":
        jitter = max(1, base_latency // 2)
    return FaultConfig(
        latency_model=args.latency_model,
        jitter=jitter if jitter is not None else 0,
        seed=args.fault_seed,
        loss_rate=args.fault_rate,
        lifecycle=lifecycle,
    )
