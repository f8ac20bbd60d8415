"""Fault injection: non-ideal network latency models and transient
reply loss/delay for the shared-memory transaction path.

The paper's machine assumes a constant round-trip latency with ordered,
lossless delivery.  This package supplies the knobs to relax each of
those assumptions — deterministically, from a seed — while keeping the
constant-latency, fault-free configuration bit-identical to the plain
machine (see DESIGN §5d):

* :class:`FaultConfig` — the frozen description attached to
  :class:`~repro.machine.config.MachineConfig` (``faults=``);
* :func:`build_latency_model` — pluggable round-trip models
  (constant / uniform jitter / geometric jitter / hot-spot contention);
* :func:`build_fault_plan` — per-transaction reply loss and delayed
  delivery decisions, hashed from ``(seed, transaction, attempt)``;
* :class:`RetryLimitExceeded` — raised when the NACK/retry protocol in
  :class:`~repro.machine.simulator.Simulator` exhausts a transaction's
  attempt budget;
* :class:`LifecycleConfig` / :func:`build_lifecycle_plan` — stateful
  degradation-and-repair lifecycles per memory component (HEALTHY →
  DEGRADED → FAILED → REPAIRING → HEALTHY) with per-component
  availability accounting (see DESIGN §5i).
"""

from repro.faults.config import FaultConfig, LATENCY_MODELS, LifecycleConfig
from repro.faults.lifecycle import (
    DEGRADED,
    FAILED,
    HEALTHY,
    REPAIRING,
    STATE_NAMES,
    LifecyclePlan,
    build_lifecycle_plan,
)
from repro.faults.latency import (
    ConstantLatency,
    GeometricJitterLatency,
    HotSpotLatency,
    LatencyModel,
    UniformJitterLatency,
    build_latency_model,
)
from repro.faults.plan import FaultPlan, RetryLimitExceeded, build_fault_plan

__all__ = [
    "FaultConfig",
    "LifecycleConfig",
    "LifecyclePlan",
    "build_lifecycle_plan",
    "HEALTHY",
    "DEGRADED",
    "FAILED",
    "REPAIRING",
    "STATE_NAMES",
    "LATENCY_MODELS",
    "LatencyModel",
    "ConstantLatency",
    "UniformJitterLatency",
    "GeometricJitterLatency",
    "HotSpotLatency",
    "build_latency_model",
    "FaultPlan",
    "RetryLimitExceeded",
    "build_fault_plan",
]
