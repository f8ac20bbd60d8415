"""The inter-block grouping estimator of Section 5.2.

The paper's authors had no compiler that groups shared loads *across*
basic blocks (e.g. structure fields accessed on both sides of a condition
test), so they estimated the opportunity: give each thread a one-line,
32-word cache over its dynamic shared-load address stream.  A load that
hits touched the same structure or array as the thread's preceding
reference and could therefore have been issued with the earlier group.

This module packages that experiment:

* :func:`oracle_config` — derive a machine configuration that runs the
  explicit-switch model with the estimator enabled
  (``MachineConfig.interblock_oracle``): oracle-hit loads cost nothing
  and SWITCHes with nothing outstanding are skipped, which yields the
  *revised* run lengths, grouping factors and multithreading levels of
  Table 6;
* :func:`estimate` — extract the estimator's summary from a finished run.
"""

from __future__ import annotations

import dataclasses

from repro.machine.config import MachineConfig
from repro.machine.models import SwitchModel
from repro.machine.stats import SimStats


@dataclasses.dataclass(frozen=True)
class InterblockEstimate:
    """Summary of one estimator run."""

    hit_rate: float  # fraction of loads groupable across blocks
    grouping_factor: float  # loads per taken switch, revised
    mean_run_length: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"one-line-cache hit rate {self.hit_rate:.0%}, "
            f"grouping factor {self.grouping_factor:.2f}, "
            f"mean run length {self.mean_run_length:.1f}"
        )


def oracle_config(base: MachineConfig) -> MachineConfig:
    """An explicit-switch configuration with the estimator enabled."""
    return base.replace(model=SwitchModel.EXPLICIT_SWITCH, interblock_oracle=True)


def estimate(stats: SimStats) -> InterblockEstimate:
    """Extract the Section 5.2 summary from a finished oracle run."""
    return InterblockEstimate(
        hit_rate=stats.oracle_hit_rate,
        grouping_factor=stats.grouping_factor(),
        mean_run_length=stats.mean_run_length,
    )
