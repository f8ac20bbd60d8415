"""Component lifecycles: schedules, outage semantics, availability.

The contract under test (DESIGN §5i): every component walks a
seed-deterministic HEALTHY→DEGRADED→FAILED→REPAIRING cycle that is a
pure function of ``(seed, component)`` — independent of query order,
worker count and execution backend — degraded stages stretch round
trips, outages NACK with a retry-after hint, and the post-run
availability ledger accounts every cycle of ``[0, wall)`` exactly once.
"""

import dataclasses

import pytest

from repro.check import check_result
from repro.faults import (
    DEGRADED,
    FAILED,
    FaultConfig,
    HEALTHY,
    LifecycleConfig,
    LifecyclePlan,
    REPAIRING,
    build_fault_plan,
    build_lifecycle_plan,
)
from repro.machine import SwitchModel
from sim_helpers import run_asm


def _lifecycle(**kwargs):
    kwargs.setdefault("components", 2)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("mean_healthy", 3_000)
    kwargs.setdefault("mean_degraded", 1_500)
    kwargs.setdefault("mean_failed", 600)
    kwargs.setdefault("mean_repair", 900)
    return LifecycleConfig(**kwargs)


# -- configuration -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"components": 0},
        {"mean_healthy": -1},
        {"mean_repair": -5},
        {"degrade_stages": 0},
        {"degraded_scale": 0.5},
        {"degraded_shift": -1},
        {"affected": -1},
        {"affected": 5, "components": 4},
    ],
)
def test_lifecycle_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        LifecycleConfig(**kwargs)


def test_lifecycle_config_roundtrip_and_activity():
    config = _lifecycle(affected=1)
    assert config.active
    assert config.is_affected(0) and not config.is_affected(1)
    assert LifecycleConfig.from_dict(config.to_dict()) == config
    assert not _lifecycle(mean_healthy=0).active
    assert not _lifecycle(affected=0).active


def test_fault_config_lifts_lifecycle_mappings():
    config = FaultConfig(lifecycle=_lifecycle().to_dict())
    assert isinstance(config.lifecycle, LifecycleConfig)
    assert config.lifecycle == _lifecycle()
    assert config.has_lifecycles and config.drives_lifecycles
    assert not config.inert
    roundtrip = FaultConfig.from_dict(config.to_dict())
    assert roundtrip == config
    with pytest.raises(ValueError):
        FaultConfig(lifecycle=3)


def test_active_lifecycle_forces_a_fault_plan():
    assert build_fault_plan(FaultConfig(lifecycle=_lifecycle())) is not None
    # Inert lifecycles keep the fast path: no plan at all.
    assert build_fault_plan(
        FaultConfig(lifecycle=_lifecycle(mean_healthy=0))
    ) is None
    assert build_fault_plan(FaultConfig(lifecycle=_lifecycle(affected=0))) is None


# -- schedule purity ---------------------------------------------------------------


def test_plan_is_deterministic_and_query_order_independent():
    config = _lifecycle(components=3)
    forward = build_lifecycle_plan(FaultConfig(lifecycle=config))
    backward = build_lifecycle_plan(FaultConfig(lifecycle=config))
    samples = list(range(0, 60_000, 997))
    want = [
        (comp, t, forward.state_at(comp, t))
        for comp in range(3)
        for t in samples
    ]
    got = [
        (comp, t, backward.state_at(comp, t))
        for comp in reversed(range(3))
        for t in reversed(samples)
    ]
    assert sorted(want) == sorted(got)
    # And the walk visits every state.
    states = {state for _, _, (state, _) in want}
    assert states == {HEALTHY, DEGRADED, FAILED, REPAIRING}


def test_plan_seed_sensitivity():
    base = LifecyclePlan(_lifecycle(seed=1))
    other = LifecyclePlan(_lifecycle(seed=2))
    samples = range(0, 40_000, 503)
    assert any(
        base.state_at(0, t) != other.state_at(0, t) for t in samples
    )


def test_stretch_only_in_degraded_stages():
    config = _lifecycle(components=1, degraded_scale=2.0, degraded_shift=10)
    plan = LifecyclePlan(config)
    saw_degraded = saw_healthy = False
    for t in range(0, 40_000, 251):
        state, stage = plan.state_at(0, t)
        stretched = plan.stretch(100, 0, t)
        if state == DEGRADED:
            assert stretched == 100 * (1 + stage) + 10 * stage
            saw_degraded = True
        elif state in (HEALTHY, FAILED, REPAIRING):
            # FAILED/REPAIRING requests NACK before latency matters, but
            # stretch itself must not touch them.
            assert stretched == 100
            saw_healthy = saw_healthy or state == HEALTHY
    assert saw_degraded and saw_healthy


def test_outage_until_points_at_next_healthy_segment():
    plan = LifecyclePlan(_lifecycle(components=1))
    for t in range(0, 40_000, 101):
        state, _ = plan.state_at(0, t)
        recover = plan.outage_until(0, t)
        if state in (FAILED, REPAIRING):
            assert recover > t
            assert plan.state_at(0, recover)[0] == HEALTHY
            # One cycle before recovery the component is still down.
            assert plan.state_at(0, recover - 1)[0] in (FAILED, REPAIRING)
        else:
            assert recover == 0


def test_transitions_match_availability_counters():
    config = _lifecycle(components=2)
    plan = LifecyclePlan(config)
    wall = 50_000
    events = list(plan.transitions(wall))
    assert events == sorted(events)
    ledger = plan.availability(wall)
    fails = sum(1 for _, _, state, _ in events if state == FAILED)
    repairs = sum(1 for _, _, state, _ in events if state == HEALTHY)
    assert fails == sum(comp["failures"] for comp in ledger)
    assert repairs == sum(comp["repairs"] for comp in ledger)
    for comp in ledger:
        total = (
            comp["uptime_cycles"]
            + comp["downtime_cycles"]
            + comp["repair_cycles"]
        )
        assert total == wall
        assert 0 < comp["degraded_cycles"] <= comp["uptime_cycles"]


def test_unaffected_components_stay_healthy():
    plan = LifecyclePlan(_lifecycle(components=4, affected=1))
    for t in range(0, 30_000, 331):
        assert plan.state_at(3, t) == (HEALTHY, 0)
    ledger = plan.availability(10_000)
    assert ledger[3]["uptime_cycles"] == 10_000
    assert ledger[3]["failures"] == 0
    assert ledger[0]["failures"] > 0


# -- simulation wiring -------------------------------------------------------------

_POLL_SUM = """
    li  r9, 20
loop:
    lws r2, 0(r0)
    add r8, r8, r2
    addi r9, r9, -1
    bne r9, r0, loop
    swl r8, 0(r0)
    halt
"""


def _degraded_run(**lifecycle_kwargs):
    return run_asm(
        _POLL_SUM,
        shared=[7] + [0] * 63,
        model=SwitchModel.SWITCH_ON_LOAD,
        processors=2,
        threads=2,
        latency=200,
        faults=FaultConfig(lifecycle=_lifecycle(**lifecycle_kwargs)),
    )


def test_outages_nack_and_retries_recover():
    result = _degraded_run(mean_healthy=1_000, mean_failed=800)
    stats = result.stats
    assert stats.lifecycle_failures > 0
    assert stats.replies_dropped > 0  # outage NACKs
    assert stats.nacks == stats.replies_dropped
    assert stats.retries == stats.nacks
    assert stats.mem_issued == stats.mem_completed
    # Every thread still computed the exact polling sum.
    for thread in result.threads:
        assert thread.local[0] == 7 * 20
    check_result(result)


def test_degraded_stages_slow_the_run():
    healthy = _degraded_run(affected=0)
    degraded = _degraded_run(
        mean_healthy=1_000, mean_degraded=2_000, mean_failed=1,
        mean_repair=1, degraded_scale=3.0,
    )
    assert degraded.stats.lifecycle_degraded_cycles > 0
    assert degraded.stats.wall_cycles > healthy.stats.wall_cycles


def test_faa_applies_exactly_once_across_outages():
    asm = """
        li  r1, 1
        li  r9, 25
    loop:
        faa r2, 0(r0), r1
        addi r9, r9, -1
        bne r9, r0, loop
        halt
    """
    result = run_asm(
        asm,
        model=SwitchModel.SWITCH_ON_LOAD,
        processors=4,
        threads=4,
        latency=200,
        faults=FaultConfig(
            lifecycle=_lifecycle(
                components=1, mean_healthy=700, mean_failed=900
            )
        ),
    )
    assert result.shared[0] == 25 * 16  # no lost and no doubled adds
    assert result.stats.lifecycle_failures > 0
    assert result.stats.retries == result.stats.replies_dropped > 0
    check_result(result)


def test_retry_after_hint_bounds_retry_storms():
    """An outage costs roughly one retry per waiting thread, not the
    whole exponential budget: the NACK hint stretches the backoff to the
    scheduled recovery."""
    result = _degraded_run(mean_healthy=1_000, mean_failed=2_000)
    stats = result.stats
    assert stats.lifecycle_failures > 0
    # Far fewer retries than an unhinted exponential ladder would need:
    # each failure window is ~2000 cycles vs a 16..256-cycle ladder.
    assert stats.retries <= 4 * stats.lifecycle_failures * 4  # 4 threads


def test_availability_ledger_conservation_in_simulation():
    result = _degraded_run()
    stats = result.stats
    ledger = stats.component_availability
    assert len(ledger) == 2
    for comp in ledger:
        assert (
            comp["uptime_cycles"]
            + comp["downtime_cycles"]
            + comp["repair_cycles"]
            == stats.wall_cycles
        )
    assert stats.mttf() >= 0.0 and stats.mttr() >= 0.0
    check_result(result)


def test_inert_lifecycle_reports_all_up_ledger():
    result = _degraded_run(mean_healthy=0)
    stats = result.stats
    assert stats.lifecycle_failures == 0
    assert stats.lifecycle_degraded_cycles == 0
    assert all(
        comp["uptime_cycles"] == stats.wall_cycles
        for comp in stats.component_availability
    )
    check_result(result)


def test_stats_roundtrip_preserves_availability():
    from repro.machine.stats import SimStats

    stats = _degraded_run().stats
    again = SimStats.from_dict(stats.to_dict())
    assert again.component_availability == stats.component_availability
    assert again.to_dict() == stats.to_dict()


def test_describe_names_the_lifecycle():
    from repro.isa import assemble
    from repro.machine.config import MachineConfig
    from repro.machine.simulator import Simulator

    program = assemble("halt\n")

    def tag(lifecycle):
        config = MachineConfig(
            model=SwitchModel.SWITCH_ON_LOAD,
            faults=FaultConfig(lifecycle=lifecycle),
        )
        registers = [{} for _ in range(config.total_threads)]
        sim = Simulator(program, config, [0] * 8, registers)
        return sim.describe()

    assert "lifecycle=2c/seed=7" in tag(_lifecycle())
    assert "inert" in tag(_lifecycle(mean_healthy=0))
