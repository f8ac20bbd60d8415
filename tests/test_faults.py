"""Fault-injection subsystem: configs, latency models, NACK/retry."""

import dataclasses
import signal

import pytest

from repro.engine.executor import _build
from repro.engine.spec import RunSpec
from repro.faults import (
    FaultConfig,
    FaultPlan,
    LifecycleConfig,
    RetryLimitExceeded,
    build_fault_plan,
    build_latency_model,
)
from repro.faults.latency import (
    GeometricJitterLatency,
    HotSpotLatency,
    UniformJitterLatency,
)
from repro.faults.rng import bounded, hash_u64, mix64, unit
from repro.isa import assemble
from repro.machine import MachineConfig, SimulationTimeout, Simulator, SwitchModel
from repro.runtime.execution import run_app
from conftest import run_asm


# -- configuration -----------------------------------------------------------------


def test_default_config_is_inert():
    config = FaultConfig()
    assert config.inert
    assert not config.injects_faults
    assert not config.perturbs_latency


@pytest.mark.parametrize(
    "kwargs",
    [
        {"latency_model": "gaussian"},
        {"loss_rate": -0.1},
        {"loss_rate": 1.5},
        {"delay_rate": 2.0},
        {"jitter": -1},
        {"delay_cycles": 0},
        {"max_retries": 0},
        {"backoff_base": 0},
        {"backoff_base": 16, "backoff_cap": 8},
        {"hotspot_modules": 0},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        FaultConfig(**kwargs)


def test_config_dict_roundtrip_ignores_unknown_keys():
    config = FaultConfig(latency_model="uniform", jitter=50, seed=7, loss_rate=0.01)
    data = config.to_dict()
    data["future_field"] = "ignored"
    assert FaultConfig.from_dict(data) == config


# -- hashed randomness --------------------------------------------------------------


def test_rng_is_deterministic_and_sensitive():
    assert mix64(0) == mix64(0)
    assert hash_u64(1, 2, 3) == hash_u64(1, 2, 3)
    assert hash_u64(1, 2, 3) != hash_u64(1, 2, 4)
    assert hash_u64(1, 2, 3) != hash_u64(1, 3, 2)
    assert unit(9, 9) == unit(9, 9)


def test_rng_ranges():
    for n in range(200):
        assert 0.0 <= unit(42, n) < 1.0
        assert 0 <= bounded(13, 42, n) <= 13
    # A bounded draw actually covers its range.
    values = {bounded(3, 0, n) for n in range(100)}
    assert values == {0, 1, 2, 3}


def test_unit_is_roughly_uniform():
    draws = [unit(123, n) for n in range(2000)]
    mean = sum(draws) / len(draws)
    assert 0.45 < mean < 0.55


# -- latency models -----------------------------------------------------------------


def test_build_latency_model_constant_is_fast_path_none():
    assert build_latency_model(FaultConfig(), 200) is None


def test_uniform_jitter_bounds_and_determinism():
    model = build_latency_model(
        FaultConfig(latency_model="uniform", jitter=100, seed=3), 200
    )
    assert isinstance(model, UniformJitterLatency)
    draws = [model.round_trip(t, t % 7) for t in range(500)]
    assert all(200 <= d <= 300 for d in draws)
    assert len(set(draws)) > 10  # actually jitters
    assert draws == [model.round_trip(t, t % 7) for t in range(500)]


def test_geometric_jitter_mean_and_cap():
    model = build_latency_model(
        FaultConfig(latency_model="geometric", jitter=50, seed=1), 200
    )
    assert isinstance(model, GeometricJitterLatency)
    extras = [model.round_trip(t, 0) - 200 for t in range(4000)]
    assert all(0 <= e <= 16 * 50 for e in extras)
    mean = sum(extras) / len(extras)
    assert 35 < mean < 65  # geometric with mean 50


def test_hotspot_queues_same_module_only():
    model = HotSpotLatency(base=200, modules=16, service=4)
    # Back-to-back requests to one module queue behind each other...
    first = model.round_trip(0, 5)
    second = model.round_trip(0, 5)
    third = model.round_trip(0, 5)
    assert first == 200 + 4
    assert second == 200 + 4 + 4
    assert third == 200 + 8 + 4
    # ...while a different module at the same time pays only service.
    assert model.round_trip(0, 6) == 200 + 4


# -- fault plans --------------------------------------------------------------------


def test_build_fault_plan_none_without_fault_rates():
    assert build_fault_plan(FaultConfig(latency_model="uniform", jitter=9)) is None
    assert isinstance(build_fault_plan(FaultConfig(loss_rate=0.5)), FaultPlan)


def test_reply_fate_statistics_track_rates():
    plan = FaultPlan(seed=11, loss_rate=0.2, delay_rate=0.3, delay_cycles=64)
    lost = delayed = 0
    for txn in range(5000):
        was_lost, extra = plan.reply_fate(txn, 1)
        if was_lost:
            lost += 1
            assert extra == 0
        elif extra:
            delayed += 1
            assert 1 <= extra <= 64
    assert 0.15 < lost / 5000 < 0.25
    # Delay applies to the surviving 80%: expect ~0.8 * 0.3 = 24%.
    assert 0.19 < delayed / 5000 < 0.29


def test_reply_fate_extremes():
    always = FaultPlan(seed=0, loss_rate=1.0, delay_rate=0.0, delay_cycles=8)
    never = FaultPlan(seed=0, loss_rate=0.0, delay_rate=0.0, delay_cycles=8)
    for txn in range(100):
        assert always.reply_fate(txn, 1) == (True, 0)
        assert never.reply_fate(txn, 1) == (False, 0)


# -- end-to-end retry protocol ------------------------------------------------------

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


def _lossy(**kwargs):
    kwargs.setdefault("seed", 5)
    return FaultConfig(loss_rate=kwargs.pop("loss_rate", 0.3), **kwargs)


def test_lost_replies_are_retried_and_accounted():
    result = run_asm(
        _POLL_SUM,
        shared=[7] + [0] * 63,
        model=SwitchModel.SWITCH_ON_LOAD,
        processors=2,
        threads=2,
        latency=200,
        faults=_lossy(),
    )
    stats = result.stats
    assert stats.replies_dropped > 0
    assert stats.nacks == stats.replies_dropped
    assert stats.retries == stats.nacks
    assert stats.backoff_cycles > 0
    assert stats.mem_issued == stats.mem_completed
    # Every thread still computed the exact polling sum.
    for thread in result.threads:
        assert thread.local[0] == 7 * 20


def test_faa_applies_exactly_once_under_loss():
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
        faults=_lossy(loss_rate=0.4),
    )
    assert result.shared[0] == 25 * 16  # no lost and no doubled updates
    assert result.stats.faa_replays > 0
    assert result.stats.retries == result.stats.replies_dropped > 0


@pytest.mark.parametrize("backend", ["interpreter", "compiled"])
@pytest.mark.parametrize(
    "asm, model, thread",
    [
        ("lws r1, 0(r0)\nhalt\n", SwitchModel.SWITCH_ON_LOAD, 0),
        ("li r2, 1\nfaa r1, 0(r0), r2\nhalt\n", SwitchModel.SWITCH_ON_LOAD, 0),
        # A line fill belongs to the processor, not to a thread.
        ("lws r1, 0(r0)\nhalt\n", SwitchModel.SWITCH_ON_MISS, -1),
    ],
    ids=["load", "faa", "line-fill"],
)
def test_total_loss_exhausts_retry_budget(asm, model, thread, backend):
    with pytest.raises(RetryLimitExceeded) as info:
        run_asm(
            asm,
            model=model,
            latency=200,
            backend=backend,
            faults=FaultConfig(loss_rate=1.0, max_retries=3),
        )
    assert str(info.value) == (
        f"transaction 1 still unanswered after 3 attempts "
        f"(processor 0, thread {thread}) [model={model.value} P=1 M=1 "
        f"latency=200 faults=constant/loss=1.0/delay=0.0/seed=0]"
    )


@pytest.mark.parametrize("backend", ["interpreter", "compiled"])
@pytest.mark.parametrize("model", ["switch-on-load", "switch-every-cycle"])
def test_stalled_scoreboard_raises_no_progress(monkeypatch, model, backend):
    """The progress guard's seeded bug: with the NACK path's ``_restamp``
    patched out, a reissued or delayed load leaves its register's
    scoreboard entry at the old due cycle, which no reply ever clears,
    so the thread pauses at one cycle without running, forever.  The
    run must fail naming the stall instead of hanging; the alarm turns
    a hang into a failure.  switch-on-load runs compiled blocks on the
    compiled backend; switch-every-cycle turns each pause into a
    rotation and keeps the interpreter on both."""
    monkeypatch.setattr(Simulator, "_restamp", lambda self, rec: None)
    spec = RunSpec.create(
        "sieve", model=model, processors=2, level=2, scale="tiny",
        faults=FaultConfig(loss_rate=0.03, delay_rate=0.05, delay_cycles=32,
                           seed=11),
    )
    app, program = _build(spec.app, spec.total_threads,
                          spec.effective_code_model.value, spec.scale)

    def hang(signum, frame):
        raise AssertionError("the stalled run did not end")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        with pytest.raises(SimulationTimeout, match="no progress") as info:
            run_app(app, spec.machine_config(), program=program,
                    backend=backend)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    message = str(info.value)
    assert "times at cycle" in message and "registers due by then: r" in message
    assert f"model={model}" in message


def test_delayed_replies_slow_the_run_but_deliver():
    base = run_asm(
        _POLL_SUM,
        shared=[7] + [0] * 63,
        model=SwitchModel.SWITCH_ON_LOAD,
        latency=200,
    )
    delayed = run_asm(
        _POLL_SUM,
        shared=[7] + [0] * 63,
        model=SwitchModel.SWITCH_ON_LOAD,
        latency=200,
        faults=FaultConfig(delay_rate=1.0, delay_cycles=50, seed=2),
    )
    assert delayed.stats.replies_delayed > 0
    assert delayed.stats.replies_dropped == 0
    assert delayed.wall_cycles > base.wall_cycles
    assert delayed.threads[0].local[0] == 7 * 20


def test_inert_config_is_bit_identical_to_no_config():
    for model in (SwitchModel.SWITCH_ON_LOAD, SwitchModel.EXPLICIT_SWITCH):
        bare = run_asm(_POLL_SUM, model=model, processors=2, threads=2, latency=200)
        inert = run_asm(
            _POLL_SUM,
            model=model,
            processors=2,
            threads=2,
            latency=200,
            faults=FaultConfig(),
        )
        assert bare.stats.to_dict() == inert.stats.to_dict()
        assert bare.wall_cycles == inert.wall_cycles


@pytest.mark.parametrize("faults", [
    FaultConfig(),
    FaultConfig(lifecycle=LifecycleConfig(mean_healthy=0)),
], ids=["inert-faults", "inert-lifecycle"])
def test_inert_configs_build_no_fault_machinery(faults):
    """The disabled-overhead contract (DESIGN §5d, §5i): an inert config,
    or a lifecycle that never transitions, leaves the simulator without
    a latency model, a fault plan or an active lifecycle, so every
    memory issue takes the bare path."""
    sim = Simulator(
        assemble("halt\n"), MachineConfig(latency=200, faults=faults),
        [0] * 16, [{}],
    )
    assert sim._latency_model is None
    assert sim._fault_plan is None
    assert sim._lifecycle_active is None


def test_same_seed_reproduces_same_faulty_run():
    runs = [
        run_asm(
            _POLL_SUM,
            model=SwitchModel.SWITCH_ON_LOAD,
            processors=2,
            threads=3,
            latency=200,
            faults=FaultConfig(
                latency_model="uniform", jitter=80, loss_rate=0.2, seed=99
            ),
        )
        for _ in range(2)
    ]
    assert runs[0].stats.to_dict() == runs[1].stats.to_dict()
    assert runs[0].stats.retries > 0


def test_different_seeds_usually_diverge():
    def run_with_seed(seed):
        return run_asm(
            _POLL_SUM,
            model=SwitchModel.SWITCH_ON_LOAD,
            processors=2,
            threads=3,
            latency=200,
            faults=FaultConfig(latency_model="uniform", jitter=150, seed=seed),
        )

    walls = {run_with_seed(seed).wall_cycles for seed in range(4)}
    assert len(walls) > 1


def test_faults_survive_machine_config_roundtrip():
    from repro.machine import MachineConfig

    config = MachineConfig(
        faults=FaultConfig(latency_model="geometric", jitter=30, loss_rate=0.05)
    )
    rebuilt = MachineConfig.from_dict(config.to_dict())
    assert rebuilt.faults == config.faults
    bare = MachineConfig.from_dict(MachineConfig().to_dict())
    assert bare.faults is None
