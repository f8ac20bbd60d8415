"""The repro.check oracle: invariants, golden replay, zero-fault equivalence."""

import pytest

from repro.check import (
    CheckFailure,
    canonical_stats,
    check_result,
    replay_check,
    result_problems,
    zero_fault_equivalence,
    zero_lifecycle_equivalence,
)
from repro.engine import Engine, ResultCache, RunSpec
from repro.faults import FaultConfig
from repro.harness import ExperimentContext
from repro.machine import SwitchModel
from sim_helpers import run_asm, NONIDEAL_MODELS

_FAULTY = FaultConfig(
    latency_model="uniform", jitter=100, loss_rate=0.02, seed=1
)


def test_oracle_passes_on_full_matrix_under_faults():
    """Every app x non-ideal model completes via retries under jittered
    latency + 2% reply loss, and every invariant holds (the tentpole's
    acceptance matrix)."""
    total_retries = 0
    with ExperimentContext(
        scale="tiny", processors=2, faults=_FAULTY, engine=Engine(check=True)
    ) as ctx:
        for app in ctx.app_names():
            for model in NONIDEAL_MODELS:
                result = ctx.run(app, model, 2, 2)  # a checked engine raises
                total_retries += result.stats.retries
    assert total_retries > 0  # the loss rate actually exercised the protocol
    counts = ctx.engine.counters()
    assert counts["checked"] == counts["completed"] == (
        len(ctx.app_names()) * len(NONIDEAL_MODELS)
    )


def test_checked_engine_checks_a_disk_hit_an_unchecked_engine_wrote(tmp_path):
    """The oracle runs on every result a checked engine resolves, read
    from disk too, whoever wrote it: a clean entry passes, and a
    violation seeded into the cached result fails the spec."""
    spec = RunSpec(app="sieve", model="switch-on-load", processors=2,
                   level=2, scale="tiny")
    key = spec.key()
    with Engine(cache=tmp_path) as plain:
        plain.run(spec)
    with Engine(cache=tmp_path, check=True) as checked:
        checked.run(spec)
        counts = checked.counters()
    assert (counts["cached"], counts["checked"], counts["linted"]) == (1, 1, 1)

    cache = ResultCache(tmp_path)
    payload = cache.get(key)
    payload["result"]["stats"]["mem_completed"] -= 1
    cache.put(key, payload)
    with Engine(cache=tmp_path, check=True) as checked:
        assert checked.run_many([spec], on_error="record") == [None]
        error = checked.failure(key)
        counts = checked.counters()
    assert error["type"] == "CheckFailure"
    assert error["message"].startswith(spec.label() + ": ")
    assert "transaction conservation" in error["message"]
    assert (counts["cached"], counts["checked"], counts["failed"]) == (0, 1, 1)


def test_clean_result_has_no_problems():
    result = run_asm("halt\n")
    assert result_problems(result) == []
    assert check_result(result) is result


def test_tampered_conservation_is_caught():
    result = run_asm(
        "lws r1, 0(r0)\nhalt\n", model=SwitchModel.SWITCH_ON_LOAD, latency=200
    )
    result.stats.mem_completed -= 1
    with pytest.raises(CheckFailure, match="conservation"):
        check_result(result, label="tampered")


def test_fault_counters_must_stay_zero_without_faults():
    result = run_asm("halt\n")
    result.stats.retries = 3
    problems = result_problems(result)
    assert any("faults off" in p for p in problems)
    # retries also no longer match nacks.
    assert any("retry" in p for p in problems)


def test_unhalted_thread_is_caught():
    result = run_asm("halt\n")
    result.threads[0].halted = False
    with pytest.raises(CheckFailure, match="never halted"):
        check_result(result)


def test_check_failure_message_carries_label():
    result = run_asm("halt\n")
    result.stats.halted_threads = 0
    with pytest.raises(CheckFailure, match="my-run:"):
        check_result(result, label="my-run")


# -- golden replay (satellite: byte-identical across workers and cache) -------------


def _faulty_spec():
    return RunSpec(
        app="sieve",
        model="switch-on-load",
        processors=2,
        level=2,
        scale="tiny",
        overrides=(("faults", _FAULTY),),
    )


def test_replay_is_byte_identical_across_workers_and_cache(tmp_path):
    canonical = replay_check(
        _faulty_spec(), workers=(1, 2), cache_dir=str(tmp_path)
    )
    assert '"retries"' in canonical
    # The cache-warm pass really came from disk.
    assert any((tmp_path / "quarantine").parent.rglob("*.json"))


def test_canonical_stats_is_stable():
    result_a = run_asm("halt\n")
    result_b = run_asm("halt\n")
    assert canonical_stats(result_a.stats) == canonical_stats(result_b.stats)


def test_zero_fault_equivalence_strips_and_compares():
    result = zero_fault_equivalence(_faulty_spec())
    assert result.wall_cycles > 0


# -- lifecycle availability oracles ---------------------------------------------

_DEGRADED = FaultConfig(
    lifecycle={
        "components": 2,
        "seed": 7,
        "mean_healthy": 3_000,
        "mean_degraded": 1_500,
        "mean_failed": 600,
        "mean_repair": 900,
    }
)


def _degraded_spec():
    return RunSpec(
        app="sieve",
        model="explicit-switch",
        processors=2,
        level=2,
        scale="tiny",
        overrides=(("faults", _DEGRADED),),
    )


def test_degradation_replay_identical_across_workers_cache_backends(tmp_path):
    """The acceptance criterion: one fixed-seed degradation scenario,
    byte-identical SimStats (availability ledger included) at 1 and 2
    workers, cache cold vs warm, interpreter vs compiled."""
    canonical = replay_check(
        _degraded_spec(),
        workers=(1, 2),
        cache_dir=str(tmp_path),
        backends=("interpreter", "compiled"),
    )
    assert '"component_availability"' in canonical
    assert '"failures"' in canonical


def test_zero_lifecycle_equivalence_holds():
    result = zero_lifecycle_equivalence(_degraded_spec())
    assert result.wall_cycles > 0


def _degraded_result():
    return run_asm(
        "lws r1, 0(r0)\nhalt\n",
        model=SwitchModel.SWITCH_ON_LOAD,
        latency=200,
        faults=_DEGRADED,
    )


def test_tampered_availability_conservation_is_caught():
    result = _degraded_result()
    assert result_problems(result) == []
    result.stats.component_availability[0]["uptime_cycles"] += 1
    assert any(
        "availability conservation" in problem
        for problem in result_problems(result)
    )


def test_tampered_repair_pairing_is_caught():
    result = _degraded_result()
    comp = result.stats.component_availability[1]
    comp["repairs"] = comp["failures"] + 2
    assert any("repairs" in problem for problem in result_problems(result))


def test_ledger_without_lifecycle_config_is_caught():
    result = run_asm("halt\n")
    result.stats.component_availability = [
        {"component": 0, "uptime_cycles": 1, "degraded_cycles": 0,
         "downtime_cycles": 0, "repair_cycles": 0, "failures": 0,
         "repairs": 0}
    ]
    assert any(
        "without a lifecycle config" in problem
        for problem in result_problems(result)
    )


def test_short_ledger_is_caught():
    result = _degraded_result()
    result.stats.component_availability.pop()
    assert any("covers 1 components" in p for p in result_problems(result))
