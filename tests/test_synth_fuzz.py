"""The differential fuzz harness and the invariant surfaces behind it:
stable ``Violation`` ids in repro.check, cross-model laws, the static
predictor's bounds, shrinking, repro bundles, corpus files, and the
repro-fuzz CLI."""

import copy
import dataclasses
import json
import types
from collections import Counter

import pytest

from repro.check import (
    CROSS_MODEL_INVARIANTS,
    Violation,
    cross_model_violations,
    result_problems,
    result_violations,
)
from repro.faults.config import FaultConfig, LifecycleConfig
from repro.machine import SwitchModel
from repro.machine.config import MachineConfig
from repro.machine.network import MsgKind
from repro.runtime.execution import run_app
from repro.synth import (
    FuzzOptions,
    fault_profile,
    fuzz_many,
    fuzz_seed,
    generate_app,
    get_preset,
    replay_bundle,
    run_selftest,
    write_bundle,
)
import repro.synth.fuzz as fuzz_module
from repro.synth.cli import main as fuzz_main
from repro.synth.fuzz import (
    DOCTORS,
    MUTATIONS,
    SeedOutcome,
    _grid_violations,
    make_bundle,
    read_corpus,
    shrink_plan,
    write_corpus_entry,
)
from repro.synth.generator import (
    build_synth_app,
    generate_plan,
    plan_segment_ids,
    program_fingerprint,
)

QUICK = FuzzOptions(latency=16)


# -- Violation ids on the per-run oracle (satellite: machine-readable
# invariant field without changing rendered output) ----------------------------


def _clean_result():
    app = generate_app(1, get_preset("quick"), nthreads=4)
    config = MachineConfig(
        model=SwitchModel.SWITCH_ON_LOAD,
        num_processors=2,
        threads_per_processor=2,
        latency=32,
    )
    return run_app(app, config)


def test_result_violations_clean_run_and_render_parity():
    result = _clean_result()
    assert result_violations(result) == []
    assert result_problems(result) == []


def test_result_violations_carry_stable_ids():
    result = _clean_result()
    doctored = copy.copy(result)
    doctored.stats = copy.deepcopy(result.stats)
    doctored.stats.mem_completed += 1
    doctored.stats.nacks += 2
    violations = result_violations(doctored)
    ids = [v.invariant for v in violations]
    assert "transaction-conservation" in ids
    assert "drop-nack-conservation" in ids
    assert "nack-retry-conservation" in ids
    assert "fault-machinery-off" in ids
    # render parity: messages are exactly the historical strings
    assert result_problems(doctored) == [v.message for v in violations]
    assert str(violations[0]) == violations[0].message


# -- cross-model invariants ----------------------------------------------------


def _fake_result(instructions=100, loads=10, faa=2, stores=5,
                 shared=(1, 2, 3), stats_dict=None):
    stats = types.SimpleNamespace(
        instructions=instructions,
        cache_hits=0,
        cache_misses=0,
        msg_counts=Counter(
            {
                MsgKind.READ: loads,
                MsgKind.FAA: faa,
                MsgKind.WRITE: stores,
            }
        ),
        to_dict=lambda: dict(
            stats_dict
            or {
                "instructions": instructions,
                "loads": loads,
                "faa": faa,
                "stores": stores,
            }
        ),
    )
    return types.SimpleNamespace(stats=stats, shared=list(shared))


def _clean_grid():
    grid = {}
    for model in [m.value for m in SwitchModel]:
        loads = 0 if model == "ideal" else 10
        grid[model] = {
            "interpreter": _fake_result(loads=loads),
            "compiled": _fake_result(loads=loads),
        }
    return grid


def test_cross_model_clean_grid_has_no_violations():
    assert cross_model_violations(_clean_grid()) == []


@pytest.mark.parametrize(
    "mutate,invariant",
    [
        (
            lambda g: g["switch-on-load"].__setitem__(
                "compiled", _fake_result(stats_dict={"different": 1})
            ),
            "backend-stats-identical",
        ),
        (
            lambda g: g["switch-on-miss"].__setitem__(
                "interpreter", _fake_result(shared=(9, 9, 9))
            ),
            "memory-model-independent",
        ),
        (
            lambda g: g["switch-every-cycle"].__setitem__(
                "interpreter", g["switch-every-cycle"].pop("compiled")
            )
            or g["switch-every-cycle"].__setitem__(
                "interpreter", _fake_result(loads=99)
            ),
            "traffic-loads-model-independent",
        ),
        (
            lambda g: g["explicit-switch"].update(
                interpreter=_fake_result(faa=7), compiled=_fake_result(faa=7)
            ),
            "traffic-faa-model-independent",
        ),
        (
            lambda g: g["conditional-switch"].update(
                interpreter=_fake_result(stores=8),
                compiled=_fake_result(stores=8),
            ),
            "traffic-store-words-model-independent",
        ),
        (
            lambda g: g["ideal"].update(
                interpreter=_fake_result(loads=0, instructions=50),
                compiled=_fake_result(loads=0, instructions=50),
            ),
            "instructions-model-independent",
        ),
        (
            lambda g: g["explicit-switch"].update(
                interpreter=_fake_result(instructions=120),
                compiled=_fake_result(instructions=120),
            ),
            "instructions-grouped-pair",
        ),
    ],
)
def test_cross_model_invariants_fire(mutate, invariant):
    grid = _clean_grid()
    mutate(grid)
    ids = {v.invariant for v in cross_model_violations(grid)}
    assert invariant in ids
    assert invariant in CROSS_MODEL_INVARIANTS


def test_cross_model_per_thread_law():
    grid = _clean_grid()
    counts = {
        "ideal": {0: 50, 1: 50},
        "switch-on-load": {0: 50, 1: 50},
    }
    assert cross_model_violations(grid, per_thread=counts) == []
    counts["switch-on-load"] = {0: 51, 1: 49}
    ids = {
        v.invariant
        for v in cross_model_violations(grid, per_thread=counts)
    }
    assert ids == {"per-thread-instructions"}


def test_cross_model_scope_flags():
    grid = _clean_grid()
    grid["switch-on-use"].update(
        interpreter=_fake_result(loads=77, instructions=42),
        compiled=_fake_result(loads=77, instructions=42),
    )
    # faulty grids skip the traffic laws; nondeterministic kernels skip
    # the instruction-count laws
    assert cross_model_violations(grid, deterministic=False, faulty=True) == []
    ids = {v.invariant for v in cross_model_violations(grid)}
    assert "traffic-loads-model-independent" in ids
    assert "instructions-model-independent" in ids


# -- the fuzz loop -------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 17])
def test_fuzz_seed_clean(seed):
    outcome = fuzz_seed(seed, preset="quick", options=QUICK)
    assert outcome.ok, [v.message for v in outcome.violations]
    assert outcome.runs >= len(QUICK.models) * len(QUICK.backends)
    assert outcome.name == f"synth:{seed}:quick"


def test_fuzz_seed_sync_preset_skips_instruction_laws():
    outcome = fuzz_seed(4, preset="sync", options=QUICK)
    assert outcome.ok, [v.message for v in outcome.violations]


def test_fuzz_seed_with_faults_clean():
    options = dataclasses.replace(QUICK, faults=fault_profile("loss", seed=3))
    outcome = fuzz_seed(3, preset="quick", options=options)
    assert outcome.ok, [v.message for v in outcome.violations]


def test_fuzz_many_writes_corpus(tmp_path):
    summary = fuzz_many(
        range(2),
        preset="quick",
        options=QUICK,
        corpus_dir=tmp_path / "corpus",
        bundle_dir=tmp_path / "bundles",
    )
    assert summary["seeds"] == 2 and summary["failures"] == 0
    entries = read_corpus(tmp_path / "corpus")
    assert [e["app"] for e in entries] == ["synth:0:quick", "synth:1:quick"]
    assert all(e["ok"] for e in entries)


def test_synth_seed_campaign_is_sound(tmp_path):
    """The predictor's bounds hold on generated kernels under every
    model (checked inside the fuzz grid, next to the other oracles)."""
    summary = fuzz_many(
        range(6), options=FuzzOptions(), bundle_dir=tmp_path
    )
    assert summary["seeds"] == 6
    assert summary["failures"] == 0, summary["outcomes"]
    assert list(tmp_path.iterdir()) == []  # no failure bundles written


def _doctor_predictions(monkeypatch, calls=None, **fields):
    honest = fuzz_module.predict_prepared

    def doctored(*args, **kwargs):
        if calls is not None:
            calls.append(args[1])
        return dataclasses.replace(honest(*args, **kwargs), **fields)

    monkeypatch.setattr(fuzz_module, "predict_prepared", doctored)


def test_prediction_adds_no_simulation(monkeypatch):
    calls = []
    _doctor_predictions(monkeypatch, calls)
    options = dataclasses.replace(QUICK, use_engine=False)
    outcome = fuzz_seed(0, preset="quick", options=options)
    assert outcome.ok, [v.message for v in outcome.violations]
    models = len(options.models)
    # one predicted model per grid row; runs are the grid plus the
    # per-thread tracer runs, exactly as without the predictor
    assert sorted(m.value for m in calls) == sorted(options.models)
    assert outcome.runs == models * len(options.backends) + models


def test_prediction_check_skips_faulty_grids_and_overridden_models(
    monkeypatch,
):
    _doctor_predictions(monkeypatch, run_max=1)
    options = dataclasses.replace(QUICK, use_engine=False)
    plan = generate_plan(3, get_preset("quick"))
    app = build_synth_app(plan, options.nthreads)
    override = {"explicit-switch": app.program}
    violations, _ = _grid_violations(
        plan, app, options, program_overrides=override
    )
    flagged = {
        v.message.split("/")[0]
        for v in violations
        if v.invariant == "predict-run-max"
    }
    assert flagged and "explicit-switch" not in flagged
    # the bounds assume a fault-free machine: a faulty grid is not checked
    faulty = dataclasses.replace(options, faults=fault_profile("loss", seed=3))
    violations, _ = _grid_violations(plan, app, faulty)
    assert not [v for v in violations if v.invariant.startswith("predict-")]


def test_predictor_bug_bundle_replays(monkeypatch, tmp_path):
    _doctor_predictions(monkeypatch, run_max=1)
    options = FuzzOptions(models=("switch-on-load",), use_engine=False)
    outcome = fuzz_seed(3, "quick", options)
    assert outcome.bundle is not None
    assert outcome.bundle["invariant"] == "predict-run-max"
    assert outcome.bundle["shrunk_segments"] <= outcome.bundle[
        "original_segments"
    ]
    replayed = replay_bundle(write_bundle(outcome.bundle, tmp_path))
    assert [v.invariant for v in replayed.violations][:1] == [
        "predict-run-max"
    ]


def test_fuzz_options_round_trip():
    options = FuzzOptions(
        models=("eswitch", "cswitch"),  # aliases normalise to value strings
        faults=FaultConfig(
            loss_rate=0.01, lifecycle=LifecycleConfig(components=2)
        ),
    )
    assert options.models == ("explicit-switch", "conditional-switch")
    rebuilt = FuzzOptions.from_dict(options.to_dict())
    assert rebuilt.models == options.models
    assert rebuilt.faults == options.faults
    with pytest.raises(ValueError, match="backend"):
        FuzzOptions(backends=("turbo",))
    with pytest.raises(ValueError, match="fault profile"):
        fault_profile("explosions")


# -- catching, shrinking, replaying --------------------------------------------


def _mutated_outcome(seed=3):
    options = dataclasses.replace(QUICK, use_engine=False)
    plan = generate_plan(seed, get_preset("quick"))
    mutate = MUTATIONS["final-store-skew"]
    app, overrides = mutate(plan, options.nthreads)
    violations, runs = _grid_violations(
        plan, app, options, program_overrides=overrides
    )
    outcome = SeedOutcome(
        seed=seed,
        preset="quick",
        name=f"synth:{seed}:quick",
        fingerprint=program_fingerprint(app.program),
        runs=runs,
        violations=violations,
    )
    return plan, mutate, options, outcome


def test_injected_bug_is_caught_shrunk_and_bundled(tmp_path):
    plan, mutate, options, outcome = _mutated_outcome()
    assert not outcome.ok
    assert outcome.violations[0].invariant == "functional-check"
    shrunk = shrink_plan(
        plan, "functional-check", options, build=lambda p, n: mutate(p, n)
    )
    assert len(plan_segment_ids(shrunk)) <= len(plan_segment_ids(plan))
    bundle = make_bundle(outcome, plan, options, shrunk)
    assert bundle["invariant"] == "functional-check"
    assert bundle["shrunk_segments"] <= bundle["original_segments"]
    path = write_bundle(bundle, tmp_path)
    payload = json.loads(path.read_text())
    assert payload["seed"] == 3 and payload["kind"] == "repro-bundle"
    # the bundled plan replays on the exact recorded machine shape; the
    # clean generator reproduces no failure (the bug was injected into
    # the program, not the plan)
    replayed = replay_bundle(path)
    assert replayed.ok


@pytest.fixture(scope="module")
def selftest_report():
    return run_selftest()


def test_selftest_catches_and_shrinks_every_mutation(selftest_report):
    assert list(selftest_report) == sorted(MUTATIONS) + sorted(DOCTORS)
    for name in MUTATIONS:
        entry = selftest_report[name]
        assert entry["caught"]
        assert entry["shrunk_segments"] <= entry["original_segments"]
    invariants = {selftest_report[name]["invariant"] for name in MUTATIONS}
    assert "functional-check" in invariants
    assert "instructions-grouped-pair" in invariants


def test_selftest_catches_and_shrinks_every_doctor(selftest_report):
    """Every ``predict-*`` invariant has a seeded predictor bug, caught
    by that invariant and shrunk."""
    expected = {invariant for invariant, _fields in DOCTORS.values()}
    assert expected == {
        "predict-run-max", "predict-run-min", "predict-switch-max",
        "predict-switch-min", "predict-utilization",
    }
    for name, (invariant, _fields) in DOCTORS.items():
        entry = selftest_report[name]
        assert entry["caught"] and entry["invariant"] == invariant, name
        assert entry["shrunk_segments"] <= entry["original_segments"]


# -- CLI -----------------------------------------------------------------------


def test_cli_campaign_and_summary(tmp_path, capsys):
    code = fuzz_main(
        [
            "--seeds", "2", "--quick", "--no-progress",
            "--models", "eswitch,sol",
            "--latency", "16",
            "--bundle-dir", str(tmp_path / "bundles"),
            "--corpus", str(tmp_path / "corpus"),
            "--json", str(tmp_path / "summary.json"),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["seeds"] == 2 and summary["failures"] == 0
    assert summary["options"]["models"] == [
        "explicit-switch", "switch-on-load"
    ]
    assert (tmp_path / "corpus" / "seed0-quick.json").exists()
    out = capsys.readouterr().out
    assert "2 clean" in out


def test_cli_replays_corpus_through_serve(tmp_path, capsys):
    from repro.serve import ReproServer, ServerConfig

    corpus = str(tmp_path / "corpus")
    assert fuzz_main(
        [
            "--seeds", "2", "--preset", "quick", "--no-progress",
            "--models", "eswitch,cswitch", "--corpus", corpus,
            "--bundle-dir", str(tmp_path / "bundles"),
        ]
    ) == 0
    capsys.readouterr()
    config = ServerConfig(port=0, quiet=True, cache_dir=tmp_path / "cache")
    with ReproServer(config) as server:
        code = fuzz_main(
            ["--serve", server.url, "--corpus", corpus,
             "--models", "eswitch,cswitch"]
        )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "2 kernel(s), 4 spec(s), state done, 0 failed" in out


def test_cli_selftest_and_usage_errors(capsys):
    assert fuzz_main(["--selftest"]) == 0
    assert "caught and shrunk" in capsys.readouterr().err
    assert fuzz_main(["--seeds", "1", "--preset", "bogus"]) == 2
    assert fuzz_main(["--seeds", "1", "--models", "warp-drive"]) == 2


def test_cli_replay_bundle(tmp_path, capsys):
    plan, mutate, options, outcome = _mutated_outcome()
    bundle = make_bundle(outcome, plan, options)
    path = write_bundle(bundle, tmp_path)
    # the bundle's plan rebuilds through the *clean* generator, so the
    # program-level injection does not survive replay: exit 0, clean
    assert fuzz_main(["--replay", str(path)]) == 0
    assert "clean" in capsys.readouterr().out
