"""The repro-analyze CLI, and served results that carry no prediction."""

import dataclasses
import json
import time

from repro.lint.analyze_cli import main


def test_analyze_renders_bound_table(capsys):
    assert main(["sieve", "--model", "ideal", "--model", "eswitch"]) == 0
    out = capsys.readouterr().out
    assert "sieve @ P=2 M=2 L=200" in out
    assert "ideal" in out and "explicit-switch" in out
    assert "run[min,max]" in out
    assert "loops:" in out


def test_analyze_requires_apps_or_all(capsys):
    assert main([]) == 2
    assert "--all" in capsys.readouterr().err


def test_analyze_rejects_unknown_model_and_app(capsys):
    assert main(["sieve", "--model", "bogus"]) == 2
    assert main(["nosuchapp"]) == 2


def test_analyze_json_payload(tmp_path, capsys):
    path = tmp_path / "pred.json"
    assert main(
        ["sieve", "--model", "sol", "--json", str(path)]
    ) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    prediction = payload["predictions"]["sieve"]
    assert set(prediction["models"]) == {"switch-on-load"}
    model = prediction["models"]["switch-on-load"]
    assert model["run_min"] >= 1
    assert "call_graph" in prediction


def test_analyze_validate_gate_passes(capsys):
    assert main(
        ["sieve", "--model", "ideal", "--model", "sol", "--validate"]
    ) == 0
    err = capsys.readouterr().err
    assert "apps: 2 cell(s), 0 violation(s)" in err


def test_analyze_catches_unsound_predictor(monkeypatch, capsys):
    import repro.lint.validate as validate

    honest = validate.predict_spec

    def doctored(spec):
        return dataclasses.replace(honest(spec), run_max=1)

    monkeypatch.setattr(validate, "predict_spec", doctored)
    assert main(["sieve", "--model", "sol", "--validate"]) == 1
    assert "predict-run-max" in capsys.readouterr().err


# -- the serve layer ------------------------------------------------------------


def test_served_results_carry_no_prediction(monkeypatch):
    """Nothing reads a per-result prediction, so the scheduler runs no
    predictor while serving; only ``/healthz`` predicts, a bounded sample."""
    from repro.engine import Engine, RunSpec
    from repro.serve import JobScheduler

    calls = []
    monkeypatch.setattr(
        "repro.lint.predict_spec_cached", lambda *key: calls.append(key)
    )
    scheduler = JobScheduler(Engine(workers=1))
    try:
        spec = RunSpec(app="sieve", model="switch-on-load", processors=2,
                       level=2, scale="tiny")
        job, _ = scheduler.submit([spec])
        deadline = time.time() + 60.0
        while not job.settled and time.time() < deadline:
            time.sleep(0.01)
        assert job.state.value == "done", job.error
        [payload] = job.results
        assert "predicted" not in payload
        assert calls == []
    finally:
        scheduler.stop()
