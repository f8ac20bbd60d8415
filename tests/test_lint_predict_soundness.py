"""Differential soundness: static bounds must contain measured stats.

The full 7 apps x 8 models gate runs in CI's ``lint-smoke`` job; here we
run a representative slice.  Generated kernels, and the self-test that
proves an unsound predictor is caught and shrunk, belong to the fuzz
harness (``tests/test_synth_fuzz.py``).
"""

import dataclasses

import repro.lint.validate as validate
from repro.apps.registry import get_app
from repro.harness.sizes import sizes_for
from repro.lint import predict_spec_cached
from repro.lint.validate import (
    check_cell,
    prediction_violations,
    validate_apps,
)

MODELS = [
    "ideal", "switch-every-cycle", "switch-on-load", "switch-on-use",
    "explicit-switch", "switch-on-miss", "switch-on-use-miss",
    "conditional-switch",
]


def build(name, nthreads=4, scale="tiny"):
    spec = get_app(name)
    return spec.build(nthreads, **sizes_for(name, scale))


def test_validate_apps_slice_is_sound():
    summary = validate_apps(
        apps=["sieve", "sor"], models=MODELS, scale="tiny",
        processors=2, level=2, latency=200,
    )
    assert summary["ok"], summary["violations"]
    assert len(summary["cells"]) == 2 * len(MODELS)
    for cell in summary["cells"]:
        assert cell["violations"] == []
        measured = cell["measured"]
        predicted = cell["predicted"]
        assert measured["run_min"] >= 1
        if predicted["run_max"] is not None:
            assert measured["run_max"] <= predicted["run_max"]


def test_check_cell_reports_measured_and_predicted():
    cell = check_cell(build("sieve"), "explicit-switch", latency=64)
    assert cell["model"] == "explicit-switch"
    assert cell["lint_clean"] is True
    assert cell["violations"] == []
    assert cell["measured"]["switches"] >= cell["predicted"]["switch_min"]


def test_check_cell_catches_a_doctored_run_bound(monkeypatch):
    honest = validate.predict_prepared
    monkeypatch.setattr(
        validate, "predict_prepared",
        lambda *a, **k: dataclasses.replace(honest(*a, **k), run_max=1),
    )
    cell = check_cell(build("sieve"), "switch-on-load", latency=200)
    invariants = {v["invariant"] for v in cell["violations"]}
    assert "predict-run-max" in invariants


def test_prediction_violations_vacuous_when_threads_hang():
    class Stats:
        halted_threads = 1

    class Config:
        total_threads = 4

    class Result:
        stats = Stats()
        config = Config()

    pred = predict_spec_cached("sieve", "ideal", 2, 2, "tiny", 0)
    assert prediction_violations(pred, Result()) == []
