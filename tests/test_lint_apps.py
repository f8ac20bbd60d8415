"""Every benchmark application lints clean under every switch model.

This is the acceptance bar of the lint subsystem: the 7 Table 1
applications, lowered for all 8 Figure 1 models, produce *zero*
diagnostics — not merely zero errors.  Any future compiler or
application change that trips a rule fails here with the full report.
"""

import pytest

from repro.apps.registry import app_names
from repro.lint import lint_app_model, lint_matrix, lint_spec_cached
from repro.machine.models import SwitchModel


@pytest.mark.parametrize("app", app_names())
def test_app_lints_clean_under_every_model(app):
    for model in SwitchModel:
        report = lint_app_model(app, model)
        assert report.diagnostics == [], report.render()
        assert report.instructions > 0
        assert report.blocks > 0


def test_matrix_covers_the_full_grid():
    reports = list(lint_matrix())
    assert len(reports) == len(app_names()) * len(SwitchModel)
    assert all(report.ok for report in reports)


def test_lint_spec_is_memoised():
    lint_spec_cached.cache_clear()
    first = lint_spec_cached("sieve", "explicit-switch", 2, "tiny")
    second = lint_spec_cached("sieve", "explicit-switch", 2, "tiny")
    assert first is second
    assert lint_spec_cached.cache_info().hits == 1


def test_lint_spec_uses_the_engine_build_parameters():
    from repro.engine import RunSpec
    from repro.lint import lint_spec

    spec = RunSpec(app="sieve", model="explicit-switch", processors=2,
                   level=4, scale="tiny")
    report = lint_spec(spec)
    assert report.model == "explicit-switch"
    assert report.ok


def test_lint_and_predict_reuse_the_engine_build():
    """Linting or predicting what the engine just ran builds nothing:
    both hit the entry the run left in the engine's build cache."""
    from repro.engine import Engine, RunSpec
    from repro.engine.executor import _build
    from repro.lint import lint_spec, predict_spec, predict_spec_cached

    spec = RunSpec(app="sor", model="switch-on-load", processors=2,
                   level=3, scale="tiny")
    with Engine() as engine:
        engine.run(spec)
    lint_spec_cached.cache_clear()
    predict_spec_cached.cache_clear()
    before = _build.cache_info()
    lint_spec(spec)
    after = _build.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    predict_spec(spec)
    final = _build.cache_info()
    assert (final.hits - after.hits, final.misses - after.misses) == (1, 0)
