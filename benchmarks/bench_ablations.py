"""Ablations: latency sweep, model shoot-out, flush cost, forced interval."""

from repro.harness.ablations import (
    latency_sweep,
    model_shootout,
    switch_cost_sensitivity,
    forced_interval_study,
)
from table_helpers import emit


def test_latency_sweep(benchmark, ctx):
    text, data = benchmark.pedantic(
        latency_sweep, args=(ctx,), rounds=1, iterations=1
    )
    emit(text)
    explicit = data["explicit-switch"]
    sol = data["switch-on-load"]
    # Grouping tolerates latency better: the gap widens with latency.
    assert explicit[400] > sol[400]
    # Efficiency decays as the round trip grows, for the uncached models.
    assert sol[50] > sol[400]


def test_model_shootout(benchmark, ctx):
    text, data = benchmark.pedantic(
        model_shootout, args=(ctx,), rounds=1, iterations=1
    )
    emit(text)
    assert data["explicit-switch"]["efficiency"] > data["switch-on-load"]["efficiency"]
    assert data["conditional-switch"]["mean_run"] > data["explicit-switch"]["mean_run"]


def test_switch_cost_sensitivity(benchmark, ctx):
    text, data = benchmark.pedantic(
        switch_cost_sensitivity, args=(ctx,), rounds=1, iterations=1
    )
    emit(text)
    assert data[0] >= data[16]  # flush cycles only ever hurt


def test_forced_interval(benchmark, ctx):
    text, data = benchmark.pedantic(
        forced_interval_study, args=(ctx,), rounds=1, iterations=1
    )
    emit(text)
    # Section 6.2: some bounded interval must do at least as well as an
    # enormous one (lock holders stop being starved).
    best_bounded = max(data[i]["efficiency"] for i in (100, 200, 400))
    assert best_bounded >= data[800]["efficiency"] - 0.05


def test_jitter_robustness(benchmark, ctx):
    from repro.harness.ablations import jitter_study

    text, data = benchmark.pedantic(
        jitter_study, args=(ctx,), rounds=1, iterations=1
    )
    emit(text)
    explicit = data["explicit-switch"]
    # Grouping's advantage survives latency variance, degrading smoothly.
    assert explicit[200] > data["switch-on-load"][200]
    assert explicit[0] >= explicit[200] - 0.05
