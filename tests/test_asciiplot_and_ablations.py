"""ASCII chart renderer and the ablation harness (tiny scale)."""

import pytest

from repro.analysis.asciiplot import efficiency_chart
from repro.harness import ExperimentContext
from repro.harness.ablations import (
    latency_sweep,
    model_shootout,
    switch_cost_sensitivity,
    forced_interval_study,
)
from repro.machine import SwitchModel


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(scale="tiny", processors=2, max_level=4)


# -- asciiplot -------------------------------------------------------------------


def test_chart_contains_axes_and_legend():
    series = {"a": {1: 0.2, 2: 0.5, 4: 0.9}, "b": {1: 0.1, 2: 0.1, 4: 0.1}}
    text = efficiency_chart(series, [1, 2, 4], "demo chart")
    assert "demo chart" in text
    assert "1.0 |" in text and "0.0 |" in text
    assert "o a" in text and "x b" in text
    assert "(processors)" in text


def test_chart_clamps_out_of_range_values():
    text = efficiency_chart({"a": {1: 1.7, 2: -0.3}}, [1, 2], "clamp")
    assert "1.0 |o" in text  # clamped to the top row


def test_chart_empty_series():
    assert "(no data)" in efficiency_chart({}, [], "empty")


def test_chart_marks_positions_monotone():
    # A rising curve must place later marks on higher rows.
    series = {"up": {1: 0.0, 2: 0.5, 4: 1.0}}
    text = efficiency_chart(series, [1, 2, 4], "rising", width=30, height=9)
    rows = [i for i, line in enumerate(text.splitlines()) if "o" in line]
    assert rows == sorted(rows)  # top-to-bottom appearance order


# -- ablations --------------------------------------------------------------------


def test_latency_sweep_structure(ctx):
    text, data = latency_sweep(ctx, app_name="sor", latencies=[100, 200], level=2)
    assert "sor" in text
    for series in data.values():
        assert set(series) == {100, 200}
        # Shorter latency can never be slower under the same model.
        assert series[100] >= series[200] - 0.02


def test_model_shootout_structure(ctx):
    _text, data = model_shootout(ctx, app_name="sieve", level=2)
    assert "ideal" not in data
    assert len(data) == 7
    assert all(0.0 <= row["efficiency"] <= 1.1 for row in data.values())


def test_switch_cost_monotone(ctx):
    _text, data = switch_cost_sensitivity(
        ctx, app_name="sieve", costs=[0, 16], level=2
    )
    assert data[0] >= data[16] - 0.02


def test_forced_interval_handles_livelock(ctx):
    text, data = forced_interval_study(
        ctx, app_name="ugray", intervals=[0, 200], level=2
    )
    assert set(data) == {0, 200}
    assert data[200]["efficiency"] > 0.0
    # interval 0 either livelocks (None) or completes; both are recorded.
    assert "efficiency" in data[0]
    # The uncapped probe is bounded by 4x the slowest capped run that
    # finished, well inside the capped runs' 40 x t1.
    full = 40 * ctx.t1("ugray")
    capped = ctx.run(
        "ugray", SwitchModel.CONDITIONAL_SWITCH, 2, 2,
        forced_switch_interval=200, max_cycles=full,
    )
    assert data[0]["max_cycles"] == min(full, 4 * capped.wall_cycles)
    assert data[0]["max_cycles"] < full
    # The shorter probe still reports the livelock: the rendered table is
    # the one the full 40 x t1 probe gave.
    assert text == (
        "Ablation: conditional-switch forced interval, ugray (P=2, M=2)\n"
        "---------+------------+----------------\n"
        "interval | efficiency | forced switches\n"
        "---------+------------+----------------\n"
        "     off |   livelock |               -\n"
        "     200 |       0.60 |              51\n"
        "---------+------------+----------------"
    )
