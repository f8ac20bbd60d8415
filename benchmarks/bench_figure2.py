"""Figure 2: efficiency vs processors on the ideal machine."""

from repro.harness.figures import figure2
from table_helpers import emit


def test_figure2(benchmark, ctx):
    text, data = benchmark.pedantic(figure2, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    for app, series in data.items():
        assert series[1] > 0.95, app  # one processor is ~perfect
        # Fixed-size problems: efficiency never improves with more procs.
        assert series[16] <= series[1] + 0.05
