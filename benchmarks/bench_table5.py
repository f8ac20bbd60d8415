"""Table 5: explicit-switch MT levels + reorganisation penalty."""

from repro.harness.tables import table5
from table_helpers import emit, SCALE


def test_table5(benchmark, ctx):
    text, data = benchmark.pedantic(table5, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    for app, row in data.items():
        # Paper: the penalty is a few percent, overshadowed by grouping.
        assert row["penalty"] < 0.12, app
    if SCALE in ("bench", "medium"):
        # Paper: with grouping, 70%+ efficiency everywhere with modest
        # levels; sor improves dramatically over switch-on-load.
        assert data["sor"][ "levels"][0.7] is not None
        assert data["sor"]["levels"][0.7] <= 10
