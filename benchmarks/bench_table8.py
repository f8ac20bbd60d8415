"""Table 8: conditional-switch MT levels (cached machine)."""

from repro.harness.tables import table8
from table_helpers import emit, SCALE


def test_table8(benchmark, ctx):
    text, data = benchmark.pedantic(table8, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    if SCALE in ("bench", "medium"):
        # Paper: 80%+ efficiency with 6 threads or fewer for most apps.
        reached = [
            app
            for app, levels in data.items()
            if levels[0.8] is not None and levels[0.8] <= 6
        ]
        assert len(reached) >= 4, reached
