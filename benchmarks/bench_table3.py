"""Table 3: switch-on-load — multithreading level per efficiency target."""

from repro.harness.tables import table3
from table_helpers import emit, SCALE


def test_table3(benchmark, ctx):
    text, data = benchmark.pedantic(table3, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    if SCALE in ("bench", "medium"):
        # Paper: sieve reaches high efficiency with a modest level, while
        # sor's short run lengths leave it stuck near 50-60%.
        assert data["sieve"][0.8] is not None and data["sieve"][0.8] <= 12
        assert data["sor"][0.8] is None
