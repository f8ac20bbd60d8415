"""Figure 3: sieve under multithreading (efficiency vs processors)."""

from repro.harness.figures import figure3
from table_helpers import emit, SCALE


def test_figure3(benchmark, ctx):
    text, data = benchmark.pedantic(figure3, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    # More threads per processor -> higher efficiency at fixed P.
    assert data["12"][4] > data["4"][4] > data["1"][4]
    if SCALE in ("bench", "medium"):
        assert data["12"][2] > 0.8  # near-ideal with enough threads
