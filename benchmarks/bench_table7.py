"""Table 7 (Section 6.1): hit rates and network bandwidth."""

from repro.harness.tables import table7
from table_helpers import emit


def test_table7(benchmark, ctx):
    text, data = benchmark.pedantic(table7, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    # Paper: hit rates above 90% for most applications; mp3d's poor
    # locality leaves it benefiting little from caching.
    high = [a for a, row in data.items() if row["hit_rate"] > 0.8]
    assert len(high) >= 4
    assert data["mp3d"]["hit_rate"] < 0.5
    assert (
        data["ugray"]["cached_bits_per_cycle"]
        < data["ugray"]["uncached_bits_per_cycle"] / 2
    )
