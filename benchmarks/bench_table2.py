"""Table 2: run-length distributions under switch-on-load."""

from repro.harness.tables import table2
from table_helpers import emit


def test_table2(benchmark, ctx):
    text, data = benchmark.pedantic(table2, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    # Paper: sor is dominated by one- and two-cycle run lengths...
    assert data["sor"]["1"] + data["sor"]["2"] > 50.0
    # ...while blkmat's private block copies give it an exceptionally
    # high mean run length, and sieve is fairly constant.
    assert data["blkmat"]["mean"] > 2 * data["sor"]["mean"]
    assert data["sieve"]["11-100"] > 60.0
