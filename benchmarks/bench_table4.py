"""Table 4: run-length distributions after grouping (explicit-switch)."""

from repro.harness.tables import table4
from table_helpers import emit


def test_table4(benchmark, ctx):
    text, data = benchmark.pedantic(table4, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    # Paper: grouping eliminates the troublesome short run lengths and
    # groups sor's five stencil loads.
    for app, row in data.items():
        assert row["1"] + row["2"] < 10.0, app
    assert data["sor"]["grouping"] > 3.5
    assert data["locus"]["grouping"] < 1.6  # little intra-block benefit
