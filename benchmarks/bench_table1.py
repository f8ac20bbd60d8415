"""Table 1: application inventory and single-processor cycle counts."""

from repro.apps.registry import app_names
from repro.harness.tables import table1
from table_helpers import emit


def test_table1(benchmark, ctx):
    text, data = benchmark.pedantic(table1, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    assert set(data) == set(app_names())
    for row in data.values():
        assert row["cycles"] > 0
        assert row["instructions"] > 30
