"""Table 6: inter-block grouping estimate (Section 5.2 one-line cache)."""

from repro.harness.tables import table6
from table_helpers import emit


def test_table6(benchmark, ctx):
    text, data = benchmark.pedantic(table6, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    # Paper: the estimator raises the grouping factor further; locus
    # (structure fields split across blocks) benefits notably.
    assert data["locus"]["grouping"] > 1.5
    assert 0.0 <= data["locus"]["hit_rate"] <= 1.0
