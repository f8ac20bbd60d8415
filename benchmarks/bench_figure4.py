"""Figure 4: the sor inner loop before and after grouping."""

from repro.harness.figures import figure4
from table_helpers import emit


def test_figure4(benchmark, ctx):
    text, data = benchmark.pedantic(figure4, args=(ctx,), rounds=1, iterations=1)
    emit(text)
    # Paper: the five stencil loads collapse into a single switch group.
    assert data["loads"] == 5
    assert data["switch_instructions"] == 1
