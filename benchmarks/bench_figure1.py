"""Figure 1: the multithreading-model taxonomy."""

from repro.harness.figures import figure1
from conftest import emit


def test_figure1(benchmark):
    text, graph = benchmark.pedantic(figure1, rounds=1, iterations=1)
    emit(text)
    order = graph["nodes"]
    assert "conditional-switch" in order
    # Topological: every edge runs forward in the printed order.
    for edge in graph["edges"]:
        assert order.index(edge["from"]) < order.index(edge["to"])
    # Every model in the diagram descends from switch-every-cycle.
    reached = {"switch-every-cycle"}
    for node in order:
        if any(e["to"] == node and e["from"] in reached for e in graph["edges"]):
            reached.add(node)
    assert reached == set(order)
