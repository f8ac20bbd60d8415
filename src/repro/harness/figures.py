"""Generators for the paper's figures (text renderings + data series)."""

from __future__ import annotations

import collections
from typing import Dict, List, Tuple

from repro.analysis.tablefmt import TextTable
from repro.analysis.asciiplot import efficiency_chart
from repro.apps.registry import get_app
from repro.compiler.cfg import build_blocks
from repro.compiler.grouping import group_block
from repro.compiler.passes import prepare_for_model
from repro.isa.opcodes import Op
from repro.machine.models import SwitchModel
from repro.harness.context import ExperimentContext

#: The paper's Figure 1: evolution of multithreading models.
_FIGURE1_EDGES = [
    ("switch-every-cycle", "switch-on-load", "compiler hides pipeline delays"),
    ("switch-on-load", "switch-on-use", "split-phase: issue early, wait at use"),
    ("switch-on-use", "explicit-switch", "group loads; one explicit switch"),
    ("switch-on-load", "switch-on-miss", "add caches"),
    ("switch-on-use", "switch-on-use-miss", "add caches"),
    ("explicit-switch", "conditional-switch", "add caches"),
    ("switch-on-miss", "switch-on-use-miss", "split-phase"),
    ("switch-on-use-miss", "conditional-switch", "group loads"),
]


def figure1() -> Tuple[str, Dict]:
    """The multithreading-model taxonomy as a topologically-ordered list
    (a FIFO Kahn sort of :data:`_FIGURE1_EDGES` in written order), and
    its data: the nodes in that order and the edges with their reasons."""
    nodes = list(dict.fromkeys(n for edge in _FIGURE1_EDGES for n in edge[:2]))
    waiting = {n: sum(dst == n for _, dst, _ in _FIGURE1_EDGES) for n in nodes}
    ready = collections.deque(node for node in nodes if not waiting[node])
    order: List[str] = []
    lines = ["Figure 1: evolution of multithreading models", ""]
    while ready:
        node = ready.popleft()
        order.append(node)
        lines += [
            f"  {src} -> {node}   [{why}]"
            for src, dst, why in _FIGURE1_EDGES if dst == node
        ] or [f"  {node}"]
        for src, dst, _why in _FIGURE1_EDGES:
            if src == node:
                waiting[dst] -= 1
                if not waiting[dst]:
                    ready.append(dst)
    edges = [
        {"from": src, "to": dst, "reason": why}
        for src, dst, why in _FIGURE1_EDGES
    ]
    return "\n".join(lines), {"nodes": order, "edges": edges}


def figure2(
    ctx: ExperimentContext, processor_counts: List[int] = (1, 2, 4, 8, 16)
) -> Tuple[str, Dict]:
    """Efficiency vs processors on the ideal (zero-latency) machine."""
    table = TextTable(
        f"Figure 2: efficiency on an ideal shared memory machine "
        f"(scale={ctx.scale!r})",
        ["application"] + [f"P={p}" for p in processor_counts],
    )
    data: Dict[str, Dict[int, float]] = {}
    ctx.prefetch(
        ctx.spec(spec.name, SwitchModel.IDEAL, processors, 1)
        for spec in ctx.apps()
        for processors in processor_counts
    )
    for spec in ctx.apps():
        series = {}
        for processors in processor_counts:
            result = ctx.run(spec.name, SwitchModel.IDEAL, processors, 1)
            series[processors] = ctx.efficiency(result, spec.name)
        table.add_row(
            [spec.name] + [f"{series[p]:.2f}" for p in processor_counts]
        )
        data[spec.name] = series
    chart = efficiency_chart(
        data, list(processor_counts), "efficiency vs processors (ideal machine)"
    )
    return table.render() + "\n\n" + chart, data


def figure3(
    ctx: ExperimentContext,
    levels: List[int] = (1, 2, 4, 8, 12),
    processor_counts: List[int] = (1, 2, 4, 8, 16),
) -> Tuple[str, Dict]:
    """sieve under switch-on-load: efficiency vs processors per MT level,
    with the ideal curve on top (the paper's Figure 3)."""
    table = TextTable(
        "Figure 3: sieve, multithreaded performance (200-cycle latency)",
        ["series"] + [f"P={p}" for p in processor_counts],
    )
    data: Dict[str, Dict[int, float]] = {}
    ctx.prefetch(
        [
            ctx.spec("sieve", SwitchModel.IDEAL, processors, 1)
            for processors in processor_counts
        ]
        + [
            ctx.spec("sieve", SwitchModel.SWITCH_ON_LOAD, processors, level)
            for level in levels
            for processors in processor_counts
        ]
    )
    ideal = {}
    for processors in processor_counts:
        result = ctx.run("sieve", SwitchModel.IDEAL, processors, 1)
        ideal[processors] = ctx.efficiency(result, "sieve")
    table.add_row(["ideal"] + [f"{ideal[p]:.2f}" for p in processor_counts])
    data["ideal"] = ideal
    for level in levels:
        series = {}
        for processors in processor_counts:
            result = ctx.run(
                "sieve", SwitchModel.SWITCH_ON_LOAD, processors, level
            )
            series[processors] = ctx.efficiency(result, "sieve")
        table.add_row(
            [f"{level} thread(s)"] + [f"{series[p]:.2f}" for p in processor_counts]
        )
        data[str(level)] = series
    chart = efficiency_chart(
        data, list(processor_counts),
        "sieve: efficiency vs processors per multithreading level",
    )
    return table.render() + "\n\n" + chart, data


def figure4(ctx: ExperimentContext) -> Tuple[str, Dict]:
    """The sor inner loop before and after grouping (paper Figure 4)."""
    spec = get_app("sor")
    app = spec.build(1, **ctx.size_of("sor"))
    blocks = build_blocks(app.program)
    stencil = max(
        blocks, key=lambda blk: sum(1 for ins in blk.instructions if ins.op is Op.LWS)
    )
    before = [ins.to_asm() for ins in stencil.instructions]
    after = [ins.to_asm() for ins in group_block(stencil.instructions)]
    width = max(len(line) for line in before) + 4
    lines = [
        "Figure 4: sor inner loop, (a) original vs (b) grouped",
        "",
        f"{'(a) switch-on-load order':<{width}}(b) grouped + explicit switch",
    ]
    for index in range(max(len(before), len(after))):
        left = before[index] if index < len(before) else ""
        right = after[index] if index < len(after) else ""
        lines.append(f"{left:<{width}}{right}")
    loads = sum(1 for ins in stencil.instructions if ins.op is Op.LWS)
    switches = sum(1 for line in after if line.startswith("switch"))
    return "\n".join(lines), {"loads": loads, "switch_instructions": switches}


ALL_FIGURES = {
    "figure1": lambda ctx: figure1(),
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
}
