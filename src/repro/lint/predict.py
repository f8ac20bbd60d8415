"""Static performance prediction over the lint CFG.

The paper's argument is analytical: run lengths are determined by where
a model switches, and efficiency follows from run lengths, latency and
switch cost.  This module closes the loop *statically*: from the code a
model actually runs (the output of
:func:`repro.compiler.passes.prepare_for_model`) it derives, without
simulating a cycle,

* a **call graph** over JAL/JR with context-insensitive per-function
  summaries (JR returns are folded into every JAL return point by
  :class:`~repro.lint.dataflow.LintCFG`, so every walk below is already
  interprocedural);
* **bounded-loop trip counts** — the builder's ``for_range``/``while_cmp``
  shape (init ``li``, single ``addi`` step, constant limit) is inferred
  via constant propagation and natural-loop detection, giving each block
  an execution upper bound ``max_exec`` (possibly infinite);
* per switch model, sound **run-length bounds** ``[run_min, run_max]``,
  **switch-count bounds** ``[switch_min, switch_max]`` and a
  **utilization/efficiency upper bound**, plus an (ungated) estimated
  run-length distribution in the paper's Tables 2/4 bins.

Soundness model (enforced by :mod:`repro.lint.validate` against measured
:class:`~repro.machine.stats.SimStats`): bounds hold for fault-free,
jitter-free machines with the Section 5.2 oracle off.  Upper bounds
(``run_max``, ``switch_max``, ``utilization_bound``) hold for arbitrary
programs; the lower bounds (``run_min``, ``switch_min``) additionally
assume the program lints clean for the model (no blocked in-flight uses
outside the use models), which is exactly what ``prepare_for_model``'s
lint gate guarantees.

The per-model site classification mirrors
:mod:`repro.machine.processor` exactly:

=============  =======================================  ==================
model          guaranteed switch (*must* sites)         possible extras
=============  =======================================  ==================
ideal          never                                    blocked uses (L>0)
hep            every instruction (1-cycle bursts)       reply-queue pauses
sol            every shared load / FAA / SWITCH         —
eswitch        every SWITCH opcode                      blocked uses
cswitch        SWITCH with an FAA closer than L cycles  other SWITCHes
som            every FAA (loads may hit)                load misses/forced
sou            every SWITCH opcode (stripped code: —)   first blocked use
soum           never                                    blocked use/forced
=============  =======================================  ==================

Must-site *wait* weights feed the utilization bound: a thread whose walk
has busy cost ``B`` and guaranteed wait ``W`` keeps its processor busy
at most ``B/(B+W)`` of its lifetime, so utilization is at most
``min(1, M * max_walk B/(B+W))`` — the maximum ratio over entry→HALT
walks is found by bisecting ``lambda`` on the weighted longest-walk
feasibility problem ``(1-lambda)*B - lambda*W >= 0``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.isa.instruction import Instruction, instr_reads, instr_writes
from repro.isa.opcodes import (
    EVAL,
    Op,
    OP_SIG,
    SHARED_LOADS,
    Sig,
    instruction_cost,
)
from repro.isa.program import Program
from repro.isa.registers import ZERO_REG
from repro.machine.models import SwitchModel
from repro.analysis.runlength import RUN_BIN_LABELS, RUN_BINS
from repro.lint.dataflow import LintCFG, dominator_masks

INF = float("inf")

#: Tolerance for the utilization bisection and the float comparisons in
#: the differential validator.
EPSILON = 1e-6

#: Cap applied to loop trip estimates when weighting the (ungated)
#: run-length distribution estimate; unbounded loops count this often.
_ESTIMATE_TRIP_CAP = 100.0


def _cost(ins: Instruction) -> int:
    """Busy cycles one execution of *ins* charges the processor.  HALT
    breaks out of the dispatch loop *before* charging its cycle, so it
    contributes nothing to run lengths or busy time."""
    if ins.op is Op.HALT:
        return 0
    return instruction_cost(ins.op)


# ---------------------------------------------------------------------------
# constant propagation (trip-count support)
# ---------------------------------------------------------------------------

_CONST_LIMIT = 1 << 40  # fold results past this are dropped (overflow-safe)


#: Opcodes the lattice folds, through their :data:`~repro.isa.opcodes.
#: EVAL` evaluator: enough for the builder's counted-loop shape.
_FOLDED = frozenset({Op.LI, Op.MOV, Op.ADDI, Op.MULI, Op.ADD, Op.SUB, Op.MUL})


def _const_transfer(state: Dict[int, int], ins: Instruction) -> None:
    """Forward transfer of the constant lattice over one instruction.
    *state* maps register slot -> known constant; absent means unknown."""
    value = None
    if ins.op in _FOLDED and all(slot in state for slot in instr_reads(ins)):
        value = EVAL[ins.op](state, ins)
    if isinstance(value, int) and abs(value) <= _CONST_LIMIT:
        if ins.rd:  # the machine discards writes to r0
            state[ins.rd] = value
        return
    for slot in instr_writes(ins):
        state.pop(slot, None)


def _meet_consts(
    states: Sequence[Optional[Dict[int, int]]]
) -> Dict[int, int]:
    """Lattice meet: keep only registers every (visited) input agrees on."""
    known = [s for s in states if s is not None]
    if not known:
        return {}
    out = dict(known[0])
    for state in known[1:]:
        for slot in list(out):
            if state.get(slot) != out[slot]:
                del out[slot]
    return out


# ---------------------------------------------------------------------------
# per-program structural analysis
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Loop:
    """One natural loop: header block, member blocks, inferred trip
    bound (``None`` when the counter pattern did not match)."""

    header: int
    blocks: Set[int]
    trips: Optional[int]

    def to_dict(self) -> Dict:
        return {
            "header_block": self.header,
            "blocks": sorted(self.blocks),
            "trips": self.trips,
        }


class ProgramAnalysis:
    """Model-independent structure of one finalized program: CFG, block
    costs, dominators, constant propagation, natural loops with trip
    bounds, and per-block execution bounds (``max_exec``)."""

    def __init__(self, program: Program):
        self.program = program
        self.cfg = LintCFG(program)
        cfg = self.cfg
        n = len(cfg)
        self.block_instrs: List[List[Tuple[int, Instruction]]] = [
            list(cfg.instructions_of(index)) for index in range(n)
        ]
        self.block_cost: List[int] = [
            sum(_cost(ins) for _pc, ins in instrs)
            for instrs in self.block_instrs
        ]
        self.halt_blocks: List[int] = [
            index for index in range(n)
            if any(ins.op is Op.HALT for _pc, ins in self.block_instrs[index])
        ]
        self.entry = 0 if n else None
        self.dom = dominator_masks(cfg)
        self._start_to_block = {
            block.start: index for index, block in enumerate(cfg.blocks)
        }
        self.coreachable = self._coreachable()
        self.const_in, self.const_out = self._propagate_constants()
        self.back_edges = self._back_edges()
        self.loops = self._find_loops()
        self.max_exec = self._max_exec()

    # -- reachability --------------------------------------------------------

    def _coreachable(self) -> List[bool]:
        """Blocks from which some HALT is reachable."""
        n = len(self.cfg)
        co = [False] * n
        stack = list(self.halt_blocks)
        while stack:
            node = stack.pop()
            if co[node]:
                continue
            co[node] = True
            stack.extend(self.cfg.preds[node])
        return co

    # -- constant propagation ------------------------------------------------

    def const_at(self, pc: int, reg: int) -> Optional[int]:
        """Known constant value of *reg* just before *pc*, or ``None``."""
        index = self.cfg.block_of_pc(pc)
        state = dict(self.const_in[index] or {})
        for ins_pc, ins in self.block_instrs[index]:
            if ins_pc == pc:
                break
            _const_transfer(state, ins)
        return state.get(reg)

    def _propagate_constants(
        self,
    ) -> Tuple[List[Optional[Dict[int, int]]], List[Optional[Dict[int, int]]]]:
        cfg = self.cfg
        n = len(cfg)
        const_in: List[Optional[Dict[int, int]]] = [None] * n
        const_out: List[Optional[Dict[int, int]]] = [None] * n
        if not n:
            return const_in, const_out
        const_in[0] = {ZERO_REG: 0}
        work = [0]
        while work:
            index = work.pop()
            state = dict(const_in[index] or {})
            for _pc, ins in self.block_instrs[index]:
                _const_transfer(state, ins)
            if const_out[index] == state:
                continue
            const_out[index] = state
            for succ in cfg.succs[index]:
                merged = _meet_consts(
                    [const_out[p] for p in cfg.preds[succ]]
                )
                if succ == 0:
                    merged = {ZERO_REG: 0}
                if const_in[succ] != merged or const_out[succ] is None:
                    const_in[succ] = merged
                    work.append(succ)
        return const_in, const_out

    # -- natural loops and trip counts --------------------------------------

    def _back_edges(self) -> List[Tuple[int, int]]:
        edges = []
        for u in range(len(self.cfg)):
            if not self.cfg.reachable[u]:
                continue
            for h in self.cfg.succs[u]:
                if self.dom[u] & (1 << h):
                    edges.append((u, h))
        return edges

    def _find_loops(self) -> List[Loop]:
        by_header: Dict[int, Set[int]] = {}
        for u, h in self.back_edges:
            nodes = by_header.setdefault(h, {h})
            stack = [u]
            while stack:
                node = stack.pop()
                if node in nodes:
                    continue
                nodes.add(node)
                stack.extend(self.cfg.preds[node])
        return [
            Loop(header=h, blocks=nodes, trips=self._loop_trips(h, nodes))
            for h, nodes in sorted(by_header.items())
        ]

    def _loop_trips(self, header: int, nodes: Set[int]) -> Optional[int]:
        """Body-execution bound per loop entry for the builder's counted
        shape, or ``None`` (treated as unbounded)."""
        term = self.cfg.blocks[header].terminator
        if term is None or OP_SIG[term.op] is not Sig.BR2:
            return None
        taken = self._start_to_block.get(term.target)
        end = self.cfg.blocks[header].start + len(
            self.cfg.blocks[header].instructions
        )
        fall = self._start_to_block.get(end)
        taken_in = taken in nodes if taken is not None else False
        fall_in = fall in nodes if fall is not None else False
        if taken_in == fall_in:
            return None  # both sides stay in (or leave) the loop
        exit_on_taken = not taken_in

        for counter, limit, swapped in (
            (term.rs1, term.rs2, False),
            (term.rs2, term.rs1, True),
        ):
            trips = self._trips_for_counter(
                header, nodes, term.op, counter, limit, swapped,
                exit_on_taken,
            )
            if trips is not None:
                return trips
        return None

    def _trips_for_counter(
        self,
        header: int,
        nodes: Set[int],
        branch: Op,
        counter: int,
        limit: int,
        swapped: bool,
        exit_on_taken: bool,
    ) -> Optional[int]:
        step: Optional[int] = None
        for index in nodes:
            for _pc, ins in self.block_instrs[index]:
                writes = set(instr_writes(ins))
                if limit in writes:
                    return None  # limit must be loop-invariant
                if counter not in writes:
                    continue
                if (
                    ins.op is Op.ADDI
                    and ins.rd == counter
                    and ins.rs1 == counter
                    and ins.imm != 0
                    and step is None
                ):
                    step = ins.imm
                else:
                    return None  # second write or a non-stride update
        if step is None:
            return None

        entry_preds = [
            p for p in self.cfg.preds[header]
            if (p, header) not in set(self.back_edges)
            and self.cfg.reachable[p]
        ]
        if not entry_preds:
            return None
        init = _meet_consts([self.const_out[p] for p in entry_preds])
        c0 = init.get(counter)
        bound = init.get(limit)
        if c0 is None or bound is None:
            return None

        # Normalise to "exit when counter REL bound".
        rel = branch
        if swapped:
            rel = {
                Op.BLT: Op.BGT, Op.BLE: Op.BGE,
                Op.BGT: Op.BLT, Op.BGE: Op.BLE,
            }.get(rel, rel)
        if not exit_on_taken:
            rel = {
                Op.BEQ: Op.BNE, Op.BNE: Op.BEQ,
                Op.BLT: Op.BGE, Op.BGE: Op.BLT,
                Op.BLE: Op.BGT, Op.BGT: Op.BLE,
            }[rel]
        return _closed_form_trips(rel, c0, bound, step)

    # -- per-block execution bounds ------------------------------------------

    def _max_exec(self) -> List[float]:
        n = len(self.cfg)
        bound: List[float] = [
            1.0 if self.cfg.reachable[index] else 0.0 for index in range(n)
        ]
        for loop in self.loops:
            body = INF if loop.trips is None else float(loop.trips)
            header = INF if loop.trips is None else float(loop.trips + 1)
            for index in loop.blocks:
                factor = header if index == loop.header else body
                bound[index] = _bound_mul(bound[index], factor)
        # Cycles that survive back-edge removal are irreducible: no
        # natural-loop bound applies, so they are unbounded.
        removed = set(self.back_edges)
        color = [0] * n  # 0 unvisited / 1 on stack / 2 done
        in_cycle: Set[int] = set()
        for root in range(n):
            if color[root] or not self.cfg.reachable[root]:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            color[root] = 1
            path = [root]
            while stack:
                node, edge = stack[-1]
                succs = [
                    s for s in self.cfg.succs[node]
                    if (node, s) not in removed and self.cfg.reachable[s]
                ]
                if edge < len(succs):
                    stack[-1] = (node, edge + 1)
                    succ = succs[edge]
                    if color[succ] == 1:
                        at = path.index(succ)
                        in_cycle.update(path[at:])
                    elif color[succ] == 0:
                        color[succ] = 1
                        stack.append((succ, 0))
                        path.append(succ)
                else:
                    color[node] = 2
                    stack.pop()
                    path.pop()
        for index in in_cycle:
            bound[index] = INF
        return bound


def _bound_mul(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _closed_form_trips(
    rel: Op, c0: int, bound: int, step: int
) -> Optional[int]:
    """Smallest ``n >= 0`` with ``REL(c0 + n*step, bound)`` true, or
    ``None`` when the exit is never reached."""

    def ceil_div(num: int, den: int) -> int:
        return -((-num) // den)

    if rel is Op.BNE:
        return 0 if c0 != bound else 1
    if rel is Op.BEQ:
        delta = bound - c0
        if delta == 0:
            return 0
        if step != 0 and delta % step == 0 and delta // step > 0:
            return delta // step
        return None
    if step > 0:
        if rel is Op.BGE:
            return 0 if c0 >= bound else ceil_div(bound - c0, step)
        if rel is Op.BGT:
            return 0 if c0 > bound else (bound - c0) // step + 1
        if rel is Op.BLT:
            return 0 if c0 < bound else None
        if rel is Op.BLE:
            return 0 if c0 <= bound else None
    elif step < 0:
        if rel is Op.BLE:
            return 0 if c0 <= bound else ceil_div(c0 - bound, -step)
        if rel is Op.BLT:
            return 0 if c0 < bound else (c0 - bound) // -step + 1
        if rel is Op.BGE:
            return 0 if c0 >= bound else None
        if rel is Op.BGT:
            return 0 if c0 > bound else None
    return None


# ---------------------------------------------------------------------------
# cut-site machinery: run-length bounds over the split segment graph
# ---------------------------------------------------------------------------

class _SplitGraph:
    """Blocks split at *cut* instructions.  A cut-bearing block becomes a
    sink half (entry -> first cut, cut cost included — where a run
    arriving from outside ends) and a source half (after the last cut to
    the block's end — where a resumed run leaves).  Distances between
    consecutive cuts inside one block are reported separately."""

    def __init__(self, analysis: ProgramAnalysis, cuts: Set[int]):
        self.analysis = analysis
        cfg = analysis.cfg
        self.nodes: List[Tuple[str, int]] = []
        self.weight: Dict[Tuple[str, int], float] = {}
        self.internal: List[int] = []  # cut-to-cut spans inside blocks
        self.entry_prefix: Optional[int] = None
        self.has_cut: List[bool] = []

        for index in range(len(cfg)):
            if not cfg.reachable[index]:
                self.has_cut.append(False)
                continue
            spans: List[int] = []
            run = 0
            cut_here = False
            tail = 0
            for _pc, ins in analysis.block_instrs[index]:
                run += _cost(ins)
                if _pc in cuts:
                    spans.append(run)
                    run = 0
                    cut_here = True
            tail = run
            self.has_cut.append(cut_here)
            if cut_here:
                self.weight[("in", index)] = float(spans[0])
                self.weight[("out", index)] = float(tail)
                self.nodes.append(("in", index))
                self.nodes.append(("out", index))
                self.internal.extend(spans[1:])
                if index == analysis.entry:
                    self.entry_prefix = spans[0]
            else:
                self.weight[("w", index)] = float(
                    analysis.block_cost[index]
                )
                self.nodes.append(("w", index))

        self.edges: Dict[Tuple[str, int], List[Tuple[str, int]]] = {
            node: [] for node in self.nodes
        }
        for u in range(len(cfg)):
            if not cfg.reachable[u]:
                continue
            src = ("out", u) if self.has_cut[u] else ("w", u)
            for v in cfg.succs[u]:
                if not cfg.reachable[v]:
                    continue
                dst = ("in", v) if self.has_cut[v] else ("w", v)
                self.edges[src].append(dst)

    def sources(self) -> List[Tuple[str, int]]:
        out = [
            node for node in self.nodes if node[0] == "out"
        ]
        entry = self.analysis.entry
        if entry is not None and not self.has_cut[entry]:
            out.append(("w", entry))
        return out

    def sinks(self) -> List[Tuple[str, int]]:
        result = [node for node in self.nodes if node[0] == "in"]
        for index in self.analysis.halt_blocks:
            node = (
                ("out", index) if self.has_cut[index] else ("w", index)
            )
            if node in self.weight and node not in result:
                result.append(node)
        return result

    # -- longest run (upper bound) -------------------------------------------

    def longest(self) -> float:
        candidates: List[float] = [float(s) for s in self.internal]
        if self.entry_prefix is not None:
            candidates.append(float(self.entry_prefix))
        sccs, scc_of = _tarjan(self.nodes, self.edges)
        max_exec = self.analysis.max_exec
        scc_weight: List[float] = []
        for members in sccs:
            cyclic = len(members) > 1 or any(
                node in self.edges[node] for node in members
            )
            if cyclic:
                total = 0.0
                for node in members:
                    w = self.weight[node]
                    if w <= 0:
                        continue
                    reps = max_exec[node[1]]
                    if reps == INF:
                        total = INF
                        break
                    total += reps * w
                scc_weight.append(total)
            else:
                scc_weight.append(self.weight[members[0]])
        source_sccs = {scc_of[node] for node in self.sources()}
        # Tarjan emits SCCs in reverse topological order, so walking the
        # list backwards visits every SCC before its successors.  ``best``
        # holds the heaviest path weight through an SCC, its own weight
        # included.
        best: List[float] = [-INF] * len(sccs)
        for scc in range(len(sccs) - 1, -1, -1):
            start = max(
                0.0 if scc in source_sccs else -INF, best[scc]
            )
            if start == -INF:
                continue
            total = start + scc_weight[scc]
            best[scc] = total
            for node in sccs[scc]:
                for succ in self.edges[node]:
                    target = scc_of[succ]
                    if target != scc and total > best[target]:
                        best[target] = total
        for node in self.sinks():
            candidates.append(best[scc_of[node]])
        finite = [c for c in candidates if c != -INF]
        return max(finite) if finite else 0.0

    # -- shortest run (lower bound) ------------------------------------------

    def shortest(self) -> Optional[float]:
        import heapq

        candidates: List[float] = [float(s) for s in self.internal]
        if self.entry_prefix is not None:
            candidates.append(float(self.entry_prefix))
        dist: Dict[Tuple[str, int], float] = {}
        heap: List[Tuple[float, Tuple[str, int]]] = []
        for node in self.sources():
            w = self.weight[node]
            if node not in dist or w < dist[node]:
                dist[node] = w
                heapq.heappush(heap, (w, node))
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, INF):
                continue
            for succ in self.edges[node]:
                nd = d + self.weight[succ]
                if nd < dist.get(succ, INF):
                    dist[succ] = nd
                    heapq.heappush(heap, (nd, succ))
        for node in self.sinks():
            if node in dist:
                candidates.append(dist[node])
        if not candidates:
            return None
        return min(candidates)


def _tarjan(
    nodes: List[Tuple[str, int]],
    edges: Dict[Tuple[str, int], List[Tuple[str, int]]],
) -> Tuple[List[List[Tuple[str, int]]], Dict[Tuple[str, int], int]]:
    """Iterative Tarjan SCC; components come out in reverse topological
    order (every edge points from a higher SCC index to a lower one)."""
    index_of: Dict[Tuple[str, int], int] = {}
    low: Dict[Tuple[str, int], int] = {}
    on_stack: Set[Tuple[str, int]] = set()
    stack: List[Tuple[str, int]] = []
    sccs: List[List[Tuple[str, int]]] = []
    scc_of: Dict[Tuple[str, int], int] = {}
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        work: List[Tuple[Tuple[str, int], int]] = [(root, 0)]
        while work:
            node, edge = work[-1]
            if edge == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = edges[node]
            while edge < len(succs):
                succ = succs[edge]
                edge += 1
                if succ not in index_of:
                    work[-1] = (node, edge)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work[-1] = (node, edge)
            if edge >= len(succs):
                work.pop()
                if low[node] == index_of[node]:
                    members = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.append(member)
                        scc_of[member] = len(sccs)
                        if member == node:
                            break
                    sccs.append(members)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return sccs, scc_of


# ---------------------------------------------------------------------------
# per-model site classification
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class _Sites:
    """Switch-relevant instruction sites of one (program, model) pair."""

    must: Dict[int, int]  # pc -> guaranteed wait (cycles) at the switch
    may: Set[int]  # pcs where a run *can* end
    checkpoints: Set[int]  # pcs where the forced-interval is checked
    potential: Dict[int, int]  # pc -> max switches one execution causes
    forced_bounded: bool  # run_max = forced + longest checkpoint gap


def _classify_sites(
    analysis: ProgramAnalysis, model: SwitchModel, latency: int,
    forced_interval: int,
) -> _Sites:
    wait = max(0, latency - 1)
    must: Dict[int, int] = {}
    may: Set[int] = set()
    checkpoints: Set[int] = set()
    potential: Dict[int, int] = {}
    forced_bounded = False

    for index in range(len(analysis.cfg)):
        if not analysis.cfg.reachable[index]:
            continue
        instrs = analysis.block_instrs[index]
        if model is SwitchModel.SWITCH_EVERY_CYCLE:
            for pc, ins in instrs:
                if ins.op is Op.HALT:
                    continue
                must[pc] = wait if ins.op in SHARED_LOADS else 0
                # a queued reply can convert one extra pause per load
                potential[pc] = 2 if ins.op in SHARED_LOADS else 1
            continue
        if model is SwitchModel.IDEAL:
            if latency > 0:
                for pc, ins in instrs:
                    if ins.op in SHARED_LOADS:
                        may.add(pc)
                        potential[pc] = 1
            continue
        if model is SwitchModel.SWITCH_ON_LOAD:
            for pc, ins in instrs:
                if ins.op in SHARED_LOADS:
                    must[pc] = wait
                    potential[pc] = 1
                elif ins.op is Op.SWITCH:
                    must[pc] = 0
                    potential[pc] = 1
            continue
        if model is SwitchModel.SWITCH_ON_MISS:
            forced_bounded = forced_interval > 0
            for pc, ins in instrs:
                if ins.op is Op.FAA:
                    must[pc] = wait
                    checkpoints.add(pc)
                    potential[pc] = 1
                elif ins.op in SHARED_LOADS:
                    may.add(pc)
                    if forced_interval > 0:
                        checkpoints.add(pc)
                    potential[pc] = 1
            continue
        if model in (
            SwitchModel.SWITCH_ON_USE, SwitchModel.SWITCH_ON_USE_MISS
        ):
            for pc, ins in instrs:
                if ins.op in SHARED_LOADS:
                    may.add(pc)
                    potential[pc] = 1
                elif (
                    ins.op is Op.SWITCH
                    and model is SwitchModel.SWITCH_ON_USE
                ):
                    must[pc] = 0  # M_USE executes SWITCH unconditionally
                    potential[pc] = 1
            continue
        if model in (
            SwitchModel.EXPLICIT_SWITCH, SwitchModel.CONDITIONAL_SWITCH
        ):
            conditional = model is SwitchModel.CONDITIONAL_SWITCH
            forced_bounded = conditional and forced_interval > 0
            pending_dist: Optional[int] = None  # busy cycles since load
            for pc, ins in instrs:
                op = ins.op
                if op is Op.SWITCH:
                    span = (
                        pending_dist + _cost(ins)
                        if pending_dist is not None else None
                    )
                    guaranteed = span is not None and span < latency
                    if conditional:
                        may.add(pc)
                        checkpoints.add(pc)
                        if guaranteed:
                            must[pc] = latency - span
                    else:
                        must[pc] = (
                            latency - span if guaranteed else 0
                        )
                    potential[pc] = 1
                    pending_dist = None
                    continue
                tracks = (
                    op is Op.FAA if conditional else op in SHARED_LOADS
                )
                if tracks:
                    # The reply lands ``latency`` cycles after issue, and
                    # issue happens *before* the instruction's own cost is
                    # charged — so the busy distance to a later SWITCH
                    # includes this instruction's cost.
                    pending_dist = _cost(ins)
                    potential[pc] = 1
                elif op in SHARED_LOADS:
                    potential[pc] = 1
                    if pending_dist is not None:
                        pending_dist += _cost(ins)
                elif pending_dist is not None:
                    pending_dist += _cost(ins)
            continue
    return _Sites(must, may, checkpoints, potential, forced_bounded)


# ---------------------------------------------------------------------------
# utilization bound
# ---------------------------------------------------------------------------

def _max_walk_ratio(
    analysis: ProgramAnalysis, waits: Dict[int, int]
) -> float:
    """``sup B/(B+W)`` over entry→HALT walks, where ``B`` is the walk's
    busy cost and ``W`` the summed must-site waits on it."""
    cfg = analysis.cfg
    live = [
        index for index in range(len(cfg))
        if cfg.reachable[index] and analysis.coreachable[index]
    ]
    if not live or analysis.entry not in live:
        return 1.0
    wait_of = [0.0] * len(cfg)
    for pc, w in waits.items():
        wait_of[analysis.cfg.block_of_pc(pc)] += w
    if not any(wait_of[index] for index in live):
        return 1.0
    busy = analysis.block_cost
    halts = [index for index in analysis.halt_blocks if index in set(live)]
    live_set = set(live)

    def feasible(lam: float) -> bool:
        weight = [
            (1.0 - lam) * busy[index] - lam * wait_of[index]
            for index in range(len(cfg))
        ]
        dist = [-INF] * len(cfg)
        dist[analysis.entry] = weight[analysis.entry]
        rounds = len(live) + 2
        for _ in range(rounds):
            changed = False
            for u in live:
                if dist[u] == -INF:
                    continue
                for v in cfg.succs[u]:
                    if v not in live_set:
                        continue
                    cand = dist[u] + weight[v]
                    if cand > dist[v] + 1e-12:
                        dist[v] = cand
                        changed = True
            if not changed:
                return any(dist[h] >= -EPSILON for h in halts)
        # Still improving after |V|+2 rounds: a positive cycle that is
        # entry-reachable and HALT-coreachable exists.
        return True

    lo, hi = 0.0, 1.0
    if feasible(1.0 - 1e-9):
        return 1.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return min(1.0, hi + EPSILON)


# ---------------------------------------------------------------------------
# the public prediction objects
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ModelPrediction:
    """Static bounds for one (prepared program, model, machine shape)."""

    model: str
    run_min: int
    run_max: Optional[int]  # None = statically unbounded
    switch_min: int
    switch_max: Optional[int]
    utilization_bound: float
    efficiency_bound: float
    run_bins: Dict[str, float]  # estimated Tables 2/4 distribution
    mean_run_estimate: float
    static_switch_sites: int
    prepared_program: str

    def to_dict(self) -> Dict:
        return {
            "model": self.model,
            "run_min": self.run_min,
            "run_max": self.run_max,
            "switch_min": self.switch_min,
            "switch_max": self.switch_max,
            "utilization_bound": round(self.utilization_bound, 6),
            "efficiency_bound": round(self.efficiency_bound, 6),
            "run_bins": {
                label: round(value, 4)
                for label, value in self.run_bins.items()
            },
            "mean_run_estimate": round(self.mean_run_estimate, 2),
            "static_switch_sites": self.static_switch_sites,
            "prepared_program": self.prepared_program,
        }


@dataclasses.dataclass
class Prediction:
    """All per-model predictions for one original program."""

    program: str
    latency: int
    processors: int
    level: int
    forced_interval: int
    models: Dict[str, ModelPrediction]
    loops: List[Loop]
    call_graph: Dict

    def to_dict(self) -> Dict:
        return {
            "program": self.program,
            "latency": self.latency,
            "processors": self.processors,
            "level": self.level,
            "forced_interval": self.forced_interval,
            "models": {
                name: pred.to_dict()
                for name, pred in sorted(self.models.items())
            },
            "loops": [loop.to_dict() for loop in self.loops],
            "call_graph": self.call_graph,
        }


def _distribution_estimate(
    analysis: ProgramAnalysis, cuts: Set[int]
) -> Tuple[Dict[str, float], float]:
    """Estimated run-length distribution in the paper's bins: a linear
    layout-order scan cutting at *cuts*, each segment weighted by its
    block's (capped) execution estimate.  This is descriptive output for
    the advisor and the tables — only the min/max bounds are gated."""
    runs: List[Tuple[int, float]] = []
    carry = 0
    for index in range(len(analysis.cfg)):
        if not analysis.cfg.reachable[index]:
            continue
        weight = min(analysis.max_exec[index], _ESTIMATE_TRIP_CAP)
        if weight <= 0:
            continue
        for pc, ins in analysis.block_instrs[index]:
            carry += _cost(ins)
            if pc in cuts:
                runs.append((carry, weight))
                carry = 0
    if carry > 0:
        runs.append((carry, 1.0))
    total = sum(w for _r, w in runs)
    if not runs or total <= 0:
        return {label: 0.0 for label in RUN_BIN_LABELS}, 0.0
    bins = [0.0] * len(RUN_BIN_LABELS)
    for length, weight in runs:
        slot = len(RUN_BINS)
        for position, upper in enumerate(RUN_BINS):
            if length <= upper:
                slot = position
                break
        bins[slot] += weight
    mean = sum(length * weight for length, weight in runs) / total
    return (
        {
            label: bins[position] / total
            for position, label in enumerate(RUN_BIN_LABELS)
        },
        mean,
    )


def predict_prepared(
    prepared: Program,
    model: "SwitchModel | str",
    latency: int = 200,
    processors: int = 1,
    level: int = 1,
    forced_interval: int = 200,
    analysis: Optional[ProgramAnalysis] = None,
) -> ModelPrediction:
    """Static bounds for *prepared* (the code the machine runs) under
    *model* on a ``processors`` x ``level`` machine."""
    resolved = SwitchModel.parse(model)
    analysis = analysis or ProgramAnalysis(prepared)
    sites = _classify_sites(
        analysis, resolved, latency, forced_interval
    )
    threads = processors * level

    # -- run-length bounds ---------------------------------------------------
    rmin_cuts = set(sites.must) | sites.may
    shortest = _SplitGraph(analysis, rmin_cuts).shortest()
    vacuous_min = resolved in (
        SwitchModel.SWITCH_ON_USE, SwitchModel.SWITCH_ON_USE_MISS
    ) or (resolved is SwitchModel.IDEAL and sites.may)
    if vacuous_min and sites.may:
        run_min = 1
    else:
        run_min = max(1, int(shortest)) if shortest is not None else 1

    if sites.forced_bounded:
        gap = _SplitGraph(analysis, sites.checkpoints | set(sites.must)).longest()
        run_max = (
            None if gap == INF else forced_interval + int(gap)
        )
    else:
        gap = _SplitGraph(analysis, set(sites.must)).longest()
        run_max = None if gap == INF else int(gap)

    # -- switch-count bounds -------------------------------------------------
    must_count = [0] * len(analysis.cfg)
    for pc in sites.must:
        must_count[analysis.cfg.block_of_pc(pc)] += 1
    switch_min = threads * _min_walk_count(analysis, must_count)

    total_potential = 0.0
    for pc, count in sites.potential.items():
        reps = analysis.max_exec[analysis.cfg.block_of_pc(pc)]
        if reps == INF and count > 0:
            total_potential = INF
            break
        total_potential += reps * count
    switch_max = (
        None if total_potential == INF
        else threads * int(total_potential)
    )

    # -- utilization / efficiency bound --------------------------------------
    rho = _max_walk_ratio(analysis, sites.must)
    utilization = min(1.0, level * rho)

    bins, mean = _distribution_estimate(
        analysis, set(sites.must) | sites.may
    )
    return ModelPrediction(
        model=resolved.value,
        run_min=run_min,
        run_max=run_max,
        switch_min=switch_min,
        switch_max=switch_max,
        utilization_bound=utilization,
        efficiency_bound=utilization,
        run_bins=bins,
        mean_run_estimate=mean,
        static_switch_sites=len(sites.must) + len(sites.may),
        prepared_program=prepared.name,
    )


def _min_walk_count(
    analysis: ProgramAnalysis, weights: List[int]
) -> int:
    """Minimum summed *weights* over structural entry→HALT walks."""
    import heapq

    cfg = analysis.cfg
    if analysis.entry is None or not analysis.halt_blocks:
        return 0
    dist = {analysis.entry: weights[analysis.entry]}
    heap = [(weights[analysis.entry], analysis.entry)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, INF):
            continue
        for succ in cfg.succs[node]:
            nd = d + weights[succ]
            if nd < dist.get(succ, INF):
                dist[succ] = nd
                heapq.heappush(heap, (nd, succ))
    reached = [
        dist[h] for h in analysis.halt_blocks if h in dist
    ]
    return min(reached) if reached else 0


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------

def call_graph(program: Program, analysis: Optional[ProgramAnalysis] = None) -> Dict:
    """Context-insensitive call graph over JAL/JR with per-function
    summaries.  Function bodies are the blocks reachable from a JAL
    target without following a JR's folded return edges."""
    analysis = analysis or ProgramAnalysis(program)
    cfg = analysis.cfg
    label_of = {pc: name for name, pc in program.labels.items()}
    callers: Dict[int, List[int]] = {}
    for pc, ins in enumerate(program.instructions):
        if ins.op is Op.JAL:
            callers.setdefault(ins.target, []).append(pc)
    functions = []
    for entry_pc, sites in sorted(callers.items()):
        try:
            entry_block = cfg.block_of_pc(entry_pc)
        except IndexError:
            continue
        body: Set[int] = set()
        stack = [entry_block]
        while stack:
            node = stack.pop()
            if node in body:
                continue
            body.add(node)
            term = cfg.blocks[node].terminator
            if term is not None and term.op is Op.JR:
                continue  # stop at the return; folded edges are callers'
            stack.extend(cfg.succs[node])
        instructions = sum(
            len(analysis.block_instrs[b]) for b in body
        )
        shared_loads = sum(
            1 for b in body for _pc, ins in analysis.block_instrs[b]
            if ins.op in SHARED_LOADS
        )
        busy = sum(analysis.block_cost[b] for b in body)
        functions.append({
            "entry_pc": entry_pc,
            "label": label_of.get(entry_pc),
            "callers": sites,
            "blocks": sorted(body),
            "instructions": instructions,
            "shared_loads": shared_loads,
            "busy_cost": busy,
        })
    return {
        "functions": functions,
        "indirect_exits": list(cfg.indirect_exits),
    }


# ---------------------------------------------------------------------------
# top-level entry points
# ---------------------------------------------------------------------------

def predict_program(
    program: Program,
    models: Optional[Iterable["SwitchModel | str"]] = None,
    latency: int = 200,
    processors: int = 1,
    level: int = 1,
    forced_interval: int = 200,
) -> Prediction:
    """Predict every requested model for *program* (original code); each
    model is lowered with ``prepare_for_model`` first, so the bounds
    describe the code that model actually executes.  The ideal model is
    predicted at latency 0 — every execution path in the repo (engine,
    fuzzer, benchmark harness) runs it on a zero-latency machine."""
    from repro.compiler.passes import prepare_for_model

    wanted = [
        SwitchModel.parse(m) for m in (models or list(SwitchModel))
    ]
    analyses: Dict[int, ProgramAnalysis] = {}
    predictions: Dict[str, ModelPrediction] = {}
    base_analysis: Optional[ProgramAnalysis] = None
    for model in wanted:
        prepared = prepare_for_model(program, model)
        key = id(prepared)
        if prepared is program:
            if base_analysis is None:
                base_analysis = ProgramAnalysis(program)
            analysis = base_analysis
        else:
            analysis = analyses.get(key) or ProgramAnalysis(prepared)
            analyses[key] = analysis
        predictions[model.value] = predict_prepared(
            prepared, model,
            latency=0 if model is SwitchModel.IDEAL else latency,
            processors=processors, level=level,
            forced_interval=forced_interval, analysis=analysis,
        )
    if base_analysis is None:
        base_analysis = ProgramAnalysis(program)
    return Prediction(
        program=program.name,
        latency=latency,
        processors=processors,
        level=level,
        forced_interval=forced_interval,
        models=predictions,
        loops=base_analysis.loops,
        call_graph=call_graph(program, base_analysis),
    )
