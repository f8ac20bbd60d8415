"""Seeded generator of random-but-valid SPMD kernels.

Generation is split into two pure stages so failures can be shrunk:

1. :func:`generate_plan` derives a *plan* — a JSON-serialisable tree of
   segment descriptors — from ``(seed, config)`` using the same
   splitmix64 draws as the fault machinery (:mod:`repro.faults.rng`).
   No mutable RNG state exists anywhere, so the same inputs always
   produce the same plan.
2. :func:`build_synth_app` turns a plan into a
   :class:`~repro.apps.base.BuiltApp`: it emits the program through the
   :class:`~repro.isa.builder.ProgramBuilder`, lays out shared memory,
   and — crucially — *evaluates the same plan in pure Python* to compute
   the expected final shared image, which becomes the app's functional
   check.  The fuzz harness's shrinker re-builds apps from pruned plans
   (:func:`prune_plan`), so a failing seed can be bisected down to the
   minimal set of segments that still fails.

Validity is by construction, not by filtering:

* the program ends in ``HALT``, uses only allocator-managed registers,
  and never emits ``SWITCH`` (the grouping pass inserts switches for
  the models that want them — exactly like the hand-written apps);
* every written register is later read (no dead writes — computed
  values fold into an accumulator that the kernel finally stores);
* every non-sync shared store lands in the thread's own output
  partition (address derived from the thread id), at a Fetch-and-Add
  claimed chunk (address derived from the FAA result), or inside a
  ticket-lock critical section — the three shapes
  ``paper-shared-store-race`` accepts;
* shared memory is *deterministic*: non-sync reads touch only the
  read-only input region or cells finalised before the previous
  barrier, lock critical sections perform commutative updates, and
  Fetch-and-Add results are used only as chunk indices whose work is a
  pure function of the index.  Every model and backend must therefore
  produce the identical final image — the differential harness's
  strongest oracle.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.apps.base import BuiltApp
from repro.faults.rng import hash_u64
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.isa.registers import NTHREADS_REG, TID_REG
from repro.runtime.layout import SharedLayout
from repro.runtime.sync import (
    BARRIER_WORDS,
    LOCK_WORDS,
    emit_barrier,
    emit_lock_acquire,
    emit_lock_release,
)
from repro.synth.config import SynthConfig

#: Accumulator renormalisation mask — applied after every segment so
#: values stay bounded no matter how deeply loops multiply.
ACC_MASK = 0xFFFFF
#: Branch conditions test ``acc & BRANCH_MASK`` against a constant.
BRANCH_MASK = 0xF

_FOLDS = ("add", "xor", "or")
_CONDS = ("eq", "ne", "lt", "ge")
# addi twice: additive arithmetic should dominate the ALU mix.
_ALU_OPS = ("addi", "xori", "ori", "addi", "xori", "muli")

PLAN_VERSION = 1


class _Draws:
    """A deterministic draw sequence: the n-th draw of a seed is a pure
    function of ``(seed, n)`` — no mutable RNG state."""

    def __init__(self, seed: int):
        self.seed = seed & ((1 << 64) - 1)
        self.n = 0

    def bounded(self, bound: int) -> int:
        """Uniform draw in ``[0, bound]``."""
        self.n += 1
        if bound <= 0:
            return 0
        return hash_u64(self.seed, self.n) % (bound + 1)

    def unit(self) -> float:
        self.n += 1
        return hash_u64(self.seed, self.n) / float(1 << 64)

    def choice(self, items: Sequence):
        return items[self.bounded(len(items) - 1)]


# ---------------------------------------------------------------------------
# plan generation
# ---------------------------------------------------------------------------


def generate_plan(seed: int, config: Optional[SynthConfig] = None) -> Dict:
    """The full kernel plan for ``(seed, config)`` — a pure function."""
    cfg = config or SynthConfig()
    draws = _Draws(seed)
    region_words = cfg.region_words
    multi_phase = cfg.sync in ("barrier", "mixed")
    use_lock = cfg.sync in ("lock", "mixed")
    nphases = 2 + draws.bounded(1) if multi_phase else 1

    plan: Dict = {
        "version": PLAN_VERSION,
        "seed": seed,
        "config": cfg.to_dict(),
        "region_words": region_words,
        "acc_init": draws.bounded(4095),
        "faa_mul": 3 + 2 * draws.bounded(1),  # 3 or 5
        "faa_add": draws.bounded(15),
        "input": [draws.bounded(255) for _ in range(region_words)],
        "phases": [],
    }

    next_id = 0
    next_slot = 0  # own-partition output slots, assigned in program order
    next_cell = 0  # lock-protected accumulator cells
    for phase in range(nphases):
        # Slots stored before this phase's opening barrier are final and
        # safe for own/neighbour reads during the phase.
        avail = next_slot if phase > 0 else 0
        segments: List[Dict] = []
        for _ in range(cfg.segments):
            roll = draws.unit()
            lock_band = 0.25 if use_lock else 0.0
            if roll < cfg.faa_weight:
                seg = {"kind": "faa", "claims": 1 + draws.bounded(2)}
            elif roll < cfg.faa_weight + lock_band:
                seg = {"kind": "lock", "cell": next_cell,
                       "delta": 1 + draws.bounded(8)}
                next_cell += 1
            elif (
                roll < cfg.faa_weight + lock_band + 0.15
                and next_slot < region_words - 1
            ):
                seg = {"kind": "store", "slot": next_slot}
                next_slot += 1
            else:
                seg = _work_segment(draws, cfg, 0, phase, avail)
            seg["id"] = next_id
            next_id += 1
            segments.append(seg)
        plan["phases"].append(segments)
    plan["final_slot"] = next_slot
    return plan


def _work_segment(
    draws: _Draws, cfg: SynthConfig, depth: int, phase: int, avail: int
) -> Dict:
    """One computation segment: a load group or ALU run, optionally
    wrapped in a loop or a (model-independent) branch."""
    if depth < cfg.loop_depth and draws.unit() < 0.3:
        body = [
            _work_segment(draws, cfg, depth + 1, phase, avail)
            for _ in range(1 + draws.bounded(1))
        ]
        return {"kind": "loop", "trips": 2 + draws.bounded(2), "body": body}
    if draws.unit() < cfg.branchiness:
        then = [_leaf_segment(draws, cfg, phase, avail)]
        has_else = draws.unit() < 0.5
        other = [_leaf_segment(draws, cfg, phase, avail)] if has_else else []
        return {
            "kind": "branch",
            "cond": draws.choice(_CONDS),
            "value": draws.bounded(BRANCH_MASK),
            "then": then,
            "else": other,
        }
    return _leaf_segment(draws, cfg, phase, avail)


def _leaf_segment(
    draws: _Draws, cfg: SynthConfig, phase: int, avail: int
) -> Dict:
    if draws.unit() < cfg.shared_load_density:
        sources = ["input"]
        if phase > 0 and avail > 0:
            sources += ["own", "neighbor"]
        source = draws.choice(sources)
        limit = cfg.region_words if source == "input" else avail
        group = 1 + draws.bounded(cfg.max_group - 1)
        loads = []
        regs = 0
        for _ in range(group):
            if regs >= cfg.max_group:
                break
            pair = limit >= 2 and regs + 2 <= cfg.max_group and draws.unit() < 0.2
            span = 2 if pair else 1
            loads.append({
                "off": draws.bounded(limit - span),
                "pair": pair,
                "fold": draws.choice(_FOLDS),
            })
            regs += span
        return {"kind": "load", "src": source, "loads": loads}
    ops = []
    for _ in range(2 + draws.bounded(3)):
        op = draws.choice(_ALU_OPS)
        if op == "addi":
            imm = draws.bounded(30) - 15
        elif op == "xori":
            imm = 1 + draws.bounded(254)
        elif op == "ori":
            imm = 1 + draws.bounded(14)
        else:  # muli
            imm = 2 + draws.bounded(1)
        ops.append([op, imm])
    return {"kind": "alu", "ops": ops}


# ---------------------------------------------------------------------------
# plan surgery (shrinking support)
# ---------------------------------------------------------------------------


def plan_segment_ids(plan: Dict) -> List[int]:
    """Ids of every top-level segment — the shrinker's bisection units."""
    return [seg["id"] for segments in plan["phases"] for seg in segments]


def prune_plan(plan: Dict, keep: Set[int]) -> Dict:
    """A new plan containing only the top-level segments in *keep*.

    Pruning preserves validity: dropped stores leave their output slots
    at zero (the evaluator mirrors the same pruning), phase/barrier
    structure is retained, and layout regions are re-derived from the
    surviving segments.
    """
    pruned = {key: value for key, value in plan.items() if key != "phases"}
    pruned["phases"] = [
        [seg for seg in segments if seg["id"] in keep]
        for segments in plan["phases"]
    ]
    return pruned


def shrink_segments(plan: Dict, still_fails: Callable[[Dict], bool]) -> Dict:
    """Minimal plan (ddmin over top-level segments) for which
    *still_fails* still holds: drop ever-smaller chunks of segments
    while the pruned plan keeps failing, down to single segments, until
    a pass over single segments removes nothing."""
    kept = plan_segment_ids(plan)
    chunk = max(1, len(kept) // 2)
    while True:
        removed_any = False
        index = 0
        while index < len(kept):
            candidate_ids = kept[:index] + kept[index + chunk:]
            if still_fails(prune_plan(plan, set(candidate_ids))):
                kept = candidate_ids
                removed_any = True
            else:
                index += chunk
        if chunk == 1:
            if not removed_any:
                break
        else:
            chunk = max(1, chunk // 2)
    return prune_plan(plan, set(kept))


def _plan_features(plan: Dict) -> Dict:
    """What the surviving segments actually use (drives layout/pointer
    emission, so pruned plans stay free of dead setup code)."""
    features = {
        "faa_claims": 0, "lock_cells": 0, "lock_count": 0,
        "input": False, "own_read": False, "neighbor": False,
    }

    def visit(seg: Dict) -> None:
        kind = seg["kind"]
        if kind == "faa":
            features["faa_claims"] += seg["claims"]
        elif kind == "lock":
            features["lock_count"] += 1
            features["lock_cells"] = max(features["lock_cells"], seg["cell"] + 1)
        elif kind == "load":
            if seg["src"] == "input":
                features["input"] = True
            elif seg["src"] == "own":
                features["own_read"] = True
            else:
                features["neighbor"] = True
        elif kind == "loop":
            for child in seg["body"]:
                visit(child)
        elif kind == "branch":
            for child in seg["then"] + seg["else"]:
                visit(child)

    for segments in plan["phases"]:
        for seg in segments:
            visit(seg)
    return features


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _build_layout(plan: Dict, nthreads: int, features: Dict):
    layout = SharedLayout()
    bases = {
        "input": layout.alloc(
            "input", plan["region_words"], init=plan["input"]
        ),
        "out": layout.alloc("out", nthreads * plan["region_words"]),
    }
    if features["faa_claims"]:
        bases["counter"] = layout.word("counter", 0)
        bases["chunk"] = layout.alloc(
            "chunk", max(1, features["faa_claims"] * nthreads)
        )
    if features["lock_count"]:
        bases["lock"] = layout.alloc("lock", LOCK_WORDS)
        bases["cells"] = layout.alloc("cells", features["lock_cells"])
    if len(plan["phases"]) > 1:
        bases["barrier"] = layout.alloc("barrier", BARRIER_WORDS)
    return layout, bases


def _emit_program(plan: Dict, nthreads: int, features: Dict, bases: Dict,
                  name: str) -> Program:
    region_words = plan["region_words"]
    shift = region_words.bit_length() - 1
    b = ProgramBuilder()

    acc = b.int_reg("acc")
    b.li(acc, plan["acc_init"])
    b.add(acc, acc, TID_REG)

    own = b.int_reg("own")  # base of this thread's output partition
    with b.scratch_int() as tmp:
        b.slli(tmp, TID_REG, shift)
        b.li(own, bases["out"])
        b.add(own, own, tmp)

    pointers: Dict[str, int] = {"own": own}
    if features["input"]:
        pointers["input"] = b.int_reg("in")
        b.li(pointers["input"], bases["input"])
    if features["neighbor"]:
        nb = b.int_reg("nb")
        with b.scratch_int() as tmp:
            b.addi(tmp, TID_REG, 1)
            with b.if_cmp("ge", tmp, NTHREADS_REG):
                b.li(tmp, 0)
            b.slli(tmp, tmp, shift)
            b.li(nb, bases["out"])
            b.add(nb, nb, tmp)
        pointers["neighbor"] = nb
    if features["faa_claims"]:
        pointers["one"] = b.int_reg("one")
        b.li(pointers["one"], 1)
        pointers["counter"] = b.int_reg("ctr")
        b.li(pointers["counter"], bases["counter"])
        pointers["chunk"] = b.int_reg("chk")
        b.li(pointers["chunk"], bases["chunk"])
    if features["lock_count"]:
        pointers["lock"] = b.int_reg("lck")
        b.li(pointers["lock"], bases["lock"])
        pointers["cells"] = b.int_reg("cel")
        b.li(pointers["cells"], bases["cells"])

    def emit_segment(seg: Dict) -> None:
        kind = seg["kind"]
        if kind == "alu":
            for op, imm in seg["ops"]:
                getattr(b, op)(acc, acc, imm)
            b.andi(acc, acc, ACC_MASK)
        elif kind == "load":
            base = pointers[seg["src"] if seg["src"] != "own" else "own"]
            temps: List[int] = []
            folds: List[tuple] = []
            for load in seg["loads"]:
                if load["pair"]:
                    lo, hi = b.int_pair()
                    b.lds(lo, base, load["off"])
                    temps += [lo, hi]
                    folds += [(load["fold"], lo), (load["fold"], hi)]
                else:
                    reg = b.int_reg()
                    b.lws(reg, base, load["off"])
                    temps.append(reg)
                    folds.append((load["fold"], reg))
            for fold, reg in folds:
                getattr(b, fold)(acc, acc, reg)
            b.release(*temps)
            b.andi(acc, acc, ACC_MASK)
        elif kind == "branch":
            low = b.int_reg()
            b.andi(low, acc, BRANCH_MASK)
            ref = b.int_reg()
            b.li(ref, seg["value"])
            if seg["else"]:
                with b.if_else(seg["cond"], low, ref) as arm:
                    for child in seg["then"]:
                        emit_segment(child)
                    with arm.otherwise():
                        for child in seg["else"]:
                            emit_segment(child)
            else:
                with b.if_cmp(seg["cond"], low, ref):
                    for child in seg["then"]:
                        emit_segment(child)
            b.release(low, ref)
        elif kind == "loop":
            counter = b.int_reg()
            with b.for_range(counter, 0, seg["trips"]):
                for child in seg["body"]:
                    emit_segment(child)
            b.release(counter)
        elif kind == "store":
            b.sws(acc, own, seg["slot"])
        elif kind == "faa":
            index = b.int_reg()
            claimed = b.int_reg()
            value = b.int_reg()
            addr = b.int_reg()
            with b.for_range(index, 0, seg["claims"]):
                b.faa(claimed, pointers["counter"], 0, pointers["one"])
                b.muli(value, claimed, plan["faa_mul"])
                b.addi(value, value, plan["faa_add"])
                b.andi(value, value, ACC_MASK)
                b.add(addr, pointers["chunk"], claimed)
                b.sws(value, addr, 0)
            b.release(index, claimed, value, addr)
        elif kind == "lock":
            ticket = emit_lock_acquire(b, pointers["lock"])
            with b.scratch_int() as tmp:
                b.lws(tmp, pointers["cells"], seg["cell"])
                b.addi(tmp, tmp, seg["delta"])
                b.sws(tmp, pointers["cells"], seg["cell"])
            emit_lock_release(b, pointers["lock"], ticket)
        else:  # pragma: no cover - plan dicts are generator-produced
            raise ValueError(f"unknown segment kind {kind!r}")

    last_phase = len(plan["phases"]) - 1
    for phase, segments in enumerate(plan["phases"]):
        for seg in segments:
            emit_segment(seg)
        if phase != last_phase:
            bar = b.int_reg()
            b.li(bar, bases["barrier"])
            emit_barrier(b, bar, NTHREADS_REG)
            b.release(bar)

    b.sws(acc, own, plan["final_slot"])
    b.halt()
    return b.build(name)


# ---------------------------------------------------------------------------
# reference evaluation (the functional oracle)
# ---------------------------------------------------------------------------


def _evaluate(plan: Dict, nthreads: int, features: Dict, bases: Dict,
              total_words: int) -> List[int]:
    """Expected final shared memory, computed by walking the plan in
    pure Python.  Model-dependent quantities (which thread claimed which
    chunk, lock acquisition order) only ever feed commutative or
    index-determined updates, so this single image is the answer for
    every switch model and backend."""
    region_words = plan["region_words"]
    expected = [0] * total_words
    for offset, value in enumerate(plan["input"]):
        expected[bases["input"] + offset] = value

    parts = [[0] * region_words for _ in range(nthreads)]
    accs = [(plan["acc_init"] + tid) for tid in range(nthreads)]

    def read(tid: int, source: str, off: int) -> int:
        if source == "input":
            return plan["input"][off]
        if source == "own":
            return parts[tid][off]
        return parts[(tid + 1) % nthreads][off]

    def walk(seg: Dict, tid: int, acc: int) -> int:
        kind = seg["kind"]
        if kind == "alu":
            for op, imm in seg["ops"]:
                if op == "addi":
                    acc += imm
                elif op == "xori":
                    acc ^= imm
                elif op == "ori":
                    acc |= imm
                else:  # muli
                    acc *= imm
            return acc & ACC_MASK
        if kind == "load":
            for load in seg["loads"]:
                spans = (0, 1) if load["pair"] else (0,)
                for span in spans:
                    word = read(tid, seg["src"], load["off"] + span)
                    if load["fold"] == "add":
                        acc += word
                    elif load["fold"] == "xor":
                        acc ^= word
                    else:
                        acc |= word
            return acc & ACC_MASK
        if kind == "branch":
            low = acc & BRANCH_MASK
            taken = {
                "eq": low == seg["value"],
                "ne": low != seg["value"],
                "lt": low < seg["value"],
                "ge": low >= seg["value"],
            }[seg["cond"]]
            for child in seg["then"] if taken else seg["else"]:
                acc = walk(child, tid, acc)
            return acc
        if kind == "loop":
            for _ in range(seg["trips"]):
                for child in seg["body"]:
                    acc = walk(child, tid, acc)
            return acc
        if kind == "store":
            parts[tid][seg["slot"]] = acc
            return acc
        # faa/lock: no accumulator effect; globally accounted below.
        return acc

    # Reads during a phase only touch slots finalised in earlier phases,
    # so walking threads sequentially within a phase is exact.
    for segments in plan["phases"]:
        for tid in range(nthreads):
            acc = accs[tid]
            for seg in segments:
                acc = walk(seg, tid, acc)
            accs[tid] = acc
    for tid in range(nthreads):
        parts[tid][plan["final_slot"]] = accs[tid]
        base = bases["out"] + tid * region_words
        for offset, value in enumerate(parts[tid]):
            expected[base + offset] = value

    if features["faa_claims"]:
        total = features["faa_claims"] * nthreads
        expected[bases["counter"]] = total
        for index in range(total):
            expected[bases["chunk"] + index] = (
                index * plan["faa_mul"] + plan["faa_add"]
            ) & ACC_MASK
    if features["lock_count"]:
        acquisitions = features["lock_count"] * nthreads
        expected[bases["lock"] + 0] = acquisitions  # next ticket
        expected[bases["lock"] + 1] = acquisitions  # now serving
        for segments in plan["phases"]:
            for seg in segments:
                if seg["kind"] == "lock":
                    expected[bases["cells"] + seg["cell"]] += (
                        seg["delta"] * nthreads
                    )
    if len(plan["phases"]) > 1:
        expected[bases["barrier"] + 0] = 0
        expected[bases["barrier"] + 1] = len(plan["phases"]) - 1
    return expected


# ---------------------------------------------------------------------------
# public build surface
# ---------------------------------------------------------------------------


def build_synth_app(
    plan: Dict, nthreads: int, name: Optional[str] = None
) -> BuiltApp:
    """A ready-to-run :class:`BuiltApp` for *plan* at *nthreads*."""
    features = _plan_features(plan)
    layout, bases = _build_layout(plan, nthreads, features)
    app_name = name or f"synth:{plan['seed']}"
    program = _emit_program(plan, nthreads, features, bases, app_name)
    expected = _evaluate(plan, nthreads, features, bases, layout.total_words)
    regions = [(rname, layout.base(rname), layout.size_of(rname))
               for rname in ("input", "out", "counter", "chunk", "lock",
                             "cells", "barrier")
               if rname in bases]

    def check(memory: List) -> None:
        for addr in range(len(expected)):
            if memory[addr] != expected[addr]:
                where = f"word {addr}"
                for rname, base, size in regions:
                    if base <= addr < base + size:
                        where = f"{rname}[{addr - base}]"
                        break
                raise AssertionError(
                    f"{app_name}: final shared memory diverges at {where}: "
                    f"got {memory[addr]}, expected {expected[addr]}"
                )

    return BuiltApp(
        name=app_name,
        program=program,
        shared=layout.build_image(),
        nthreads=nthreads,
        check=check,
        meta={
            "seed": plan["seed"],
            "segments": len(plan_segment_ids(plan)),
            "fingerprint": program_fingerprint(program),
        },
    )


def generate_app(seed: int, config: Optional[SynthConfig] = None,
                 nthreads: int = 4, name: Optional[str] = None) -> BuiltApp:
    """Generate-and-build in one step (the common entry point)."""
    return build_synth_app(generate_plan(seed, config), nthreads, name=name)


def program_fingerprint(program: Program) -> str:
    """A stable content hash of the instruction stream (determinism
    checks, corpus manifests)."""
    digest = hashlib.sha256()
    for ins in program.instructions:
        digest.update(
            repr((int(ins.op), ins.rd, ins.rs1, ins.rs2, ins.imm,
                  ins.label, bool(ins.sync))).encode()
        )
    return digest.hexdigest()
