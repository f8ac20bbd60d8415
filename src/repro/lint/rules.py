"""The lint rule registry and all rule implementations.

Rules come in three families, mirroring the layers of the repo:

``isa-*``
    Well-formedness of the instruction stream itself — operand ranges and
    register-file kinds, arity hygiene, branch targets, reachability of a
    HALT.  These run on the raw instruction list and need no CFG, so they
    still work on deliberately corrupted programs (the mutation self-test
    relies on that).

``df-*``
    Dataflow findings on the CFG — cross-block use-before-def against the
    must-assigned analysis, and dead writes against liveness.

``paper-*``
    The invariants the paper's Section 5.1 post-processor must uphold:
    grouped code closes every shared-load group with a SWITCH before any
    destination register is used, use-model code carries no SWITCH at
    all, the grouped block is a dependence-preserving permutation of the
    original, and shared stores go to addresses derived from a
    thread-unique value (FAA result or thread id) unless a lock/barrier
    dominates them.

Severities are deliberate: only genuine machine-breakers are errors
(those fail a spec under ``Engine(check=True)``); stylistic or heuristic
findings stay warnings/infos so real applications lint clean.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.dependence import block_dependences
from repro.isa.instruction import (
    Instruction,
    instr_reads,
    instr_writes,
    render_asm,
)
from repro.isa.opcodes import (
    Op,
    OP_SIG,
    Sig,
    SHARED_LOADS,
    SHARED_STORES,
    DOUBLE_ACCESSES,
)
from repro.isa.program import Program
from repro.isa.registers import (
    ARGS_REG,
    NTHREADS_REG,
    NUM_REGS,
    SP_REG,
    TID_REG,
    ZERO_REG,
    is_fp_reg,
    reg_name,
)
from repro.machine.models import SwitchModel
from repro.lint.dataflow import (
    LintCFG,
    definitely_assigned,
    dominator_masks,
    live_out_masks,
    reg_mask,
)
from repro.lint.diagnostics import Diagnostic, LintReport, Rule, Severity

#: Registers the loader/conventions guarantee before the first
#: instruction runs: hard-wired zero, thread id, thread count, argument
#: block base, and the stack/scratch base (every register powers up as
#: zero, so ``sp``'s conventional initial value of 0 is real).
ENTRY_DEFINED = frozenset(
    {ZERO_REG, TID_REG, NTHREADS_REG, ARGS_REG, SP_REG}
)

RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule("isa-operand-range", Severity.ERROR,
             "register operand outside the 64-slot file"),
        Rule("isa-operand-kind", Severity.ERROR,
             "operand in the wrong register file for its opcode"),
        Rule("isa-arity", Severity.WARNING,
             "operand field set but unused by the opcode's signature"),
        Rule("isa-branch-target", Severity.ERROR,
             "branch or jump target outside the program"),
        Rule("isa-fall-off-end", Severity.ERROR,
             "control flow can run past the last instruction"),
        Rule("isa-no-halt", Severity.ERROR,
             "no HALT instruction is reachable from entry"),
        Rule("isa-unreachable-code", Severity.WARNING,
             "basic block unreachable from entry"),
        Rule("df-use-before-def", Severity.WARNING,
             "register read before any assignment on some entry path"),
        Rule("df-dead-write", Severity.INFO,
             "register written but never read afterwards"),
        Rule("paper-group-switch", Severity.ERROR,
             "shared-load group not closed by SWITCH before a use"),
        Rule("paper-use-model-switch", Severity.ERROR,
             "SWITCH opcode present in code for a model without them"),
        Rule("paper-grouping-permutation", Severity.ERROR,
             "grouped block is not a dependence-preserving permutation"),
        Rule("paper-shared-store-race", Severity.WARNING,
             "shared store whose address is not thread-unique or "
             "sync-guarded"),
        Rule("sync-lock-order", Severity.WARNING,
             "locks acquired in inconsistent order (deadlock cycle)"),
        Rule("sync-unreleased-lock", Severity.WARNING,
             "lock may still be held when the thread halts"),
        Rule("sync-barrier-participation", Severity.WARNING,
             "barrier reachable by only a subset of threads"),
        Rule("advice-group-loads", Severity.INFO,
             "ungrouped independent shared loads; grouping would "
             "lengthen static run lengths"),
    )
}


def _diag(
    rule_id: str,
    program: Program,
    message: str,
    pc: Optional[int] = None,
    block: Optional[int] = None,
) -> Diagnostic:
    rule = RULES[rule_id]
    asm = None
    if pc is not None and 0 <= pc < len(program.instructions):
        asm = render_asm(program.instructions[pc])
    return Diagnostic(
        rule_id=rule_id,
        severity=rule.severity,
        message=message,
        program=program.name,
        pc=pc,
        block=block,
        asm=asm,
    )


# ---------------------------------------------------------------------------
# isa-* rules that need no CFG (safe on arbitrarily corrupt programs)
# ---------------------------------------------------------------------------

#: Register fields consumed by each signature (field name -> attribute).
_SIG_REG_FIELDS: Dict[Sig, Tuple[str, ...]] = {
    Sig.R3: ("rd", "rs1", "rs2"),
    Sig.R2I: ("rd", "rs1"),
    Sig.R2: ("rd", "rs1"),
    Sig.RI: ("rd",),
    Sig.LOAD: ("rd", "rs1"),
    Sig.STORE: ("rs2", "rs1"),
    Sig.BR2: ("rs1", "rs2"),
    Sig.JMP: (),
    Sig.JREG: ("rs1",),
    Sig.FAA: ("rd", "rs1", "rs2"),
    Sig.NONE: (),
}

#: Signatures that consume the immediate field.
_SIG_USES_IMM = frozenset(
    {Sig.R2I, Sig.RI, Sig.LOAD, Sig.STORE, Sig.FAA}
)

_FP_ARITH = frozenset(
    {Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FNEG, Op.FABS, Op.FSQRT, Op.FMOV}
)
_FP_COMPARES = frozenset({Op.FSLT, Op.FSLE, Op.FSEQ})


def _operand_kinds(op: Op) -> Dict[str, str]:
    """Expected register file per operand field: ``int``, ``fp`` or
    ``any`` (memory data operands serve both files)."""
    sig = OP_SIG[op]
    kinds = {field: "int" for field in _SIG_REG_FIELDS[sig]}
    if op in _FP_ARITH:
        for field in kinds:
            kinds[field] = "fp"
    elif op in _FP_COMPARES:
        kinds.update(rd="int", rs1="fp", rs2="fp")
    elif op is Op.CVTIF:
        kinds.update(rd="fp", rs1="int")
    elif op is Op.CVTFI:
        kinds.update(rd="int", rs1="fp")
    elif op is Op.FLI:
        kinds["rd"] = "fp"
    elif sig is Sig.LOAD:
        kinds["rd"] = "any"  # data destination; address base stays int
    elif sig is Sig.STORE:
        kinds["rs2"] = "any"  # data source; address base stays int
    elif sig is Sig.BR2:
        # The interpreter compares raw slot values, so branches work on
        # either file — but both operands must come from the same one.
        kinds.update(rs1="any", rs2="any")
    return kinds


def _check_instruction_shapes(program: Program, report: LintReport) -> bool:
    """Run the syntactic rules.  Returns True when branch targets are all
    sane — the precondition for building a CFG."""
    count = len(program.instructions)
    targets_ok = True
    for pc, ins in enumerate(program.instructions):
        sig = OP_SIG[ins.op]
        fields = _SIG_REG_FIELDS[sig]

        # isa-operand-range -------------------------------------------------
        in_range: Dict[str, bool] = {}
        for field in fields:
            slot = getattr(ins, field)
            ok = 0 <= slot < NUM_REGS
            if ok and ins.op in DOUBLE_ACCESSES and field in ("rd", "rs2"):
                ok = slot + 1 < NUM_REGS  # pair partner must exist too
            in_range[field] = ok
            if not ok:
                report.add(_diag(
                    "isa-operand-range", program,
                    f"{field} slot {slot} is outside the register file "
                    f"(0..{NUM_REGS - 1})",
                    pc=pc,
                ))

        # isa-operand-kind --------------------------------------------------
        kinds = _operand_kinds(ins.op)
        for field, kind in kinds.items():
            if not in_range.get(field):
                continue  # range finding already covers it
            slot = getattr(ins, field)
            actual = "fp" if is_fp_reg(slot) else "int"
            if kind != "any" and actual != kind:
                report.add(_diag(
                    "isa-operand-kind", program,
                    f"{field} ({reg_name(slot)}) must be a {kind} "
                    f"register for {ins.op.name.lower()}",
                    pc=pc,
                ))
            elif (
                ins.op in DOUBLE_ACCESSES
                and field in ("rd", "rs2")
                and is_fp_reg(slot) != is_fp_reg(slot + 1)
            ):
                report.add(_diag(
                    "isa-operand-kind", program,
                    f"double access pair {reg_name(slot)}/{field}+1 "
                    "crosses the register-file boundary",
                    pc=pc,
                ))
        if (
            sig is Sig.BR2
            and in_range.get("rs1")
            and in_range.get("rs2")
            and is_fp_reg(ins.rs1) != is_fp_reg(ins.rs2)
        ):
            report.add(_diag(
                "isa-operand-kind", program,
                f"{ins.op.name.lower()} compares {reg_name(ins.rs1)} "
                f"against {reg_name(ins.rs2)} across register files",
                pc=pc,
            ))
        if isinstance(ins.imm, float) and ins.op is not Op.FLI:
            report.add(_diag(
                "isa-operand-kind", program,
                f"float immediate {ins.imm!r} is only legal on fli",
                pc=pc,
            ))

        # isa-arity ---------------------------------------------------------
        for field in ("rd", "rs1", "rs2"):
            if field not in fields and getattr(ins, field) != 0:
                report.add(_diag(
                    "isa-arity", program,
                    f"{field}={getattr(ins, field)} is ignored by "
                    f"{ins.op.name.lower()} ({sig.value or 'no operands'})",
                    pc=pc,
                ))
        if sig not in _SIG_USES_IMM and ins.imm != 0:
            report.add(_diag(
                "isa-arity", program,
                f"imm={ins.imm!r} is ignored by {ins.op.name.lower()}",
                pc=pc,
            ))
        if sig not in (Sig.BR2, Sig.JMP) and ins.label is not None:
            report.add(_diag(
                "isa-arity", program,
                f"label={ins.label!r} is ignored by {ins.op.name.lower()}",
                pc=pc,
            ))

        # isa-branch-target -------------------------------------------------
        if sig in (Sig.BR2, Sig.JMP):
            if not 0 <= ins.target < count:
                targets_ok = False
                report.add(_diag(
                    "isa-branch-target", program,
                    f"target {ins.target} is outside the program "
                    f"(valid range 0..{count - 1})",
                    pc=pc,
                ))
    return targets_ok


# ---------------------------------------------------------------------------
# CFG-level rules
# ---------------------------------------------------------------------------

def _check_structure(cfg: LintCFG, report: LintReport) -> None:
    program = cfg.program
    for index in cfg.falls_off:
        block = cfg.blocks[index]
        last_pc = block.start + len(block.instructions) - 1
        report.add(_diag(
            "isa-fall-off-end", program,
            f"block {index} can fall through past the last instruction "
            "(append a halt or an unconditional branch)",
            pc=last_pc, block=index,
        ))

    halt_reachable = any(
        cfg.reachable[index]
        and any(ins.op is Op.HALT for _pc, ins in cfg.instructions_of(index))
        for index in range(len(cfg))
    )
    if not halt_reachable:
        report.add(_diag(
            "isa-no-halt", program,
            "no HALT instruction is reachable from entry "
            "(threads would never terminate)",
        ))

    for index in range(len(cfg)):
        if not cfg.reachable[index] and cfg.blocks[index].instructions:
            report.add(_diag(
                "isa-unreachable-code", program,
                f"block {index} ({len(cfg.blocks[index])} instructions) "
                "is unreachable from entry",
                pc=cfg.blocks[index].start, block=index,
            ))


def _check_dataflow(cfg: LintCFG, report: LintReport) -> None:
    program = cfg.program

    # df-use-before-def ------------------------------------------------------
    in_masks = definitely_assigned(cfg, reg_mask(ENTRY_DEFINED))
    for index in range(len(cfg)):
        if not cfg.reachable[index]:
            continue
        defined = in_masks[index]
        for pc, ins in cfg.instructions_of(index):
            for slot in instr_reads(ins):
                if 0 <= slot < NUM_REGS and not defined & (1 << slot):
                    report.add(_diag(
                        "df-use-before-def", program,
                        f"{reg_name(slot)} is read but not assigned on "
                        "every path from entry",
                        pc=pc, block=index,
                    ))
            defined |= reg_mask(instr_writes(ins))

    # df-dead-write ----------------------------------------------------------
    live_out = live_out_masks(cfg)
    for index in range(len(cfg)):
        if not cfg.reachable[index]:
            continue
        live = live_out[index]
        block = cfg.blocks[index]
        for offset in range(len(block.instructions) - 1, -1, -1):
            ins = block.instructions[offset]
            pc = block.start + offset
            writes = reg_mask(instr_writes(ins))
            if (
                writes
                and not writes & live
                and ins.op is not Op.FAA  # memory side effect matters
                and ins.op is not Op.JAL  # link write is the point
                and not ins.sync  # spin loads discard values by design
            ):
                written = ", ".join(
                    reg_name(slot) for slot in sorted(instr_writes(ins))
                    if 0 <= slot < NUM_REGS
                )
                report.add(_diag(
                    "df-dead-write", program,
                    f"{written} is written but never read afterwards",
                    pc=pc, block=index,
                ))
            live = (live & ~writes) | reg_mask(instr_reads(ins))


# ---------------------------------------------------------------------------
# paper-* rules
# ---------------------------------------------------------------------------

def _check_group_switch(cfg: LintCFG, report: LintReport) -> None:
    """Explicit/conditional-switch code: every shared-load group must be
    closed by a SWITCH before any destination register is read, and no
    group may leak past the end of its block."""
    program = cfg.program
    for index in range(len(cfg)):
        in_flight = 0
        last_pc = None
        for pc, ins in cfg.instructions_of(index):
            last_pc = pc
            hit = reg_mask(instr_reads(ins)) & in_flight
            if hit:
                names = ", ".join(
                    reg_name(slot)
                    for slot in range(NUM_REGS)
                    if hit & (1 << slot)
                )
                report.add(_diag(
                    "paper-group-switch", program,
                    f"{names} read while its shared load is still in "
                    "flight (no SWITCH since the load)",
                    pc=pc, block=index,
                ))
                in_flight &= ~hit
            if ins.op is Op.SWITCH:
                in_flight = 0
            elif ins.op in SHARED_LOADS:
                in_flight |= reg_mask(instr_writes(ins))
            else:
                # Overwriting an in-flight register retires the old value.
                in_flight &= ~reg_mask(instr_writes(ins))
        if in_flight:
            report.add(_diag(
                "paper-group-switch", program,
                f"block {index} ends with a shared-load group not closed "
                "by a SWITCH",
                pc=last_pc, block=index,
            ))


def _check_no_switches(program: Program, report: LintReport,
                       model: SwitchModel) -> None:
    for pc, ins in enumerate(program.instructions):
        if ins.op is Op.SWITCH:
            report.add(_diag(
                "paper-use-model-switch", program,
                f"SWITCH opcode in code prepared for {model.value}, "
                "which never executes explicit switches",
                pc=pc,
            ))


def _instr_key(ins: Instruction) -> Tuple:
    """Identity of one instruction for the permutation check.  Branch
    identity follows the symbolic label (indices shift when SWITCHes are
    inserted); raw targets only matter when no label exists."""
    return (
        ins.op,
        ins.rd,
        ins.rs1,
        ins.rs2,
        ins.imm,
        ins.label,
        ins.sync,
        ins.target if ins.label is None else -1,
    )


def check_transform(
    original: Program,
    prepared: Program,
    model: SwitchModel,
    report: LintReport,
) -> None:
    """paper-grouping-permutation: each prepared block must be a
    permutation of the matching original block (SWITCHes aside) that
    keeps every dependence edge of
    :func:`repro.compiler.dependence.block_dependences` pointing
    forward."""
    original_cfg = LintCFG(original)
    prepared_cfg = LintCFG(prepared)
    if len(original_cfg) != len(prepared_cfg):
        report.add(_diag(
            "paper-grouping-permutation", prepared,
            f"block count changed under grouping: {len(original_cfg)} "
            f"-> {len(prepared_cfg)}",
        ))
        return

    for index in range(len(original_cfg)):
        source = original_cfg.blocks[index].instructions
        result = [
            ins for ins in prepared_cfg.blocks[index].instructions
            if ins.op is not Op.SWITCH
        ]
        block_start = prepared_cfg.blocks[index].start

        # Multiset equality, via greedy in-order matching.  Identical
        # instructions carry WAW edges (or no edges at all), so matching
        # duplicates in order never mislabels a legal schedule.
        position_of: Dict[Tuple, List[int]] = {}
        for position, ins in enumerate(result):
            position_of.setdefault(_instr_key(ins), []).append(position)
        mapping: List[Optional[int]] = []
        matched = True
        for source_pc, ins in enumerate(source):
            bucket = position_of.get(_instr_key(ins))
            if bucket:
                mapping.append(bucket.pop(0))
            else:
                matched = False
                mapping.append(None)
                report.add(_diag(
                    "paper-grouping-permutation", prepared,
                    f"block {index}: `{render_asm(ins)}` from the "
                    "original block is missing after grouping",
                    pc=block_start, block=index,
                ))
        extras = [bucket for bucket in position_of.values() if bucket]
        for bucket in extras:
            matched = False
            for position in bucket:
                report.add(_diag(
                    "paper-grouping-permutation", prepared,
                    f"block {index}: `{render_asm(result[position])}` "
                    "appears in the grouped block but not the original",
                    pc=block_start + position, block=index,
                ))
        if not matched:
            continue  # ordering is meaningless without a bijection

        _preds, succs = block_dependences(source)
        for earlier, followers in enumerate(succs):
            for later in followers:
                if mapping[earlier] > mapping[later]:  # type: ignore[operator]
                    report.add(_diag(
                        "paper-grouping-permutation", prepared,
                        f"block {index}: dependence "
                        f"`{render_asm(source[earlier])}` -> "
                        f"`{render_asm(source[later])}` is reversed by "
                        "the grouped schedule",
                        pc=block_start + mapping[later], block=index,
                    ))


def _check_shared_store_race(cfg: LintCFG, report: LintReport) -> None:
    """Conservative race heuristic: a shared store should target an
    address derived from a thread-unique value (thread id or an FAA
    result), be part of the synchronisation runtime itself, or execute
    under a lock/barrier (dominated by a sync-marked FAA)."""
    program = cfg.program
    instructions = program.instructions

    # Flow-insensitive taint fixpoint: thread id and FAA results are
    # unique per thread; anything computed from them inherits uniqueness.
    tainted = 1 << TID_REG
    for ins in instructions:
        if ins.op is Op.FAA:
            tainted |= reg_mask(instr_writes(ins))
    changed = True
    while changed:
        changed = False
        for ins in instructions:
            writes = reg_mask(instr_writes(ins))
            if not writes or writes & tainted == writes:
                continue
            if reg_mask(instr_reads(ins)) & tainted:
                tainted |= writes
                changed = True

    # Blocks containing a sync-marked FAA (lock acquire / barrier entry).
    sync_faa_blocks = [
        index for index in range(len(cfg))
        if any(
            ins.op is Op.FAA and ins.sync
            for _pc, ins in cfg.instructions_of(index)
        )
    ]
    dom = dominator_masks(cfg)

    for index in range(len(cfg)):
        if not cfg.reachable[index]:
            continue
        guarded = any(
            dom[index] & (1 << sync_block)
            for sync_block in sync_faa_blocks
        )
        for pc, ins in cfg.instructions_of(index):
            if ins.op not in SHARED_STORES or ins.sync or guarded:
                continue
            if tainted & (1 << ins.rs1):
                continue
            report.add(_diag(
                "paper-shared-store-race", program,
                f"store address {reg_name(ins.rs1) if 0 <= ins.rs1 < NUM_REGS else ins.rs1} "
                "is not derived from a thread-unique value (tid or FAA) "
                "and no lock/barrier dominates this store",
                pc=pc, block=index,
            ))


# ---------------------------------------------------------------------------
# sync-* rules: lock/barrier safety over the runtime.sync idioms
# ---------------------------------------------------------------------------

#: How far (in instructions) a spin loop may sit after the sync FAA that
#: opened its lock/barrier.  The ``runtime.sync`` emitters place them 1
#: (ticket lock) and 7 (barrier: count bump, participation branch, and
#: the 4-instruction last-arrival arm) instructions apart.
_SYNC_FAA_SCAN = 10


def _sync_spin_blocks(cfg: LintCFG) -> List[Tuple[int, Op]]:
    """Blocks of the runtime's spin shape — a sync-marked shared load
    followed by a branch back onto it.  A BNE spin waits for a ticket
    lock's serving counter, a BEQ spin waits for a barrier's generation
    word (see :mod:`repro.runtime.sync`)."""
    found = []
    for index in range(len(cfg)):
        block = cfg.blocks[index]
        if len(block.instructions) != 2:
            continue
        load, branch = block.instructions
        if load.op not in (Op.LWS, Op.LDS) or not load.sync:
            continue
        if branch.op not in (Op.BNE, Op.BEQ):
            continue
        if branch.target != block.start:
            continue
        found.append((index, branch.op))
    return found


def _sync_events(cfg: LintCFG):
    """Classify every sync-marked FAA as a lock acquire or a barrier
    entry by the spin loop that follows it, and pair sync stores with the
    lock word they release.

    Returns ``(acquires, releases, barrier_blocks)`` where *acquires*
    maps ``pc -> identity``, *releases* maps ``pc -> identity`` and
    *barrier_blocks* is the set of blocks holding a barrier-entry FAA.
    Identity is the lock word's address when constant propagation can see
    it, else a conservative per-site key (so unrelated locks never
    merge, at the price of missing some aliases).
    """
    from repro.lint.predict import ProgramAnalysis

    analysis = ProgramAnalysis(cfg.program)
    instructions = cfg.program.instructions

    def word_identity(pc: int, base_reg: int, offset: int):
        base = analysis.const_at(pc, base_reg)
        if base is not None:
            return ("addr", base + offset)
        return ("site", base_reg, offset)

    claimed: Dict[int, Op] = {}
    for spin_index, branch_op in _sync_spin_blocks(cfg):
        start = cfg.blocks[spin_index].start
        for pc in range(start - 1, max(-1, start - 1 - _SYNC_FAA_SCAN), -1):
            ins = instructions[pc]
            if ins.op is Op.FAA and ins.sync:
                claimed.setdefault(pc, branch_op)
                break

    acquires: Dict[int, Tuple] = {}
    barrier_blocks: Set[int] = set()
    for pc, branch_op in claimed.items():
        ins = instructions[pc]
        if branch_op is Op.BNE:  # ticket lock: faa on the ticket word
            acquires[pc] = word_identity(pc, ins.rs1, ins.imm)
        else:  # barrier: faa on the arrival counter
            barrier_blocks.add(cfg.block_of_pc(pc))

    # A release stores the next ticket into the serving word, one past
    # the ticket word the acquire FAA bumped.
    releases: Dict[int, Tuple] = {}
    for pc, ins in enumerate(instructions):
        if ins.op in SHARED_STORES and ins.sync:
            releases[pc] = word_identity(pc, ins.rs1, ins.imm - 1)
    return acquires, releases, barrier_blocks


def _check_lock_discipline(cfg: LintCFG, report: LintReport) -> None:
    """sync-lock-order and sync-unreleased-lock: a forward may-held
    dataflow over the acquire/release events.  Held sets meet by union —
    a lock *possibly* held on some entry path is enough to order against
    or to leak at a HALT."""
    program = cfg.program
    acquires, releases, _barriers = _sync_events(cfg)
    if not acquires:
        return

    acquire_site: Dict[Tuple, int] = {}
    for pc, ident in acquires.items():
        acquire_site.setdefault(ident, pc)

    def transfer(held: frozenset, index: int) -> frozenset:
        current = set(held)
        for pc, ins in cfg.instructions_of(index):
            ident = acquires.get(pc)
            if ident is not None:
                for prior in current:
                    if prior != ident:
                        order_edges.setdefault((prior, ident), pc)
                current.add(ident)
            ident = releases.get(pc)
            if ident is not None:
                current.discard(ident)
        return frozenset(current)

    order_edges: Dict[Tuple[Tuple, Tuple], int] = {}
    held_in: List[frozenset] = [frozenset() for _ in range(len(cfg))]
    held_out: List[Optional[frozenset]] = [None] * len(cfg)
    work = [0] if len(cfg) else []
    while work:
        index = work.pop()
        out = transfer(held_in[index], index)
        if held_out[index] == out:
            continue
        held_out[index] = out
        for succ in cfg.succs[index]:
            merged = held_in[succ] | out
            if merged != held_in[succ]:
                held_in[succ] = merged
                work.append(succ)

    # sync-unreleased-lock: a HALT whose may-held set is non-empty.
    for index in range(len(cfg)):
        if not cfg.reachable[index]:
            continue
        current = set(held_in[index])
        for pc, ins in cfg.instructions_of(index):
            if ins.op is Op.HALT and current:
                sites = ", ".join(
                    f"pc {acquire_site[ident]}"
                    for ident in sorted(current, key=repr)
                    if ident in acquire_site
                )
                report.add(_diag(
                    "sync-unreleased-lock", program,
                    f"thread can halt while still holding "
                    f"{len(current)} lock(s) acquired at {sites} "
                    "(no release on this path)",
                    pc=pc, block=index,
                ))
            ident = acquires.get(pc)
            if ident is not None:
                current.add(ident)
            ident = releases.get(pc)
            if ident is not None:
                current.discard(ident)

    # sync-lock-order: an edge a->b means "b acquired while a held"; a
    # cycle in that graph is a deadlock-capable ordering.
    successors: Dict[Tuple, Set[Tuple]] = {}
    for (a, b) in order_edges:
        successors.setdefault(a, set()).add(b)

    def reaches(src: Tuple, dst: Tuple) -> bool:
        seen: Set[Tuple] = set()
        stack = [src]
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(successors.get(node, ()))
        return False

    for (a, b), pc in sorted(order_edges.items(), key=lambda kv: kv[1]):
        if reaches(b, a):
            report.add(_diag(
                "sync-lock-order", program,
                "lock acquired while holding the lock from "
                f"pc {acquire_site.get(a, '?')}; the reverse order also "
                "occurs, so two threads can deadlock",
                pc=pc, block=cfg.block_of_pc(pc),
            ))


def _taint_step(tainted: int, ins: Instruction) -> int:
    """One instruction of the thread-dependence taint transfer: FAA
    results are always thread-unique, loads never are (memory contents
    are not per-thread by mere addressing), and ALU results inherit
    taint from their inputs — writes from clean inputs *kill* taint, so
    a register reused for a uniform counter comes clean again."""
    writes = reg_mask(instr_writes(ins))
    if not writes:
        return tainted
    if ins.op is Op.FAA:
        return tainted | writes
    if OP_SIG[ins.op] is Sig.LOAD:
        return tainted & ~writes
    if reg_mask(instr_reads(ins)) & tainted:
        return tainted | writes
    return tainted & ~writes


def _thread_dependent_in_masks(cfg: LintCFG) -> List[int]:
    """Flow-sensitive may-taint at each block entry: registers whose
    value can differ across threads (thread id and anything computed
    from it or from an FAA result)."""
    count = len(cfg)
    taint_in = [0] * count
    taint_out: List[Optional[int]] = [None] * count
    if not count:
        return taint_in
    taint_in[0] = 1 << TID_REG
    work = [0]
    while work:
        index = work.pop()
        tainted = taint_in[index]
        for _pc, ins in cfg.instructions_of(index):
            tainted = _taint_step(tainted, ins)
        if taint_out[index] == tainted:
            continue
        taint_out[index] = tainted
        for succ in cfg.succs[index]:
            merged = taint_in[succ] | tainted
            if merged != taint_in[succ] or taint_out[succ] is None:
                taint_in[succ] = merged
                work.append(succ)
    return taint_in


def _check_barrier_participation(cfg: LintCFG, report: LintReport) -> None:
    """sync-barrier-participation: after a branch whose condition is
    thread-dependent, a barrier that one arm can reach but the other
    cannot means only a subset of threads would arrive — stranding them
    forever.  Comparing the two arms' reachable sets (rather than
    demanding postdominance) keeps barriers inside loops clean: from a
    loop-header branch both the body arm and the exit arm can reach a
    barrier in the body via the back edge, so participation stays
    symmetric."""
    program = cfg.program
    _acquires, _releases, barrier_blocks = _sync_events(cfg)
    if not barrier_blocks:
        return
    taint_in = _thread_dependent_in_masks(cfg)

    def reachable_from(start: int) -> Set[int]:
        seen: Set[int] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(cfg.succs[node])
        return seen

    for index in range(len(cfg)):
        if not cfg.reachable[index]:
            continue
        term = cfg.blocks[index].terminator
        if term is None or OP_SIG[term.op] is not Sig.BR2:
            continue
        arms = sorted(set(cfg.succs[index]))
        if len(arms) < 2:
            continue
        tainted = taint_in[index]
        for _pc, ins in cfg.instructions_of(index):
            if ins is term:
                break
            tainted = _taint_step(tainted, ins)
        if not (tainted & reg_mask((term.rs1, term.rs2))):
            continue
        arm_reach = [reachable_from(arm) & barrier_blocks for arm in arms]
        asymmetric = set().union(*arm_reach) - set.intersection(*arm_reach)
        for barrier_block in sorted(asymmetric):
            branch_pc = (
                cfg.blocks[index].start
                + len(cfg.blocks[index].instructions) - 1
            )
            report.add(_diag(
                "sync-barrier-participation", program,
                "threads diverge on a thread-dependent condition and "
                f"only one arm reaches the barrier in block "
                f"{barrier_block}; skipping threads would strand the "
                "arriving ones",
                pc=branch_pc, block=index,
            ))


# ---------------------------------------------------------------------------
# advisor
# ---------------------------------------------------------------------------

def _check_group_advice(cfg: LintCFG, report: LintReport) -> None:
    """advice-group-loads: on *original* code bound for a grouping model,
    point out blocks where independent shared loads are separated by
    unrelated work — exactly the situation Section 5.1 grouping fixes —
    and quantify the static run-length gain."""
    from repro.isa.opcodes import instruction_cost

    program = cfg.program
    for index in range(len(cfg)):
        if not cfg.reachable[index]:
            continue
        instrs = list(cfg.instructions_of(index))
        loads = [
            (position, pc, ins)
            for position, (pc, ins) in enumerate(instrs)
            if ins.op in (Op.LWS, Op.LDS) and not ins.sync
        ]
        if len(loads) < 2:
            continue
        groupable_pc = None
        for (pos_a, _pc_a, load_a), (pos_b, pc_b, load_b) in zip(
            loads, loads[1:]
        ):
            if pos_b == pos_a + 1:
                continue  # already adjacent
            between = [ins for _pc, ins in instrs[pos_a + 1:pos_b]]
            dest = set(instr_writes(load_a))
            if any(
                set(instr_reads(ins)) & dest
                or set(instr_writes(ins)) & set(instr_reads(load_b))
                or ins.op is Op.SWITCH
                or ins.op in SHARED_LOADS
                for ins in between
            ):
                continue  # dependence (or another switch point) between
            if set(instr_reads(load_b)) & dest:
                continue  # the second load needs the first's result
            groupable_pc = pc_b
            break
        if groupable_pc is None:
            continue
        # Static run lengths inside this block: cut at every shared load
        # now, versus one cut for the whole grouped block.
        costs = [
            0 if ins.op is Op.HALT else instruction_cost(ins.op)
            for _pc, ins in instrs
        ]
        segments: List[int] = []
        run = 0
        for position, cost in enumerate(costs):
            run += cost
            if instrs[position][1].op in SHARED_LOADS:
                segments.append(run)
                run = 0
        before = (
            sum(segments) // len(segments) if segments else sum(costs)
        )
        after = sum(costs)
        report.add(_diag(
            "advice-group-loads", program,
            f"block {index} issues {len(loads)} independent shared "
            "loads separated by unrelated work; grouping raises the "
            f"static run length {max(1, before)}→{max(1, after)}",
            pc=groupable_pc, block=index,
        ))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_rules(
    program: Program,
    model: Optional[SwitchModel],
    report: LintReport,
    prepared: bool = False,
) -> LintReport:
    """Run every applicable single-program rule over *program*.

    *prepared* marks the program as the output of
    :func:`repro.compiler.passes.prepare_for_model` for *model* — it
    enables the model-specific paper rules.
    """
    report.instructions = len(program.instructions)
    targets_ok = _check_instruction_shapes(program, report)
    if not targets_ok:
        # Corrupt targets make block discovery meaningless; the
        # syntactic findings above already carry the error.
        return report
    cfg = LintCFG(program)
    report.blocks = len(cfg)
    _check_structure(cfg, report)
    _check_dataflow(cfg, report)
    _check_shared_store_race(cfg, report)
    _check_lock_discipline(cfg, report)
    _check_barrier_participation(cfg, report)
    if prepared and model is not None:
        if model.wants_switch_instructions:
            _check_group_switch(cfg, report)
        else:
            _check_no_switches(program, report, model)
    elif model is not None and model.wants_grouped_code:
        _check_group_advice(cfg, report)
    return report
