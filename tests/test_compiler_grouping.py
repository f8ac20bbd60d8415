"""The load-grouping scheduler (Section 5.1)."""

from repro.isa import assemble, Op
from repro.compiler import group_block, group_program, GroupingReport
from repro.compiler.passes import strip_switches, prepare_for_model, grouping_report
from repro.machine.models import SwitchModel
from sim_helpers import run_program

SOR_STYLE = """
    lws  f2, 0(r9)
    fadd f7, f2, f2
    lws  f3, 1(r9)
    fadd f7, f7, f3
    lws  f4, 2(r9)
    fadd f7, f7, f4
    sws  f7, 3(r9)
    halt
"""


def asm_block(asm: str):
    """Assemble a snippet and return its body without the final HALT."""
    if "halt" not in asm:
        asm = asm + "\nhalt\n"
    return assemble(asm).instructions[:-1]


def ops(instrs):
    return [ins.op for ins in instrs]


def test_independent_loads_form_one_group():
    report = GroupingReport()
    scheduled = group_block(asm_block(SOR_STYLE), report)
    sequence = ops(scheduled)
    # Three loads first, one SWITCH, then the arithmetic, then the store.
    assert sequence[:4] == [Op.LWS, Op.LWS, Op.LWS, Op.SWITCH]
    assert report.groups == 1
    assert report.shared_loads == 3
    assert report.grouping_factor == 3.0


def test_dependent_loads_stay_separate():
    block = asm_block(
        """
        lws r1, 0(r9)
        lws r2, 0(r1)
        halt
        """.replace("halt", "nop")
    )
    report = GroupingReport()
    scheduled = group_block(block, report)
    # Pointer chase: address of the second load depends on the first.
    assert report.groups == 2
    assert ops(scheduled).count(Op.SWITCH) == 2


def test_store_blocks_group_growth():
    block = asm_block(
        """
        lws r1, 0(r9)
        sws r1, 1(r9)
        lws r2, 2(r9)
        nop
        """
    )
    report = GroupingReport()
    group_block(block, report)
    # The store conflicts with the later load (pessimistic aliasing), so
    # the loads cannot merge into one group.
    assert report.groups == 2


def test_faa_forms_its_own_group():
    block = asm_block(
        """
        lws r1, 0(r9)
        faa r2, 1(r9), r3
        lws r4, 2(r9)
        nop
        """
    )
    report = GroupingReport()
    group_block(block, report)
    assert report.groups == 3


def test_address_arithmetic_hoisted_to_enable_grouping():
    block = asm_block(
        """
        lws  r1, 0(r9)
        addi r8, r9, 16
        lws  r2, 0(r8)
        nop
        """
    )
    report = GroupingReport()
    scheduled = group_block(block, report)
    sequence = ops(scheduled)
    # The addi is load-enabling: it is hoisted into the group region so
    # both loads issue before the single SWITCH.
    assert report.groups == 1
    assert sequence.index(Op.SWITCH) > max(
        i for i, op in enumerate(sequence) if op is Op.LWS
    )
    assert sequence.count(Op.SWITCH) == 1


def test_terminator_stays_last():
    block = assemble(
        """
    top:
        lws r1, 0(r9)
        bne r1, r0, top
        halt
        """
    ).instructions[:2]
    scheduled = group_block(block)
    assert scheduled[-1].op is Op.BNE


def test_block_without_loads_unchanged():
    block = asm_block("add r1, r2, r3\nswl r1, 0(r9)\nnop")
    scheduled = group_block(block)
    assert ops(scheduled) == ops(block)


def test_spin_loads_keep_sync_mark_on_switch():
    block = asm_block("lws r1, 0(r9) ; sync\nnop")
    scheduled = group_block(block)
    switch = [ins for ins in scheduled if ins.op is Op.SWITCH][0]
    assert switch.sync


def test_grouping_preserves_semantics_sor_style():
    program = assemble(SOR_STYLE)
    grouped = group_program(program)
    shared = [2.0, 3.0, 4.0, 0.0] + [0.0] * 12
    regs = [{9: 0}]
    plain = run_program(program, shared=list(shared), regs=[dict(r) for r in regs])
    fancy = run_program(grouped, shared=list(shared), regs=[dict(r) for r in regs])
    assert plain.shared == fancy.shared


def test_group_program_reports_and_names():
    program = assemble(SOR_STYLE)
    grouped = group_program(program)
    assert grouped.name.endswith("+grouped")
    report = grouping_report(program)
    assert report.groups == grouped.switch_count()


def test_strip_switches():
    program = assemble(SOR_STYLE)
    grouped = group_program(program)
    stripped = strip_switches(grouped)
    assert stripped.switch_count() == 0
    assert stripped.shared_load_count() == grouped.shared_load_count()


def test_strip_switches_suffix_rename_and_legacy_alias():
    from repro.compiler import LEGACY_STRIPPED_SUFFIX, STRIPPED_SUFFIX

    assert STRIPPED_SUFFIX == "-noswitch"
    assert LEGACY_STRIPPED_SUFFIX == "-switch"  # the pre-rename spelling
    program = assemble(SOR_STYLE)
    stripped = strip_switches(group_program(program))
    assert stripped.name.endswith(STRIPPED_SUFFIX)
    legacy = strip_switches(group_program(program),
                            name_suffix=LEGACY_STRIPPED_SUFFIX)
    assert legacy.name.endswith("-switch")


def test_suffix_rename_left_cache_keys_unchanged():
    """Program names are cosmetic: neither the spec key nor the machine
    config key may move when the stripped-code suffix changes.  The spec
    key, which the result cache uses, was recorded *before* the rename.
    The config key hashes every config field, so it was re-recorded when
    ``oracle_line_words`` and ``record_timeline`` left the config."""
    from repro.engine import RunSpec
    from repro.machine import MachineConfig, SwitchModel

    spec = RunSpec(app="sieve", model="switch-on-use", processors=2,
                   level=4, scale="tiny")
    assert spec.key() == "225330b90f6c27ab2d4cd00c77c47b0b"
    config = MachineConfig(model=SwitchModel.SWITCH_ON_USE,
                           num_processors=2, threads_per_processor=4)
    assert config.config_key() == "f98d12e970046511"


def test_prepare_for_model_mapping():
    program = assemble(SOR_STYLE)
    assert prepare_for_model(program, SwitchModel.SWITCH_ON_LOAD) is program
    assert prepare_for_model(program, SwitchModel.SWITCH_ON_MISS) is program
    grouped = prepare_for_model(program, SwitchModel.EXPLICIT_SWITCH)
    assert grouped.switch_count() > 0
    use_code = prepare_for_model(program, SwitchModel.SWITCH_ON_USE)
    assert use_code.switch_count() == 0


def test_grouping_across_blocks_does_not_happen():
    # Intra-block only: loads in different blocks stay in different groups.
    program = assemble(
        """
        lws r1, 0(r9)
        beq r1, r0, other
        lws r2, 1(r9)
    other:
        halt
        """
    )
    grouped = group_program(program)
    assert grouped.switch_count() == 2


def test_grouping_is_deterministic():
    program = assemble(SOR_STYLE)
    a = group_program(program)
    b = group_program(program)
    assert [i.to_asm() for i in a] == [i.to_asm() for i in b]
