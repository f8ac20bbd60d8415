"""Property-based tests (hypothesis) on the core invariants.

The heavyweight one is *grouping preserves semantics*: for random
straight-line programs over the full ISA subset the scheduler may touch,
the grouped code must leave registers and both memories exactly as the
original does.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st, HealthCheck

from repro.isa import Instruction, Op, Program, assemble, disassemble
from repro.isa.instruction import instr_reads, instr_writes
from repro.isa.registers import reg_index, reg_name, NUM_REGS
from repro.compiler import group_block, group_program
from repro.machine import SwitchModel
from repro.machine.config import NetworkConfig
from repro.machine.stats import SimStats
from repro.runtime import SharedLayout
from sim_helpers import run_program

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Registers the generated programs use (small int file, disjoint scratch).
_REGS = st.integers(min_value=1, max_value=7)
_ADDRS = st.integers(min_value=0, max_value=15)
_IMMS = st.integers(min_value=-64, max_value=64)


@st.composite
def straight_line_instruction(draw):
    kind = draw(
        st.sampled_from(
            ["alu", "alui", "li", "lws", "sws", "lds", "sds", "faa", "lwl", "swl"]
        )
    )
    rd = draw(_REGS)
    rs1 = draw(_REGS)
    rs2 = draw(_REGS)
    addr = draw(_ADDRS)
    if kind == "alu":
        op = draw(st.sampled_from([Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLT]))
        return Instruction(op, rd=rd, rs1=rs1, rs2=rs2)
    if kind == "alui":
        op = draw(st.sampled_from([Op.ADDI, Op.ANDI, Op.ORI, Op.SLTI]))
        return Instruction(op, rd=rd, rs1=rs1, imm=draw(_IMMS))
    if kind == "li":
        return Instruction(Op.LI, rd=rd, imm=draw(_IMMS))
    if kind == "lws":
        return Instruction(Op.LWS, rd=rd, rs1=0, imm=addr)
    if kind == "sws":
        return Instruction(Op.SWS, rs1=0, rs2=rs2, imm=addr)
    if kind == "lds":
        return Instruction(Op.LDS, rd=min(rd, 6), rs1=0, imm=addr)
    if kind == "sds":
        return Instruction(Op.SDS, rs1=0, rs2=min(rs2, 6), imm=addr)
    if kind == "faa":
        return Instruction(Op.FAA, rd=rd, rs1=0, rs2=rs2, imm=addr)
    if kind == "lwl":
        return Instruction(Op.LWL, rd=rd, rs1=0, imm=addr)
    return Instruction(Op.SWL, rs1=0, rs2=rs2, imm=addr)


def _architectural_state(program: Program, model: SwitchModel):
    shared = [(7 * i + 3) % 11 for i in range(32)]
    result = run_program(
        program.copy(), shared=shared, model=model, latency=200, local_size=32
    )
    thread = result.threads[0]
    return thread.regs[:8], result.shared, thread.local


@settings(**_SETTINGS)
@given(st.lists(straight_line_instruction(), min_size=1, max_size=14))
def test_grouping_preserves_semantics(instructions):
    body = list(instructions) + [Instruction(Op.HALT)]
    program = Program(body).finalize()
    grouped_block = group_block(program.instructions[:-1])
    grouped = Program(grouped_block + [Instruction(Op.HALT)]).finalize()

    for model in (SwitchModel.SWITCH_ON_LOAD, SwitchModel.EXPLICIT_SWITCH):
        code = program if model is SwitchModel.SWITCH_ON_LOAD else grouped
        reference = _architectural_state(program, SwitchModel.SWITCH_ON_LOAD)
        outcome = _architectural_state(code, model)
        assert outcome == reference


@settings(**_SETTINGS)
@given(st.lists(straight_line_instruction(), min_size=1, max_size=12))
def test_grouping_emits_permutation_plus_switches(instructions):
    scheduled = group_block(instructions)
    original = Counter(ins.to_asm() for ins in instructions)
    emitted = Counter(
        ins.to_asm() for ins in scheduled if ins.op is not Op.SWITCH
    )
    assert emitted == original


@settings(**_SETTINGS)
@given(st.lists(straight_line_instruction(), min_size=1, max_size=12))
def test_grouping_is_dependence_preserving_permutation(instructions):
    """Beyond multiset equality: the grouped schedule must keep every
    dependence edge of the original block pointing forward."""
    from repro.compiler.dependence import block_dependences

    scheduled = [
        ins for ins in group_block(list(instructions))
        if ins.op is not Op.SWITCH
    ]
    # Match original positions onto scheduled positions (greedy in-order
    # over identical renderings — duplicates carry WAW edges, so order
    # among them is itself constrained).
    remaining = {}
    for position, ins in enumerate(scheduled):
        remaining.setdefault(ins.to_asm(), []).append(position)
    mapping = [remaining[ins.to_asm()].pop(0) for ins in instructions]
    assert sorted(mapping) == list(range(len(instructions)))

    _preds, succs = block_dependences(list(instructions))
    for earlier, followers in enumerate(succs):
        for later in followers:
            assert mapping[earlier] < mapping[later], (
                f"dependence {earlier}->{later} reversed: "
                f"{instructions[earlier].to_asm()} vs "
                f"{instructions[later].to_asm()}"
            )


@settings(**_SETTINGS)
@given(st.lists(straight_line_instruction(), min_size=1, max_size=12))
def test_lint_permutation_rule_agrees_with_direct_check(instructions):
    """The repro.lint cross-check reaches the same verdict on the real
    grouping pass: zero permutation findings for any generated block."""
    from repro.lint import lint_pair

    body = list(instructions) + [Instruction(Op.HALT)]
    original = Program(body).finalize()
    prepared = group_program(original)
    report = lint_pair(original, prepared, SwitchModel.EXPLICIT_SWITCH)
    # No errors at all (an error would skip the cross-check silently).
    assert report.ok, report.render()
    assert report.by_rule("paper-grouping-permutation") == [], report.render()


@settings(**_SETTINGS)
@given(st.lists(straight_line_instruction(), min_size=1, max_size=12))
def test_assembler_round_trip(instructions):
    program = Program(list(instructions) + [Instruction(Op.HALT)]).finalize()
    again = assemble(disassemble(program))
    assert [i.to_asm() for i in again] == [i.to_asm() for i in program]


@settings(**_SETTINGS)
@given(
    st.lists(
        st.tuples(st.sampled_from(["lws", "lds", "sws", "faa"]), _ADDRS, _IMMS),
        min_size=1,
        max_size=16,
    )
)
def test_cached_machine_equals_flat_memory(accesses):
    """A single thread's access sequence through cache+directory must
    leave memory exactly as direct execution does, and loads must return
    the same values."""
    lines = []
    out = 0
    for kind, addr, value in accesses:
        if kind == "lws":
            lines += [f"lws r1, {addr}(r0)", f"swl r1, {out}(r0)"]
            out += 1
        elif kind == "lds":
            lines += [f"lds r2, {addr}(r0)", f"swl r2, {out}(r0)"]
            out += 1
        elif kind == "sws":
            lines += [f"li r1, {value}", f"sws r1, {addr}(r0)"]
        else:
            lines += [f"li r1, {value}", f"faa r2, {addr}(r0), r1"]
    asm = "\n".join(lines) + "\nhalt\n"
    program = assemble(asm)
    shared = [(5 * i + 1) % 9 for i in range(24)]
    ideal = run_program(program.copy(), shared=list(shared), model=SwitchModel.IDEAL)
    cached = run_program(
        program.copy(),
        shared=list(shared),
        model=SwitchModel.CONDITIONAL_SWITCH,
        latency=200,
    )
    assert cached.shared == ideal.shared
    assert cached.threads[0].local == ideal.threads[0].local


@settings(**_SETTINGS)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=4),
)
def test_faa_sum_preserved_across_threads(addends, threads):
    body = []
    for index, amount in enumerate(addends):
        body.append(f"li r1, {amount}")
        body.append("faa r2, 0(r0), r1")
    asm = "\n".join(body) + "\nhalt\n"
    result = run_program(
        assemble(asm),
        shared=[0] * 8,
        model=SwitchModel.SWITCH_ON_LOAD,
        threads=threads,
        latency=200,
    )
    assert result.shared[0] == sum(addends) * threads


@settings(**_SETTINGS)
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=0, max_size=40))
def test_run_length_fractions_partition(lengths):
    stats = SimStats(1, NetworkConfig())
    for length in lengths:
        stats.record_run(length)
    fractions = stats.run_length_fractions([1, 2, 5, 10, 100])
    if lengths:
        assert sum(fractions.values()) == pytest.approx(1.0)
    else:
        assert sum(fractions.values()) == 0.0


@settings(**_SETTINGS)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=40), st.booleans()),
        min_size=1,
        max_size=12,
        unique_by=lambda pair: pair,
    )
)
def test_layout_regions_never_overlap(sizes):
    layout = SharedLayout()
    spans = []
    for index, (size, single) in enumerate(sizes):
        if single:
            base = layout.word(f"w{index}")
            spans.append((base, base + 1))
        else:
            base = layout.alloc(f"r{index}", size)
            spans.append((base, base + size))
    spans.sort()
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start
    image = layout.build_image()
    assert len(image) == layout.total_words


@settings(**_SETTINGS)
@given(st.integers(min_value=0, max_value=NUM_REGS - 1))
def test_register_name_round_trip(slot):
    assert reg_index(reg_name(slot)) == slot


@settings(**_SETTINGS)
@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000).filter(lambda v: v != 0),
)
def test_division_matches_c_semantics(a, b):
    asm = f"""
        li r1, {a}
        li r2, {b}
        div r3, r1, r2
        rem r4, r1, r2
        swl r3, 0(r0)
        swl r4, 1(r0)
        halt
    """
    result = run_program(assemble(asm))
    quotient, remainder = result.threads[0].local[:2]
    assert quotient == int(a / b)  # trunc toward zero
    assert remainder == a - quotient * b
    assert quotient * b + remainder == a


@settings(**_SETTINGS)
@given(st.lists(straight_line_instruction(), min_size=1, max_size=10))
def test_def_use_sets_cover_register_effects(instructions):
    """Executing an instruction must only change registers it declares."""
    program = Program(list(instructions) + [Instruction(Op.HALT)]).finalize()
    shared = [1] * 32
    # Pin the loader's convention registers to zero so only the program's
    # own writes can change the register file.
    result = run_program(
        program, shared=shared, local_size=32, regs=[{4: 0, 5: 0}]
    )
    # build the set of declared destinations
    declared = set()
    for ins in instructions:
        declared.update(instr_writes(ins))
    regs = result.threads[0].regs
    for slot in range(1, 8):
        if slot not in declared:
            assert regs[slot] == 0, f"r{slot} changed without being written"


# -- component-lifecycle trajectories (DESIGN §5i) -------------------------------

from repro.faults import FaultConfig, LifecycleConfig
from repro.faults.lifecycle import (
    DEGRADED,
    FAILED,
    HEALTHY,
    LifecyclePlan,
    REPAIRING,
)

lifecycle_configs = st.builds(
    LifecycleConfig,
    components=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mean_healthy=st.integers(min_value=0, max_value=5_000),
    mean_degraded=st.integers(min_value=0, max_value=3_000),
    mean_failed=st.integers(min_value=0, max_value=1_500),
    mean_repair=st.integers(min_value=0, max_value=1_500),
    degrade_stages=st.integers(min_value=1, max_value=3),
    degraded_scale=st.floats(
        min_value=1.0, max_value=3.0, allow_nan=False, allow_infinity=False
    ),
    degraded_shift=st.integers(min_value=0, max_value=50),
)


@given(
    config=lifecycle_configs,
    times=st.lists(
        st.integers(min_value=0, max_value=100_000), min_size=1, max_size=20
    ),
)
@settings(**_SETTINGS)
def test_lifecycle_trajectory_is_a_pure_function(config, times):
    """Two independently built plans agree at every sampled cycle even
    when queried in opposite orders — the schedule is a pure function of
    (seed, component, cycle), never of query history."""
    forward, backward = LifecyclePlan(config), LifecyclePlan(config)
    states = {
        (comp, t): forward.state_at(comp, t)
        for comp in range(config.components)
        for t in times
    }
    for (comp, t) in reversed(list(states)):
        assert backward.state_at(comp, t) == states[(comp, t)]
        state, stage = states[(comp, t)]
        assert state in (HEALTHY, DEGRADED, FAILED, REPAIRING)
        assert (1 <= stage <= config.degrade_stages) == (state == DEGRADED)


@given(
    config=lifecycle_configs,
    wall=st.integers(min_value=1, max_value=100_000),
)
@settings(**_SETTINGS)
def test_lifecycle_availability_accounts_every_cycle(config, wall):
    plan = LifecyclePlan(config)
    ledger = plan.availability(wall)
    assert len(ledger) == config.components
    for comp in ledger:
        assert (
            comp["uptime_cycles"]
            + comp["downtime_cycles"]
            + comp["repair_cycles"]
            == wall
        )
        assert 0 <= comp["degraded_cycles"] <= comp["uptime_cycles"]
        assert comp["failures"] >= comp["repairs"] >= comp["failures"] - 1


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_degradation_scenario_is_identical_everywhere(seed):
    """The acceptance property: any fixed-seed degradation scenario
    serializes identically at 1 vs 2 workers, cache cold vs warm, and on
    the interpreter vs the compiled backend."""
    import tempfile

    from repro.check import replay_check
    from repro.engine import RunSpec

    faults = FaultConfig(
        lifecycle=LifecycleConfig(
            components=2,
            seed=seed,
            mean_healthy=2_000,
            mean_degraded=1_000,
            mean_failed=500,
            mean_repair=700,
        )
    )
    spec = RunSpec(
        app="sieve",
        model="explicit-switch",
        processors=2,
        level=2,
        scale="tiny",
        overrides=(("faults", faults),),
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        canonical = replay_check(
            spec,
            workers=(1, 2),
            cache_dir=cache_dir,
            backends=("interpreter", "compiled"),
        )
    assert '"component_availability"' in canonical


# -- synthetic-kernel generator (repro.synth) ----------------------------------

_SYNTH_CONFIGS = st.builds(
    dict,
    segments=st.integers(min_value=1, max_value=5),
    shared_load_density=st.floats(min_value=0.0, max_value=1.0),
    max_group=st.integers(min_value=1, max_value=6),
    branchiness=st.floats(min_value=0.0, max_value=1.0),
    loop_depth=st.integers(min_value=0, max_value=2),
    faa_weight=st.floats(min_value=0.0, max_value=1.0),
    sync=st.sampled_from(["none", "lock", "barrier", "mixed"]),
    region_words=st.sampled_from([8, 16, 32]),
)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       raw=_SYNTH_CONFIGS)
def test_synth_generator_is_seed_deterministic(seed, raw):
    """Same (seed, config) => byte-identical plan, program and image."""
    from repro.synth import SynthConfig, build_synth_app, generate_plan
    from repro.synth.generator import program_fingerprint

    config = SynthConfig(**raw)
    first_plan = generate_plan(seed, config)
    second_plan = generate_plan(seed, config)
    assert first_plan == second_plan
    first = build_synth_app(first_plan, 4)
    second = build_synth_app(second_plan, 4)
    assert program_fingerprint(first.program) == program_fingerprint(
        second.program
    )
    assert first.shared == second.shared


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**16), raw=_SYNTH_CONFIGS)
def test_synth_kernels_lint_clean_by_construction(seed, raw):
    """Sampled across the config space, every generated kernel passes
    repro.lint with zero diagnostics for every switch model."""
    from repro.compiler.passes import prepare_for_model
    from repro.lint import lint_pair
    from repro.synth import SynthConfig, generate_app

    app = generate_app(seed, SynthConfig(**raw), nthreads=4)
    for model in SwitchModel:
        prepared = prepare_for_model(app.program, model)
        report = lint_pair(app.program, prepared, model)
        assert not report.diagnostics, (
            f"{model.value}: {[d.render() for d in report.diagnostics]}"
        )
