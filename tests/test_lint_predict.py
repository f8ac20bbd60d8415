"""Unit tests for the static performance predictor (repro.lint.predict)."""

import pytest

from repro.isa import assemble
from repro.isa.builder import ProgramBuilder
from repro.isa.registers import reg_index
from repro.lint import (
    ModelPrediction,
    ProgramAnalysis,
    call_graph,
    predict_prepared,
    predict_program,
    predict_spec_cached,
)
from repro.machine.models import SwitchModel

STRAIGHT = """
    li r1, 1
    addi r1, r1, 2
    halt
"""


def straight():
    return assemble(STRAIGHT)


# -- program analysis --------------------------------------------------------


def test_const_propagation_tracks_immediates():
    program = assemble(
        """
        li r1, 7
        addi r2, r1, 3
        add r3, r2, r1
        halt
        """
    )
    analysis = ProgramAnalysis(program)
    r1, r2 = reg_index("r1"), reg_index("r2")
    assert analysis.const_at(1, r1) == 7
    assert analysis.const_at(2, r2) == 10
    # Before its own li, r1 is unknown.
    assert analysis.const_at(0, r1) is None


def test_for_range_trip_count_inferred():
    b = ProgramBuilder()
    i = b.int_reg("i")
    acc = b.int_reg("acc")
    b.li(acc, 0)
    with b.for_range(i, 0, 4):
        b.addi(acc, acc, 1)
    b.halt()
    analysis = ProgramAnalysis(b.build("counted"))
    assert len(analysis.loops) == 1
    assert analysis.loops[0].trips == 4


def test_nested_loops_multiply_execution_bounds():
    b = ProgramBuilder()
    i = b.int_reg("i")
    j = b.int_reg("j")
    acc = b.int_reg("acc")
    b.li(acc, 0)
    with b.for_range(i, 0, 3):
        with b.for_range(j, 0, 2):
            b.addi(acc, acc, 1)
    b.halt()
    analysis = ProgramAnalysis(b.build("nested"))
    trips = sorted(loop.trips for loop in analysis.loops)
    assert trips == [2, 3]
    # The inner body runs at most 3 * 2 = 6 times; some block in the
    # program must carry exactly that bound.
    assert max(
        x for x in analysis.max_exec if x != float("inf")
    ) >= 6


def test_data_dependent_loop_is_unbounded():
    program = assemble(
        """
    spin:
        lws r1, 0(r2)
        bne r1, r0, spin
        halt
        """
    )
    analysis = ProgramAnalysis(program)
    assert len(analysis.loops) == 1
    assert analysis.loops[0].trips is None
    header = analysis.loops[0].header
    assert analysis.max_exec[header] == float("inf")


def test_write_to_r0_keeps_r0_zero():
    """The machine discards writes to r0, so the loop below counts r1
    down to 0 and its block runs 10 times; a predictor that believed
    ``li r0, 7`` would bound it by 4."""
    program = assemble(
        """
        li r0, 7
        li r1, 10
    loop:
        addi r1, r1, -1
        bgt r1, r0, loop
        halt
        """
    )
    analysis = ProgramAnalysis(program)
    assert analysis.const_at(1, reg_index("r0")) == 0
    assert [loop.trips for loop in analysis.loops] == [10]
    assert analysis.max_exec[analysis.cfg.block_of_pc(2)] >= 10


# -- per-model bounds --------------------------------------------------------


def test_ideal_straight_line_bounds_are_exact():
    pred = predict_prepared(straight(), SwitchModel.IDEAL, latency=0)
    assert pred.switch_min == 0
    assert pred.switch_max == 0
    assert pred.run_min == pred.run_max
    assert pred.utilization_bound == 1.0
    assert pred.static_switch_sites == 0


def test_switch_every_cycle_pins_run_length_to_one():
    pred = predict_prepared(
        straight(), SwitchModel.SWITCH_EVERY_CYCLE, latency=200
    )
    assert pred.run_min == 1
    assert pred.run_max == 1
    assert pred.switch_min > 0


def test_unbounded_loop_gives_unbounded_run_max_on_ideal():
    program = assemble(
        """
    spin:
        addi r1, r1, 1
        bne r1, r2, spin
        halt
        """
    )
    pred = predict_prepared(program, SwitchModel.IDEAL, latency=0)
    assert pred.run_max is None


def test_switch_counts_scale_with_thread_count():
    one = predict_prepared(
        straight(), SwitchModel.SWITCH_EVERY_CYCLE,
        latency=200, processors=1, level=1,
    )
    four = predict_prepared(
        straight(), SwitchModel.SWITCH_EVERY_CYCLE,
        latency=200, processors=2, level=2,
    )
    assert four.switch_min == 4 * one.switch_min
    assert four.switch_max == 4 * one.switch_max


def test_run_bins_are_a_distribution():
    b = ProgramBuilder()
    i = b.int_reg("i")
    v = b.int_reg("v")
    with b.for_range(i, 0, 8):
        b.lws(v, "args", 0)
        b.add(v, v, v)
    b.halt()
    pred = predict_prepared(
        b.build("loads"), SwitchModel.SWITCH_ON_LOAD, latency=64
    )
    total = sum(pred.run_bins.values())
    assert total == pytest.approx(1.0)
    assert all(0.0 <= share <= 1.0 for share in pred.run_bins.values())
    assert pred.mean_run_estimate > 0


def test_to_dict_round_trips_every_field():
    pred = predict_prepared(straight(), SwitchModel.IDEAL, latency=0)
    data = pred.to_dict()
    for field in (
        "model", "run_min", "run_max", "switch_min", "switch_max",
        "utilization_bound", "efficiency_bound", "run_bins",
        "mean_run_estimate", "static_switch_sites", "prepared_program",
    ):
        assert field in data
    assert data["model"] == "ideal"


# -- call graph --------------------------------------------------------------


def test_call_graph_summarises_jal_targets():
    program = assemble(
        """
        jal sub
        jal sub
        halt
    sub:
        addi r1, r1, 1
        jr r31
        """
    )
    graph = call_graph(program)
    assert graph["indirect_exits"] == []
    assert len(graph["functions"]) == 1
    func = graph["functions"][0]
    assert func["entry_pc"] == 3
    assert func["label"] == "sub"
    assert func["callers"] == [0, 1]
    assert func["instructions"] == 2
    assert func["shared_loads"] == 0
    assert func["busy_cost"] > 0


def test_call_graph_counts_shared_loads_in_body():
    program = assemble(
        """
        jal fetch
        halt
    fetch:
        lws r1, 0(r2)
        jr r31
        """
    )
    graph = call_graph(program)
    assert graph["functions"][0]["shared_loads"] == 1


def test_call_graph_flags_indirect_exits():
    program = assemble(
        """
        li r1, 1
        jr r31
        halt
        """
    )
    graph = call_graph(program)
    assert graph["functions"] == []
    assert graph["indirect_exits"]


# -- top-level entry points --------------------------------------------------


def test_predict_program_covers_all_models():
    prediction = predict_program(straight(), latency=200)
    assert set(prediction.models) == {m.value for m in SwitchModel}
    # Ideal is always predicted at latency zero, matching every
    # execution path in the repo.
    ideal = prediction.models["ideal"]
    assert ideal.switch_max == 0
    data = prediction.to_dict()
    assert data["latency"] == 200
    assert set(data["models"]) == set(prediction.models)


def test_predict_spec_cached_returns_model_prediction():
    pred = predict_spec_cached(
        "sieve", "explicit-switch", 2, 2, "tiny", 200
    )
    assert isinstance(pred, ModelPrediction)
    assert pred.model == "explicit-switch"
    assert pred.run_min >= 1
    # Memoised: the same key returns the identical object.
    again = predict_spec_cached(
        "sieve", "explicit-switch", 2, 2, "tiny", 200
    )
    assert again is pred
