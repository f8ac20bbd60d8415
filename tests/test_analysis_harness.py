"""Analysis helpers and the experiment harness (tiny scale)."""

import pytest

from repro.analysis import (
    TextTable,
    run_length_row,
    single_thread_cycles,
    bandwidth_row,
)
from repro.analysis.runlength import format_row_cells, RUN_BIN_LABELS
from repro.apps import get_app
from repro.compiler.interblock import oracle_config, estimate
from repro.harness import ExperimentContext
from repro.harness.sizes import scale_sizes, SCALES
from repro.harness import tables as T
from repro.harness import figures as F
from repro.machine import MachineConfig, SwitchModel
from repro.harness.cli import main as cli_main


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(scale="tiny", processors=2, max_level=6)


# -- tablefmt ---------------------------------------------------------------


def test_text_table_render():
    table = TextTable("demo", ["a", "b"])
    table.add_row(["x", 1.5])
    text = table.render()
    assert "demo" in text
    assert "1.50" in text
    with pytest.raises(ValueError):
        table.add_row(["only-one"])


# -- efficiency helpers --------------------------------------------------------


def test_single_thread_cycles_and_penalty(ctx):
    spec = get_app("sor")
    size = SCALES["tiny"]["sor"]
    t1 = single_thread_cycles(spec, size)
    assert t1 > 1000
    assert t1 == ctx.t1("sor")
    penalty = (ctx.reorganised_t1("sor") - t1) / t1
    assert 0.0 <= penalty < 0.15  # a few percent, as in the paper


def test_mt_levels_structure(ctx):
    levels = ctx.mt_levels("sieve", SwitchModel.SWITCH_ON_LOAD, targets=(0.2, 0.4))
    assert set(levels) == {0.2, 0.4}
    reached = [lvl for lvl in levels.values() if lvl is not None]
    assert all(1 <= lvl <= 6 for lvl in reached)
    # Higher targets never need fewer threads.
    if levels[0.2] is not None and levels[0.4] is not None:
        assert levels[0.4] >= levels[0.2]


def test_run_length_row_and_cells(ctx):
    result = ctx.run("sor", SwitchModel.SWITCH_ON_LOAD, 2, 2)
    row = run_length_row(result.stats)
    assert set(RUN_BIN_LABELS) < set(row)
    total = sum(row[label] for label in RUN_BIN_LABELS)
    assert total == pytest.approx(100.0, abs=0.5)
    cells = format_row_cells(row)
    assert len(cells) == len(RUN_BIN_LABELS) + 1


def test_bandwidth_row(ctx):
    result = ctx.run("sor", SwitchModel.CONDITIONAL_SWITCH, 2, 2)
    row = bandwidth_row(result)
    assert 0.0 <= row["hit_rate"] <= 1.0
    assert row["bits_per_cycle"] > 0
    assert row["sync_messages_excluded"] > 0  # barrier spinning


# -- experiment context ----------------------------------------------------------


def test_context_memoises_runs(ctx):
    first = ctx.run("sieve", SwitchModel.SWITCH_ON_LOAD, 2, 1)
    second = ctx.run("sieve", SwitchModel.SWITCH_ON_LOAD, 2, 1)
    assert first is second


def test_context_t1_positive(ctx):
    assert ctx.t1("blkmat") > 0


def test_scale_sizes_lookup():
    assert "sieve" in scale_sizes("tiny")
    with pytest.raises(KeyError, match="unknown scale"):
        scale_sizes("galactic")


def test_oracle_config_and_estimate(ctx):
    base = MachineConfig(num_processors=1, threads_per_processor=1)
    config = oracle_config(base)
    assert config.interblock_oracle
    assert config.model is SwitchModel.EXPLICIT_SWITCH
    result = ctx.run("locus", SwitchModel.EXPLICIT_SWITCH, 2, 2, oracle=True)
    summary = estimate(result.stats)
    assert 0.0 <= summary.hit_rate <= 1.0
    assert summary.grouping_factor > 0


# -- tables and figures (tiny, structural assertions only) -----------------------


def test_table1(ctx):
    text, data = T.table1(ctx)
    assert len(data) == 7 and "sieve" in text


def test_table2_and_4(ctx):
    _text, sol = T.table2(ctx)
    _text, grouped = T.table4(ctx)
    assert sol["sor"]["1"] > grouped["sor"]["1"]  # grouping kills 1-runs
    assert grouped["sor"]["grouping"] > 1.5


def test_table7(ctx):
    text, data = T.table7(ctx)
    assert set(data) == {
        "sieve", "blkmat", "sor", "ugray", "water", "locus", "mp3d"
    }
    assert "bits/cy" in text


def test_figures(ctx):
    text, graph = F.figure1()
    assert "explicit-switch" in text
    text, data = F.figure2(ctx, processor_counts=[1, 2])
    assert data["sieve"][1] > 0.9
    text, data = F.figure3(ctx, levels=[1, 2], processor_counts=[1, 2])
    assert data["2"][2] >= data["1"][2] - 0.02
    text, data = F.figure4(ctx)
    assert data["loads"] == 5


def test_cli_smoke(capsys):
    assert cli_main(["figure4", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    with pytest.raises(SystemExit):
        cli_main(["not-a-target"])


def test_cli_json_embeds_engine_report(tmp_path, capsys):
    import json

    out = tmp_path / "results.json"
    assert cli_main([
        "table1", "--scale", "tiny", "--quiet",
        "--cache-dir", str(tmp_path / "cache"), "--json", str(out),
    ]) == 0
    document = json.loads(out.read_text())
    assert "table1" in document["targets"]
    engine = document["engine"]
    assert engine["completed"] == engine["executed"] + engine["cached"] > 0
    assert engine["cache_dir"] == str(tmp_path / "cache")
    assert engine["runlog"] == str(tmp_path / "cache" / "runlog.jsonl")
    assert (tmp_path / "cache" / "runlog.jsonl").exists()
    stderr = capsys.readouterr().err
    assert "run log" in stderr
