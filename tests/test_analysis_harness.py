"""Analysis helpers and the experiment harness (tiny scale)."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    # JSON-native data: the nodes in topological order, the edges with
    # their reasons (no graph object, so ``--json`` is stable).
    assert json.loads(json.dumps(graph)) == graph
    order = graph["nodes"]
    assert order[0] == "switch-every-cycle"
    assert len(order) == len(set(order)) == 7
    for edge in graph["edges"]:
        assert order.index(edge["from"]) < order.index(edge["to"])
        assert f"{edge['from']} -> {edge['to']}   [{edge['reason']}]" in text
    text, data = F.figure2(ctx, processor_counts=[1, 2])
    assert data["sieve"][1] > 0.9
    text, data = F.figure3(ctx, levels=[1, 2], processor_counts=[1, 2])
    assert data["2"][2] >= data["1"][2] - 0.02
    text, data = F.figure4(ctx)
    assert data["loads"] == 5


def test_bench_cli_starts_without_networkx():
    """Only numpy is a declared dependency: ``repro-bench`` must start
    with networkx absent."""
    code = (
        "import sys; sys.modules['networkx'] = None\n"
        "from repro.harness.cli import main\n"
        "sys.exit(main(['figure1', '--quiet', '--no-cache']))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "switch-every-cycle -> switch-on-load" in completed.stdout


def test_cli_smoke(capsys):
    assert cli_main(["figure4", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    with pytest.raises(SystemExit):
        cli_main(["not-a-target"])


_PAPER_TINY = (
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "ledger" / "data" / "paper_tiny.stdout"
)
_TINY_SUMMARY = (
    "314 runs (314 simulated [314 interpreter], 1 failed, 56 memo hits), "
    "3,811,088 cycles"
)


def test_cli_all_tiny_matches_the_committed_reproduction(capsys):
    """The whole tiny reproduction, in-process: every table, figure and
    ablation prints exactly the committed reference, and the engine
    resolves the same runs, failures, memo hits and cycles."""
    assert cli_main(["all", "--scale", "tiny", "--no-cache", "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out == _PAPER_TINY.read_text(encoding="utf-8")
    assert _TINY_SUMMARY in captured.err.splitlines()[-1]


def test_cli_all_tiny_checked_lints_and_checks_every_run_once(tmp_path, capsys):
    """``--check`` lints and checks each run of the tiny reproduction
    once, Table 5's grouped-code baselines among them, and changes
    neither the tables nor the engine's summary."""
    import json

    report = tmp_path / "checked.json"
    assert cli_main([
        "all", "--scale", "tiny", "--no-cache", "--quiet", "--check",
        "--json", str(report),
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out == _PAPER_TINY.read_text(encoding="utf-8")
    assert sum(_TINY_SUMMARY in line for line in captured.err.splitlines()) == 1
    engine = json.loads(report.read_text())["engine"]
    assert engine["checked"] == engine["completed"] == 314
    # The livelock probe lints clean too, then fails by running out.
    assert engine["linted"] == 315 and engine["failed"] == 1


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
