"""The repro-lint CLI and the checked engine's lint gate, as the
harness and the server use it."""

import json
import time

import pytest

from repro.isa.registers import NUM_REGS
from repro.lint import LintReport
from repro.lint.cli import main
from repro.lint.diagnostics import Diagnostic, Severity


def test_cli_clean_run(capsys):
    assert main(["sieve", "--model", "eswitch"]) == 0
    captured = capsys.readouterr()
    assert "sieve+grouped [explicit-switch]: ok" in captured.out
    assert "1 clean, 0 failing" in captured.err


def test_cli_requires_apps_or_all(capsys):
    assert main([]) == 2
    assert "--all" in capsys.readouterr().err


def test_cli_rejects_unknown_model_and_app(capsys):
    assert main(["sieve", "--model", "bogus"]) == 2
    assert main(["--all", "--scale", "bogus"]) == 2
    assert main(["nosuchapp"]) == 2


def test_cli_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["sieve", "sor", "--model", "sou", "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["programs"] == 2
    assert payload["failing"] == 0
    assert {report["model"] for report in payload["reports"]} == {
        "switch-on-use"
    }
    assert all(report["ok"] for report in payload["reports"])


def test_cli_exit_1_when_errors_exist(monkeypatch, capsys):
    import repro.lint.cli as cli

    failing = LintReport("broken", "explicit-switch", instructions=1, blocks=1)
    failing.add(Diagnostic(
        rule_id="isa-no-halt", severity=Severity.ERROR,
        message="no HALT instruction is reachable", program="broken",
    ))
    monkeypatch.setattr(cli, "lint_matrix", lambda *a, **k: iter([failing]))
    assert main(["sieve"]) == 1
    captured = capsys.readouterr()
    assert "FAIL (1E" in captured.out
    assert "1 failing" in captured.err


def test_cli_selftest(capsys):
    assert main(["--selftest", "--seed", "3"]) == 0
    captured = capsys.readouterr()
    assert "selftest passed" in captured.err
    assert "paper-group-switch: fired" in captured.out


def failing_report(severity=Severity.ERROR):
    report = LintReport("broken", "explicit-switch", instructions=1, blocks=1)
    report.add(Diagnostic(
        rule_id="isa-no-halt", severity=severity,
        message="no HALT instruction is reachable", program="broken",
    ))
    return report


def test_cli_ignore_suppresses_a_failing_rule(monkeypatch, capsys):
    import repro.lint.cli as cli

    monkeypatch.setattr(
        cli, "lint_matrix", lambda *a, **k: iter([failing_report()])
    )
    assert main(["sieve"]) == 1
    capsys.readouterr()
    assert main(["sieve", "--ignore", "isa-no-halt"]) == 0
    assert "0 failing" in capsys.readouterr().err


def test_cli_select_keeps_only_named_rules(monkeypatch, capsys):
    import repro.lint.cli as cli

    monkeypatch.setattr(
        cli, "lint_matrix", lambda *a, **k: iter([failing_report()])
    )
    # Selecting an unrelated rule drops the isa-no-halt error.
    assert main(["sieve", "--select", "df-dead-write"]) == 0
    capsys.readouterr()
    # Selecting the failing rule keeps it.
    assert main(["sieve", "--select", "isa-no-halt"]) == 1


def test_cli_severity_override_demotes_and_promotes(monkeypatch, capsys):
    import repro.lint.cli as cli

    monkeypatch.setattr(
        cli, "lint_matrix", lambda *a, **k: iter([failing_report()])
    )
    assert main(["sieve", "--severity", "isa-no-halt=warning"]) == 0
    capsys.readouterr()

    monkeypatch.setattr(
        cli, "lint_matrix",
        lambda *a, **k: iter([failing_report(Severity.WARNING)]),
    )
    assert main(["sieve"]) == 0
    capsys.readouterr()
    assert main(["sieve", "--severity", "isa-no-halt=error"]) == 1


def test_cli_unknown_rule_id_lists_vocabulary(capsys):
    assert main(["sieve", "--select", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id(s): no-such-rule" in err
    assert "isa-no-halt" in err  # the valid vocabulary is listed

    assert main(["sieve", "--ignore", "nope"]) == 2
    assert main(["sieve", "--severity", "isa-no-halt"]) == 2  # missing =LEVEL
    assert main(["sieve", "--severity", "isa-no-halt=loud"]) == 2


def test_module_entry_point():
    import subprocess
    import sys
    import os
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "sieve", "--model", "eswitch"],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    assert "explicit-switch]: ok" in proc.stdout


# -- gates -------------------------------------------------------------------


@pytest.fixture
def fresh_lint_memo():
    """Lint reports are memoised per program; tests that change what
    linting sees start and end with an empty memo."""
    from repro.lint import lint_spec_cached

    lint_spec_cached.cache_clear()
    yield
    lint_spec_cached.cache_clear()


def _tiny(model):
    from repro.engine import RunSpec

    return RunSpec(app="sieve", model=model, processors=2, level=2,
                   scale="tiny")


def test_checked_engine_lint_gate(monkeypatch, fresh_lint_memo):
    """A checked engine lints the code it would run: a clean program
    runs, and one with an out-of-range operand fails its spec with a
    LintError naming the rule, without being simulated."""
    from repro.engine import Engine
    from repro.engine import executor

    clean, corrupt = _tiny("explicit-switch"), _tiny("switch-on-load")
    real_build = executor._build

    def build(app, nthreads, code_model, scale):
        built, program = real_build(app, nthreads, code_model, scale)
        if code_model == corrupt.model:
            program = program.copy()
            program.instructions[0].rd = NUM_REGS + 2
        return built, program

    monkeypatch.setattr(executor, "_build", build)
    with Engine(check=True) as engine:
        ran, failed = engine.run_many([clean, corrupt], on_error="record")
        error = engine.failure(corrupt.key())
        counts = engine.counters()
    assert ran.stats.switches > 0 and failed is None
    assert error["type"] == "LintError"
    assert "isa-operand-range" in error["message"]
    assert (counts["linted"], counts["executed"], counts["failed"]) == (2, 1, 1)


def test_engine_lint_gate_smoke():
    from repro.engine import Engine

    engine = Engine(check=True)
    try:
        [result] = engine.run_many([_tiny("explicit-switch")])
        assert result.wall_cycles > 0
        counts = engine.counters()
        assert counts["linted"] == counts["checked"] == 1
    finally:
        engine.close()


def test_check_failure_never_reaches_the_result_cache(
    tmp_path, monkeypatch, fresh_lint_memo
):
    """A spec that fails its checks is recorded as failed and never
    cached, so an unchecked engine on the same cache resolves it."""
    from repro.engine import Engine
    from repro.obs.runlog import read_runlog

    spec = _tiny("switch-on-load")
    monkeypatch.setattr("repro.lint.lint_pair",
                        lambda original, prepared, model: failing_report())
    with Engine(cache=tmp_path, check=True) as checked:
        assert checked.run_many([spec], on_error="record") == [None]
        assert checked.failure(spec.key())["type"] == "LintError"
        assert checked.counters()["lint_diagnostics"] == [
            ["isa-no-halt", "error", 1]
        ]
    runlog = read_runlog(tmp_path / "runlog.jsonl")
    assert [entry["source"] for entry in runlog] == ["failed"]
    with Engine(cache=tmp_path) as plain:
        [result] = plain.run_many([spec])
        assert result.wall_cycles > 0
        assert plain.counters()["executed"] == 1


def test_scheduler_check_lints_and_counts(tmp_path):
    from repro.engine import Engine
    from repro.serve import JobScheduler

    scheduler = JobScheduler(Engine(check=True))
    try:
        job, coalesced = scheduler.submit([_tiny("switch-on-load")])
        assert not coalesced
        deadline = time.time() + 60.0
        while not job.settled and time.time() < deadline:
            time.sleep(0.01)
        assert job.state.value == "done", job.error
        text = scheduler.metrics_text()
        assert "lint_programs_checked_total 1" in text
        # The spec lints clean, so no labelled diagnostics series exists.
        assert "lint_diagnostics_total{" not in text
    finally:
        scheduler.stop()


@pytest.mark.parametrize("failing", ["lint", "oracle"])
def test_scheduler_check_failure_fails_the_job(monkeypatch, fresh_lint_memo,
                                               failing):
    """Under a checked engine a served spec that fails lint or the
    oracle settles its job FAILED, naming the check and the spec."""
    from repro.check import CheckFailure
    from repro.engine import Engine
    from repro.serve import JobScheduler

    def reject(result):
        raise CheckFailure("invariant check failed:\n  - seeded")

    if failing == "lint":
        monkeypatch.setattr("repro.lint.lint_pair",
                            lambda original, prepared, model: failing_report())
    else:
        monkeypatch.setattr("repro.check.check_result", reject)
    spec = _tiny("switch-on-load")
    scheduler = JobScheduler(Engine(check=True))
    try:
        job, _ = scheduler.submit([spec])
        assert job.wait(60.0)
        text = scheduler.metrics_text()
    finally:
        scheduler.stop()
    assert job.state.value == "failed"
    expected = "LintError" if failing == "lint" else "CheckFailure"
    assert job.error["type"] == expected
    assert job.error["message"].startswith(spec.label() + ": ")
    if failing == "lint":
        assert ('lint_diagnostics_total{rule="isa-no-halt",severity="error"} 1'
                in text)
