"""SARIF 2.1.0 export: structure, validation, and CLI integration."""

import json

from repro.lint import lint_app_model, lint_program
from repro.lint.cli import main as lint_main
from repro.lint.diagnostics import Severity
from repro.lint.mutations import MUTATIONS
from repro.lint.rules import RULES
from repro.lint.sarif import (
    SARIF_VERSION,
    reports_to_sarif,
    severity_level,
    validate_sarif,
    write_sarif,
)

import random


def dirty_report():
    """A report with at least one real diagnostic (lock-order victim)."""
    return MUTATIONS["sync-lock-order"](random.Random(0))


def test_severity_levels_map_to_sarif_vocabulary():
    assert severity_level(Severity.INFO) == "note"
    assert severity_level(Severity.WARNING) == "warning"
    assert severity_level(Severity.ERROR) == "error"


def test_export_is_valid_and_carries_the_rule_table():
    document = reports_to_sarif([dirty_report()])
    assert validate_sarif(document) == []
    assert document["version"] == SARIF_VERSION
    run = document["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    assert [rule["id"] for rule in rules] == sorted(RULES)
    assert run["results"], "victim diagnostics must become results"
    result = run["results"][0]
    assert result["ruleId"] == "sync-lock-order"
    location = result["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] >= 1
    assert location["artifactLocation"]["uri"].startswith("programs/")


def test_clean_report_exports_zero_results():
    report = lint_app_model("sieve", "ideal")
    document = reports_to_sarif([report])
    assert validate_sarif(document) == []
    assert document["runs"][0]["results"] == []


def test_validate_sarif_catches_corruption():
    document = reports_to_sarif([dirty_report()])
    document["runs"][0]["results"][0]["level"] = "catastrophic"
    assert validate_sarif(document)

    document = reports_to_sarif([dirty_report()])
    document["runs"][0]["results"][0]["ruleId"] = "no-such-rule"
    assert validate_sarif(document)

    document = reports_to_sarif([dirty_report()])
    document["version"] = "3.0.0"
    assert validate_sarif(document)

    document = reports_to_sarif([dirty_report()])
    document["runs"][0]["results"][0]["locations"][0][
        "physicalLocation"]["region"]["startLine"] = 0
    assert validate_sarif(document)


def test_write_sarif_round_trips(tmp_path):
    path = tmp_path / "lint.sarif"
    write_sarif(path, [dirty_report()])
    loaded = json.loads(path.read_text())
    assert validate_sarif(loaded) == []
    assert loaded["runs"][0]["tool"]["driver"]["name"] == "repro-lint"


def test_lint_cli_writes_sarif(tmp_path):
    path = tmp_path / "out.sarif"
    code = lint_main(["sieve", "--model", "ideal", "--sarif", str(path)])
    assert code == 0
    loaded = json.loads(path.read_text())
    assert validate_sarif(loaded) == []
