"""SARIF 2.1.0 export for lint diagnostics.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format code-scanning UIs (GitHub, VS Code, ...)
ingest.  One :func:`reports_to_sarif` document holds a single run of the
``repro-lint`` driver over any number of programs; each
:class:`~repro.lint.diagnostics.Diagnostic` becomes a ``result`` whose
location line number is the 1-based program counter and whose snippet is
the rendered assembly of the offending instruction.

The container can't install ``jsonschema``, so :func:`validate_sarif`
structurally checks the invariants the official schema would — version
pin, driver shape, rule-table consistency, level vocabulary, location
anchoring — and the test suite runs every exported document through it.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.lint.diagnostics import Diagnostic, LintReport, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: SARIF ``level`` vocabulary for each severity.
_LEVELS = {
    Severity.INFO: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
}

_VALID_LEVELS = frozenset({"none", "note", "warning", "error"})


def severity_level(severity: Severity) -> str:
    """SARIF ``level`` string for *severity*."""
    return _LEVELS[severity]


def _artifact_uri(program: str) -> str:
    """A stable, URI-safe pseudo-path for one program's listing."""
    safe = "".join(
        ch if ch.isalnum() or ch in "-._" else "_" for ch in program
    )
    return f"programs/{safe or 'program'}.asm"


def _result(diagnostic: Diagnostic, rule_index: Dict[str, int]) -> Dict:
    result: Dict = {
        "ruleId": diagnostic.rule_id,
        "level": severity_level(diagnostic.severity),
        "message": {"text": diagnostic.message},
    }
    if diagnostic.rule_id in rule_index:
        result["ruleIndex"] = rule_index[diagnostic.rule_id]
    location: Dict = {
        "physicalLocation": {
            "artifactLocation": {"uri": _artifact_uri(diagnostic.program)},
        }
    }
    if diagnostic.pc is not None:
        region: Dict = {"startLine": diagnostic.pc + 1}
        if diagnostic.asm:
            region["snippet"] = {"text": diagnostic.asm}
        location["physicalLocation"]["region"] = region
    result["locations"] = [location]
    properties: Dict = {"program": diagnostic.program}
    if diagnostic.block is not None:
        properties["block"] = diagnostic.block
    result["properties"] = properties
    return result


def reports_to_sarif(
    reports: Iterable[LintReport],
    tool_version: Optional[str] = None,
) -> Dict:
    """One SARIF 2.1.0 document holding every diagnostic of *reports*."""
    from repro.lint.rules import RULES

    report_list = list(reports)
    rules_meta = [
        {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {
                "level": severity_level(rule.severity)
            },
        }
        for rule in sorted(RULES.values(), key=lambda r: r.rule_id)
    ]
    rule_index = {
        meta["id"]: position for position, meta in enumerate(rules_meta)
    }
    driver: Dict = {
        "name": "repro-lint",
        "informationUri": "https://github.com/oasis-tcs/sarif-spec",
        "rules": rules_meta,
    }
    if tool_version:
        driver["version"] = tool_version
    results = [
        _result(diagnostic, rule_index)
        for report in report_list
        for diagnostic in report.diagnostics
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": results,
                "properties": {
                    "programs": [r.subject() for r in report_list],
                    "errors": sum(r.errors for r in report_list),
                    "warnings": sum(r.warnings for r in report_list),
                    "infos": sum(r.infos for r in report_list),
                },
            }
        ],
    }


def write_sarif(path: str, reports: Iterable[LintReport]) -> Dict:
    """Serialise *reports* to *path* and return the document."""
    document = reports_to_sarif(reports)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


# ---------------------------------------------------------------------------
# structural validation (stand-in for the official JSON schema)
# ---------------------------------------------------------------------------

def validate_sarif(document: Dict) -> List[str]:
    """Check *document* against the load-bearing SARIF 2.1.0 constraints.
    Returns a list of problems — empty means structurally valid."""
    problems: List[str] = []

    def expect(condition: bool, message: str) -> bool:
        if not condition:
            problems.append(message)
        return condition

    if not expect(isinstance(document, dict), "document is not an object"):
        return problems
    expect(
        document.get("version") == SARIF_VERSION,
        f"version must be {SARIF_VERSION!r}, got "
        f"{document.get('version')!r}",
    )
    runs = document.get("runs")
    if not expect(isinstance(runs, list) and runs, "runs must be a non-empty array"):
        return problems

    for run_number, run in enumerate(runs):
        where = f"runs[{run_number}]"
        if not expect(isinstance(run, dict), f"{where} is not an object"):
            continue
        driver = run.get("tool", {}).get("driver")
        if not expect(
            isinstance(driver, dict), f"{where}.tool.driver missing"
        ):
            continue
        expect(
            isinstance(driver.get("name"), str) and driver["name"],
            f"{where}.tool.driver.name must be a non-empty string",
        )
        rules = driver.get("rules", [])
        rule_ids: List[str] = []
        if expect(isinstance(rules, list), f"{where} rules must be an array"):
            for position, rule in enumerate(rules):
                rule_where = f"{where}.rules[{position}]"
                if not expect(
                    isinstance(rule, dict) and isinstance(rule.get("id"), str),
                    f"{rule_where} must have a string id",
                ):
                    continue
                rule_ids.append(rule["id"])
                description = rule.get("shortDescription", {})
                expect(
                    isinstance(description, dict)
                    and isinstance(description.get("text"), str),
                    f"{rule_where}.shortDescription.text missing",
                )
                level = rule.get("defaultConfiguration", {}).get("level")
                expect(
                    level in _VALID_LEVELS,
                    f"{rule_where} default level {level!r} invalid",
                )
        expect(
            len(rule_ids) == len(set(rule_ids)),
            f"{where} rule ids are not unique",
        )

        results = run.get("results")
        if not expect(
            isinstance(results, list), f"{where}.results must be an array"
        ):
            continue
        for position, result in enumerate(results):
            result_where = f"{where}.results[{position}]"
            if not expect(
                isinstance(result, dict), f"{result_where} not an object"
            ):
                continue
            expect(
                isinstance(result.get("ruleId"), str),
                f"{result_where}.ruleId must be a string",
            )
            expect(
                result.get("level") in _VALID_LEVELS,
                f"{result_where}.level {result.get('level')!r} invalid",
            )
            message = result.get("message", {})
            expect(
                isinstance(message, dict)
                and isinstance(message.get("text"), str),
                f"{result_where}.message.text missing",
            )
            if "ruleIndex" in result:
                index = result["ruleIndex"]
                expect(
                    isinstance(index, int)
                    and 0 <= index < len(rule_ids)
                    and rule_ids[index] == result.get("ruleId"),
                    f"{result_where}.ruleIndex does not match the rule table",
                )
            for loc_position, location in enumerate(
                result.get("locations", ())
            ):
                loc_where = f"{result_where}.locations[{loc_position}]"
                physical = (
                    location.get("physicalLocation")
                    if isinstance(location, dict) else None
                )
                if not expect(
                    isinstance(physical, dict),
                    f"{loc_where}.physicalLocation missing",
                ):
                    continue
                artifact = physical.get("artifactLocation", {})
                expect(
                    isinstance(artifact, dict)
                    and isinstance(artifact.get("uri"), str),
                    f"{loc_where} artifact uri missing",
                )
                region = physical.get("region")
                if region is not None:
                    expect(
                        isinstance(region, dict)
                        and isinstance(region.get("startLine"), int)
                        and region["startLine"] >= 1,
                        f"{loc_where}.region.startLine must be >= 1",
                    )
    return problems
