"""``repro-lint`` — static analysis of benchmark programs.

Examples::

    repro-lint --all                      # every app x every model
    repro-lint sieve mp3d --model eswitch --model sou
    repro-lint --all --scale small --threads 8 --json report.json
    repro-lint --selftest                 # prove every rule fires

Exit status: 0 when no error-severity diagnostics exist, 1 when any do
(warnings and infos never fail the gate), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lint import lint_matrix
from repro.lint.diagnostics import Severity, apply_rule_filters


def _check_rule_ids(ids) -> None:
    """Reject unknown rule ids, listing the valid vocabulary."""
    from repro.lint.rules import RULES

    unknown = sorted(set(ids) - set(RULES))
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(RULES))})"
        )


def parse_rule_filters(args):
    """(select, ignore, overrides) from ``--select``/``--ignore``/
    ``--severity RULE=LEVEL`` flags; raises ``ValueError`` on unknown
    rule ids or malformed overrides."""
    select = set(args.select) if args.select else None
    if select is not None:
        _check_rule_ids(select)
    ignore = set(args.ignore)
    _check_rule_ids(ignore)
    overrides = {}
    for item in args.severity:
        rule, sep, level = item.partition("=")
        if not sep:
            raise ValueError(
                f"--severity expects RULE=LEVEL, got {item!r}"
            )
        _check_rule_ids([rule])
        overrides[rule] = Severity.parse(level)
    return select, ignore, overrides


def _cmd_lint(args) -> int:
    from repro.apps.registry import app_names
    from repro.machine.models import SwitchModel

    apps = args.apps or (app_names() if args.all else None)
    if not apps:
        print(
            "repro-lint: name at least one application or pass --all",
            file=sys.stderr,
        )
        return 2
    try:
        select, ignore, overrides = parse_rule_filters(args)
        models = [SwitchModel.parse(m) for m in args.model] or list(SwitchModel)
        reports = list(
            lint_matrix(apps, models, nthreads=args.threads, scale=args.scale)
        )
    except (KeyError, ValueError) as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2
    if select is not None or ignore or overrides:
        reports = [
            apply_rule_filters(report, select, ignore, overrides)
            for report in reports
        ]

    min_severity = Severity.INFO if args.verbose else Severity.WARNING
    failed = 0
    for report in reports:
        if report.diagnostics or args.verbose:
            print(report.render(min_severity))
        else:
            print(report.summary_line())
        if not report.ok:
            failed += 1
    total_diags = sum(len(report.diagnostics) for report in reports)
    print(
        f"[lint] {len(reports)} program(s) checked: "
        f"{len(reports) - failed} clean, {failed} failing, "
        f"{total_diags} diagnostic(s) total",
        file=sys.stderr,
    )
    if args.json:
        payload = {
            "programs": len(reports),
            "failing": failed,
            "reports": [report.to_dict() for report in reports],
        }
        if args.json == "-":
            json.dump(payload, sys.stdout, indent=2)
            print()
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
            print(f"[lint] wrote {args.json}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_selftest(args) -> int:
    from repro.lint.mutations import SelfTestError, run_selftest

    try:
        summary = run_selftest(seed=args.seed)
    except SelfTestError as error:
        print(f"repro-lint: selftest FAILED: {error}", file=sys.stderr)
        return 1
    print(
        f"[lint] selftest passed: {summary['rules_proven']} rule(s) "
        f"proven live (seed {summary['seed']})",
        file=sys.stderr,
    )
    for rule_id, count in sorted(summary["diagnostics"].items()):
        print(f"  {rule_id}: fired {count}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Statically verify benchmark programs and the "
        "compiler's paper invariants.",
    )
    parser.add_argument(
        "apps", nargs="*", help="applications to lint (default: see --all)"
    )
    parser.add_argument(
        "--all", action="store_true", help="lint every Table 1 application"
    )
    parser.add_argument(
        "--model",
        action="append",
        default=[],
        metavar="MODEL",
        help="switch model(s) to prepare code for (repeatable; "
        "default: all eight)",
    )
    parser.add_argument(
        "--scale", default="tiny", help="problem scale (default: tiny)"
    )
    parser.add_argument(
        "--threads", type=int, default=2, help="thread count to build for"
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="dump the full report as JSON (to stdout with no PATH)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULE",
        help="keep only the named rule id(s) (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULE",
        help="drop the named rule id(s) (repeatable)",
    )
    parser.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="RULE=LEVEL",
        help="override one rule's severity (info/warning/error; "
        "repeatable)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="show info-severity findings and clean reports in full",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the mutation self-test instead of linting apps",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="selftest mutation seed"
    )
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return _cmd_selftest(args)
        return _cmd_lint(args)
    except BrokenPipeError:  # e.g. `repro-lint --all | head`
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
