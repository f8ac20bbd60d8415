"""Structured lint diagnostics and the report container.

Every finding is a :class:`Diagnostic` — a rule id, a severity, the
program counter and basic block it anchors to, the rendered assembly of
the offending line, and a human message.  A :class:`LintReport` collects
the findings for one (program, model) pair and renders them as text or
JSON; :meth:`LintReport.raise_on_error` is the gate ``Engine(check=True)``
applies to every spec it resolves.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Iterable, List, Optional


class Severity(enum.IntEnum):
    """Diagnostic severity.  Only ERROR findings fail a lint gate."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: "str | Severity") -> "Severity":
        if isinstance(text, cls):
            return text
        try:
            return cls[text.strip().upper()]
        except KeyError:
            known = ", ".join(member.label for member in cls)
            raise ValueError(
                f"unknown severity {text!r} (known: {known})"
            ) from None


@dataclasses.dataclass(frozen=True)
class Rule:
    """Metadata of one lint rule (the registry lives in
    :mod:`repro.lint.rules`)."""

    rule_id: str
    severity: Severity
    summary: str


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to a program location when one exists."""

    rule_id: str
    severity: Severity
    message: str
    program: str
    pc: Optional[int] = None  # instruction index, None for program-level
    block: Optional[int] = None  # basic-block index
    asm: Optional[str] = None  # rendered offending line

    def render(self) -> str:
        """``error[isa-branch-target] pc 42 (block 7) `beq ...`: ...``"""
        where = ""
        if self.pc is not None:
            where += f" pc {self.pc}"
        if self.block is not None:
            where += f" (block {self.block})"
        line = f" `{self.asm}`" if self.asm else ""
        return (
            f"{self.severity.label}[{self.rule_id}]{where}{line}: "
            f"{self.message}"
        )

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule_id,
            "severity": self.severity.label,
            "message": self.message,
            "program": self.program,
            "pc": self.pc,
            "block": self.block,
            "asm": self.asm,
        }


def apply_rule_filters(
    report: "LintReport",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    overrides: Optional[Dict[str, Severity]] = None,
) -> "LintReport":
    """A new report with rule-id filters applied.

    *select* keeps only the named rules (``None`` keeps all), *ignore*
    drops the named rules, and *overrides* re-levels findings per rule
    id — so a policy can e.g. promote ``advice-group-loads`` to a gating
    error or silence a known-noisy warning without touching the rules.
    """
    selected = set(select) if select is not None else None
    ignored = set(ignore or ())
    levels = overrides or {}
    kept = []
    for diagnostic in report.diagnostics:
        if selected is not None and diagnostic.rule_id not in selected:
            continue
        if diagnostic.rule_id in ignored:
            continue
        if diagnostic.rule_id in levels:
            diagnostic = dataclasses.replace(
                diagnostic, severity=levels[diagnostic.rule_id]
            )
        kept.append(diagnostic)
    return LintReport(
        report.program,
        report.model,
        kept,
        instructions=report.instructions,
        blocks=report.blocks,
    )


class LintError(Exception):
    """Raised by a lint gate when error-severity diagnostics exist; the
    offending :class:`LintReport` is attached as ``report``."""

    def __init__(self, report: "LintReport"):
        self.report = report
        errors = report.by_severity(Severity.ERROR)
        preview = "; ".join(d.render() for d in errors[:3])
        if len(errors) > 3:
            preview += f"; ... {len(errors) - 3} more"
        super().__init__(
            f"lint failed for {report.subject()}: "
            f"{len(errors)} error(s): {preview}"
        )


class LintReport:
    """All diagnostics for one linted program (or transform pair)."""

    def __init__(
        self,
        program: str,
        model: Optional[str] = None,
        diagnostics: Optional[Iterable[Diagnostic]] = None,
        instructions: int = 0,
        blocks: int = 0,
    ):
        self.program = program
        self.model = model
        self.diagnostics: List[Diagnostic] = []
        self._seen: set = set()
        self.instructions = instructions
        self.blocks = blocks
        self.extend(diagnostics or ())

    # -- accounting ----------------------------------------------------------

    @staticmethod
    def _order_key(diagnostic: Diagnostic):
        return (
            diagnostic.pc if diagnostic.pc is not None else -1,
            diagnostic.rule_id,
        )

    def add(self, diagnostic: Diagnostic) -> None:
        """Record one finding.  Identical (rule, pc, message) findings
        collapse to a single entry, and the report stays sorted stably
        by (pc, rule) so JSON output is byte-deterministic regardless of
        rule execution order."""
        key = (diagnostic.rule_id, diagnostic.pc, diagnostic.message)
        if key in self._seen:
            return
        self._seen.add(key)
        order = self._order_key(diagnostic)
        position = len(self.diagnostics)
        while position > 0 and self._order_key(
            self.diagnostics[position - 1]
        ) > order:
            position -= 1
        self.diagnostics.insert(position, diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        for diagnostic in diagnostics:
            self.add(diagnostic)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    @property
    def rules_fired(self) -> List[str]:
        return sorted({d.rule_id for d in self.diagnostics})

    @property
    def errors(self) -> int:
        return len(self.by_severity(Severity.ERROR))

    @property
    def warnings(self) -> int:
        return len(self.by_severity(Severity.WARNING))

    @property
    def infos(self) -> int:
        return len(self.by_severity(Severity.INFO))

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostics exist."""
        return self.errors == 0

    def raise_on_error(self) -> "LintReport":
        """Gate: raise :class:`LintError` when errors exist; chains."""
        if not self.ok:
            raise LintError(self)
        return self

    # -- rendering -----------------------------------------------------------

    def subject(self) -> str:
        if self.model:
            return f"{self.program} [{self.model}]"
        return self.program

    def summary_line(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        return (
            f"{self.subject()}: {verdict} "
            f"({self.errors}E {self.warnings}W {self.infos}I, "
            f"{self.instructions} instructions, {self.blocks} blocks)"
        )

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        """Summary line plus one indented line per finding at or above
        *min_severity*, in program order."""
        lines = [self.summary_line()]
        shown = [
            d for d in self.diagnostics if d.severity >= min_severity
        ]
        shown.sort(
            key=lambda d: (
                d.pc if d.pc is not None else -1,
                -int(d.severity),
                d.rule_id,
            )
        )
        lines.extend(f"  {d.render()}" for d in shown)
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "program": self.program,
            "model": self.model,
            "instructions": self.instructions,
            "blocks": self.blocks,
            "errors": self.errors,
            "warnings": self.warnings,
            "infos": self.infos,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LintReport {self.summary_line()}>"
