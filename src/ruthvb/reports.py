"""Validation reports: a verdict plus a list of located counterexamples."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .linalg import IntegerForm


@dataclass(frozen=True)
class CheckEntry:
    check: str
    location: str
    expected: str
    actual: str

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "location": self.location,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass(frozen=True)
class ColumnCheck:
    """One identity on a block of basis columns: column k of ``got`` should
    equal column k of ``want``.  The two sides could not be formed at column
    k when column k of any block in ``residuals`` is nonzero; that is
    recorded as ``label`` (by default, column k of ``want``) against
    "not composable"."""

    check: str
    want: IntegerForm
    got: IntegerForm
    residuals: Sequence[IntegerForm] = ()
    label: Optional[str] = None


@dataclass
class Report:
    """Outcome of running one validator or one harness pipeline.

    An empty entry list means every checked instance passed.  A failing
    report always carries at least one entry with a concrete location.
    """

    subject: str
    entries: list[CheckEntry] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.entries

    def add(self, check: str, location: str, expected: str, actual: str) -> None:
        self.entries.append(CheckEntry(check, location, expected, actual))

    def expect(self, check: str, location: str, want: Any, got: Any) -> None:
        """Record a violation, both sides shown by ``str``, unless got == want."""
        if got != want:
            self.add(check, location, str(want), str(got))

    def expect_columns(self, where: str, checks: Sequence[ColumnCheck]) -> None:
        """Record each violated column of ``checks`` at ``"{where} basis {k}"``,
        by basis index k, then in the order of ``checks``.  Both sides of a
        violation are shown as ``Fraction`` vectors."""
        failed = []
        for c in checks:
            broken = set().union(*(r.nonzero_columns() for r in c.residuals))
            unequal = c.want.unequal_columns(c.got) - broken
            if broken or unequal:
                failed.append((c, broken, unequal))
        columns = set().union(*(b | u for _, b, u in failed))
        for k in sorted(columns):
            location = f"{where} basis {k}"
            for c, broken, unequal in failed:
                if k in broken:
                    label = str(c.want.column(k)) if c.label is None else c.label
                    self.add(c.check, location, label, "not composable")
                elif k in unequal:
                    self.add(c.check, location, str(c.want.column(k)), str(c.got.column(k)))

    def require(self, error: type[Exception], message: str) -> None:
        """Raise ``error`` with ``message`` and this report's text unless it passed."""
        if not self.passed:
            raise error(f"{message}:\n{self.to_text()}")

    def extend(self, other: "Report", prefix: str = "") -> None:
        for e in other.entries:
            loc = f"{prefix}{e.location}" if prefix else e.location
            self.entries.append(CheckEntry(e.check, loc, e.expected, e.actual))

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "verdict": "pass" if self.passed else "fail",
            "entries": [e.to_dict() for e in self.entries],
            "seconds": round(self.seconds, 6),
        }

    def to_text(self) -> str:
        """A verdict line, then the first 20 violations."""
        lines = [f"{'PASS' if self.passed else 'FAIL'} {self.subject}"
                 f" ({len(self.entries)} violation(s), {self.seconds:.3f}s)"]
        for e in self.entries[:20]:
            lines.append(f"  [{e.check}] at {e.location}: expected {e.expected}, got {e.actual}")
        if len(self.entries) > 20:
            lines.append(f"  ... and {len(self.entries) - 20} more")
        return "\n".join(lines)
