"""Validation reports: a verdict plus a list of located counterexamples."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import CompositionError


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

    def expect_composable(self, check: str, location: str,
                          sides: Callable[[], tuple[Any, Any]], label: str) -> None:
        """:meth:`expect` on ``sides() -> (want, got)``.  When a side cannot
        be formed because some product is not composable, the violation is
        recorded as ``label`` against "not composable"."""
        try:
            want, got = sides()
        except CompositionError:
            self.add(check, location, label, "not composable")
            return
        self.expect(check, location, want, got)

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
