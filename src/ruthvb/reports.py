"""Validation reports: a verdict plus a list of located counterexamples."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from .linalg import LinearMap


@dataclass(frozen=True)
class CheckEntry:
    check: str
    location: str
    expected: str
    actual: str


class ColumnCheck(NamedTuple):
    """One identity on a block of basis columns: column k of ``got`` should
    equal column k of ``want``.  The two sides could not be formed at column
    k when column k of any block in ``residuals`` is nonzero; that is
    recorded as ``label`` (by default, column k of ``want``) against
    "not composable".  A named tuple, since the validators build one per
    identity and block, and a frozen dataclass costs more to build."""

    check: str
    want: LinearMap
    got: LinearMap
    residuals: Sequence[LinearMap] = ()
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

    def expect_columns(self, where: str, checks: Sequence[ColumnCheck],
                       blocks: Optional[Iterable[tuple[str, int]]] = None) -> None:
        """Record each violated column of ``checks`` at ``"{where} basis {k}"``,
        by basis index k, then in the order of ``checks``.  Both sides of a
        violation are shown as ``Fraction`` vectors.  A check whose two sides
        differ in shape is one violation at ``where``, shapes shown, recorded
        first; none of its columns is read.  A check that passes costs one
        ``unequal_columns`` and one zero test per residual, and when every
        check passes no set is united or sorted.

        ``blocks``, pairs (location, width), cut the columns into consecutive
        blocks in order: a violated column k of the block that starts at
        column s is recorded at ``"{location} basis {k - s}"`` instead, so the
        entries are those of one call per block on its own columns, block by
        block, and no block is cut out.  They are read only when a column
        is violated, so a lazy iterable costs a passing check nothing."""
        failed = []
        for c in checks:
            want, got = c.want, c.got
            if want.rows != got.rows or want.cols != got.cols:
                self.add(c.check, where, f"{want.rows}x{want.cols} block",
                         f"{got.rows}x{got.cols} block")
                continue
            broken = [r for r in c.residuals if not r.is_zero()]
            unequal = want.unequal_columns(got)
            if broken or unequal:
                broken = set().union(*(r.nonzero_columns() for r in broken))
                failed.append((c, broken, unequal - broken))
        if not failed:
            return
        columns = set().union(*(b | u for _, b, u in failed))
        names, starts = [where], [0]
        if blocks is not None:
            blocks = list(blocks)
            names = [name for name, _ in blocks]
            starts = list(accumulate((width for _, width in blocks), initial=0))
        for k in sorted(columns):
            # the last block starting at or before k: an empty block holds no k
            i = bisect_right(starts, k) - 1
            location = f"{names[i]} basis {k - starts[i]}"
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

    def extend(self, other: "Report", prefix: str) -> None:
        """Append ``other``'s entries, each location prefixed by ``prefix``."""
        for e in other.entries:
            self.entries.append(CheckEntry(e.check, f"{prefix}{e.location}", e.expected, e.actual))

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "verdict": "pass" if self.passed else "fail",
            "entries": [asdict(e) for e in self.entries],
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
