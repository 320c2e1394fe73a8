"""A fixed reference task that times the machine, not ``ruthvb``.

The machines the benchmark runs on are shared, and their speed drifts by
tens of percent over seconds to minutes.  The benchmark runs this task
next to every operation and reports operation times in units of it
(``ref``).  Both are measured on the same core within milliseconds of
each other, so the unit cancels the drift.  The task is exact rational
row reduction, the kind of work ``ruthvb`` does, and it lives here so
that no change to ``ruthvb`` can move it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

_MATRICES = tuple(
    tuple(tuple(Fraction((7 * i + 3 * j + 5 * k) % 11 - 5, 1 + (i + 2 * j + k) % 3)
                for j in range(7)) for i in range(6))
    for k in range(4))


def _row_reduce(matrix) -> list[list[Fraction]]:
    rows = [list(r) for r in matrix]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows


def reference_task() -> float:
    """Wall seconds taken by one run of the fixed task."""
    t0 = perf_counter()
    for m in _MATRICES:
        _row_reduce(m)
    return perf_counter() - t0
