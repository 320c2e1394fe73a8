"""Exact rational linear algebra kernel.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator).
Vectors are columns, maps act on the left, and ``compose(f, g)`` applies
``g`` first.  Every routine with a choice to make (kernel bases, right
inverses, particular solutions) uses the same deterministic rule: row
reduce with the leftmost pivot in the earliest row, set free variables
to zero, and emit one kernel vector per free column with entry 1 at that
column.  This makes downstream splittings and connections reproducible.

Most matrices here are identity or zero blocks, so the kernels skip zero
terms.  There are two multiply-accumulate loops.  :meth:`LinearMap.apply`
multiplies one vector of ``Fraction`` s: it forms a product only where the
matrix entry and the vector entry are both nonzero, takes the other factor
as the term when one of them is 1, and starts each sum from its first
term; ``compose`` runs on it.
``IntegerForm @ IntegerForm`` multiplies whole blocks of columns in integer
numerators over one common denominator, also only where both factors are
nonzero; every map carries its integer form (:attr:`LinearMap.integer`),
computed once, :meth:`IntegerForm.map` reads a block back as a map, and
:func:`tabulate` applies a rule on blocks to one identity or basis block.
The row reduction is fraction-free Gauss-Jordan elimination on the integer
form, so it divides only exactly.  ``vec_add`` and ``vec_sub`` pass zero
operands through.  A skipped term is an exact zero, so every result is the
same exact ``Fraction`` the dense sums give.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Collection, Optional, Sequence

from .errors import (CompositionError, DimensionError, NotInvertibleError, NotSurjectiveError,
                     StructureError)

Scalar = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


# The most digits either side of a rational literal may have.  Exponent
# notation is not a literal: "1e99999999" is ten characters, and reading it
# would build an integer of a hundred million digits.
MAX_DIGITS = 256

_LITERAL = re.compile(rf"([+-]?[0-9]{{1,{MAX_DIGITS}}})(?:/([0-9]{{1,{MAX_DIGITS}}}))?")


def rat(value) -> Fraction:
    """Coerce ints, strings ``"p/q"`` or ``"p"``, or Fractions to a Fraction.
    Booleans are refused, so an instance file cannot smuggle one in as 0 or 1,
    and so is a string of any other form or with more than ``MAX_DIGITS``
    digits on either side."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        literal = _LITERAL.fullmatch(value)
        if literal is None:
            raise ValueError(f"{value!r:.40} is not a rational p/q of at most "
                             f"{MAX_DIGITS} digits each")
        num, den = literal.groups()
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# -- vectors ----------------------------------------------------------------

def vec_zero(n: int) -> Vector:
    return (ZERO,) * n


def vec_basis(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise DimensionError(f"vector lengths {len(a)} != {len(b)}")
    return tuple((x + y if x else y) if y else x for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise DimensionError(f"vector lengths {len(a)} != {len(b)}")
    return tuple((x - y if x else -y) if y else x for x, y in zip(a, b))


def vec_scale(c, a: Vector) -> Vector:
    c = rat(c)
    return tuple(c * x for x in a)


# -- matrices ---------------------------------------------------------------

def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den) if num else ZERO


@dataclass(frozen=True)
class IntegerForm:
    """A rational matrix in integers: entry (i, j) is ``nums[i * cols + j] / den``
    over one positive common denominator.

    The form of a :class:`LinearMap` (:attr:`LinearMap.integer`) is
    canonical, with ``den`` the lcm of its entries' denominators.  A
    product's denominator is the product of its factors', exact but not
    necessarily the least one, so two forms are compared by
    :meth:`unequal_columns`, not by ``==``.
    """

    rows: int
    cols: int
    nums: tuple[int, ...]
    den: int = 1

    @staticmethod
    def identity(n: int) -> "IntegerForm":
        return IntegerForm(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @staticmethod
    def stack(top: "IntegerForm", bottom: "IntegerForm") -> "IntegerForm":
        """``top`` above ``bottom``, over the lcm of their denominators."""
        if top.cols != bottom.cols:
            raise DimensionError("stack needs equal column counts")
        if top.den == bottom.den:
            return IntegerForm(top.rows + bottom.rows, top.cols, top.nums + bottom.nums, top.den)
        den = math.lcm(top.den, bottom.den)
        p, q = den // top.den, den // bottom.den
        return IntegerForm(top.rows + bottom.rows, top.cols,
                           tuple([p * x for x in top.nums] + [q * x for x in bottom.nums]), den)

    def split(self, k: int) -> tuple["IntegerForm", "IntegerForm"]:
        """The first k rows and the rest."""
        cut = k * self.cols
        return (IntegerForm(k, self.cols, self.nums[:cut], self.den),
                IntegerForm(self.rows - k, self.cols, self.nums[cut:], self.den))

    def __matmul__(self, other: "IntegerForm") -> "IntegerForm":
        """The product self * other, forming a term only where both factors
        are nonzero."""
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by "
                                 f"{other.rows}x{other.cols}")
        n, b = other.cols, other.nums
        live = [[(j, y) for j, y in enumerate(b[k * n:(k + 1) * n]) if y]
                for k in range(other.rows)]
        a, width, out = self.nums, self.cols, []
        for i in range(self.rows):
            acc = [0] * n
            for x, row in zip(a[i * width:(i + 1) * width], live):
                if x:
                    for j, y in row:
                        acc[j] += x * y
            out.extend(acc)
        return IntegerForm(self.rows, n, tuple(out), self.den * other.den)

    def map(self) -> "LinearMap":
        """This block as a map of ``Fraction`` s."""
        return LinearMap(self.rows, self.cols, tuple(_ratio(x, self.den) for x in self.nums))

    def column(self, k: int) -> Vector:
        return tuple(_ratio(x, self.den) for x in self.nums[k::self.cols])

    def nonzero_columns(self) -> set[int]:
        n = self.cols
        return {k % n for k, x in enumerate(self.nums) if x} if any(self.nums) else set()

    def unequal_columns(self, other: "IntegerForm") -> set[int]:
        """The columns k at which column k of other differs from column k of
        self; every column, when the two differ in shape."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            return set(range(max(self.cols, other.cols)))
        a, b = self.nums, other.nums
        if self.den != other.den:
            a, b = [other.den * x for x in a], [self.den * y for y in b]
        if a == b:
            return set()
        n = self.cols
        return {k % n for k, (x, y) in enumerate(zip(a, b)) if x != y}


@dataclass(frozen=True)
class LinearMap:
    """Dense exact matrix, row-major.  Immutable and hashable."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} map needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}")

    # construction ----------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "LinearMap":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ent: list[Fraction] = []
        for row in rows:
            if len(row) != c:
                raise DimensionError("ragged rows")
            ent.extend(rat(x) for x in row)
        return LinearMap(r, c, tuple(ent))

    @staticmethod
    def from_columns(cols: Sequence[Vector], rows: int) -> "LinearMap":
        for col in cols:
            if len(col) != rows:
                raise DimensionError("column has wrong length")
        ent = tuple(cols[j][i] for i in range(rows) for j in range(len(cols)))
        return LinearMap(rows, len(cols), ent)

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(n, n, tuple(ONE if i == j else ZERO
                                     for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "LinearMap":
        return LinearMap(rows, cols, (ZERO,) * (rows * cols))

    # access ----------------------------------------------------------------

    @cached_property
    def integer(self) -> IntegerForm:
        """This map's canonical integer form, computed on first use.  It is not
        a field, so it takes no part in ``==`` or ``hash``."""
        den = 1
        for e in self.entries:
            if den % e.denominator:
                den = math.lcm(den, e.denominator)
        nums = tuple(e.numerator if den == 1 else e.numerator * (den // e.denominator)
                     for e in self.entries)
        return IntegerForm(self.rows, self.cols, nums, den)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def with_entry(self, i: int, j: int, value) -> "LinearMap":
        ent = list(self.entries)
        ent[i * self.cols + j] = rat(value)
        return LinearMap(self.rows, self.cols, tuple(ent))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "LinearMap":
        ent = tuple(self.entry(i, j) for i in range(r0, r1) for j in range(c0, c1))
        return LinearMap(r1 - r0, c1 - c0, ent)

    # algebra ---------------------------------------------------------------

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in sum")
        return LinearMap(self.rows, self.cols,
                         tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in difference")
        return LinearMap(self.rows, self.cols,
                         tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.rows, self.cols, tuple(-a for a in self.entries))

    def apply(self, v: Vector) -> Vector:
        """The product of this map with v, skipping every zero term; a
        coordinate with no nonzero term is ``ZERO``."""
        if len(v) != self.cols:
            raise DimensionError(f"map with {self.cols} columns applied to length-{len(v)} vector")
        live = [(j, x) for j, x in enumerate(v) if x]
        ent, cols, out = self.entries, self.cols, []
        for i in range(self.rows):
            base, acc = i * cols, None
            for j, x in live:
                a = ent[base + j]
                if a:
                    term = x if a == 1 else a if x == 1 else a * x
                    acc = term if acc is None else acc + term
            out.append(ZERO if acc is None else acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_identity(self) -> bool:
        n = self.cols
        return self.rows == n and all(a == 1 if k % (n + 1) == 0 else not a
                                      for k, a in enumerate(self.entries))

    def __repr__(self):
        rows = [[str(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        return f"LinearMap({self.rows}x{self.cols}: {rows})"


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """Matrix product f*g, i.e. the map applying g first: column j is f
    applied to column j of g."""
    if f.cols != g.rows:
        raise DimensionError(f"cannot compose {f.rows}x{f.cols} after {g.rows}x{g.cols}")
    return LinearMap.from_columns([f.apply(g.entries[j::g.cols]) for j in range(g.cols)],
                                  f.rows)


def matrix_of(rule: Callable[[Vector], Vector], cols: int, rows: int) -> LinearMap:
    """The rows x cols matrix whose column i is ``rule(e_i)``: a linear rule
    tabulated on the standard basis."""
    return LinearMap.from_columns([rule(vec_basis(cols, i)) for i in range(cols)], rows)


def tabulate(rule: Callable[[IntegerForm], IntegerForm], block: IntegerForm) -> LinearMap:
    """``rule(block)`` as a map, for a linear rule on blocks that acts on each
    column alone.  On a CompositionError the rule runs again column by
    column, so the error raised is the first one a column-by-column run meets."""
    try:
        return rule(block).map()
    except CompositionError:
        for k in range(block.cols):
            rule(IntegerForm(block.rows, 1, block.nums[k::block.cols], block.den))
        raise


def hstack(*maps: LinearMap) -> LinearMap:
    rows = maps[0].rows
    if any(m.rows != rows for m in maps):
        raise DimensionError("hstack needs equal row counts")
    ent = []
    for i in range(rows):
        for m in maps:
            ent.extend(m.row(i))
    return LinearMap(rows, sum(m.cols for m in maps), tuple(ent))


def vstack(*maps: LinearMap) -> LinearMap:
    cols = maps[0].cols
    if any(m.cols != cols for m in maps):
        raise DimensionError("vstack needs equal column counts")
    ent = []
    for m in maps:
        ent.extend(m.entries)
    return LinearMap(sum(m.rows for m in maps), cols, tuple(ent))


def direct_sum(f: LinearMap, g: LinearMap) -> LinearMap:
    top = hstack(f, LinearMap.zero(f.rows, g.cols))
    bot = hstack(LinearMap.zero(g.rows, f.cols), g)
    return vstack(top, bot)


# -- elimination ------------------------------------------------------------

def _rref(m: LinearMap) -> tuple[list[list[int]], int, list[int]]:
    """Reduced row echelon form with the leftmost-pivot, earliest-row rule.

    Fraction-free Gauss-Jordan elimination (Bareiss) on the integer form:
    each step scales every other row by the pivot and divides by the
    previous pivot, a division that is exact, so every pivot row ends with
    the last pivot at its pivot column.  Returns the integer rows, one
    positive denominator d and the pivot columns; the reduced rows are the
    integer rows over d, and the rows after the pivot rows are zero.
    """
    c, nums = m.cols, m.integer.nums
    a = [list(nums[i * c:(i + 1) * c]) for i in range(m.rows)]
    pivots: list[int] = []
    pr, prev = 0, 1
    for pc in range(c):
        hit = next((r for r in range(pr, m.rows) if a[r][pc]), None)
        if hit is None:
            continue
        a[pr], a[hit] = a[hit], a[pr]
        top = a[pr]
        p = top[pc]
        for r, row in enumerate(a):
            if r == pr:
                continue
            fac = row[pc]
            if fac:
                a[r] = [(p * x - fac * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                a[r] = [p * x // prev for x in row]
        prev = p
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    if prev < 0:
        a, prev = [[-x for x in row] for row in a], -prev
    return a, prev, pivots


def rank(f: LinearMap) -> int:
    return len(_rref(f)[2])


@dataclass(frozen=True)
class KernelChart:
    """Coordinates on ker f in the basis of :func:`kernel_basis`.

    Each basis vector has entry 1 at its own free column and 0 at the other
    free columns, so the coordinates of a kernel vector are its entries at
    the free columns (``coordinates . z``), and membership is the one check
    ``constraint . z == 0``.
    ``basis_form`` holds the basis vectors as the columns of one integer
    matrix; ``basis_map`` and ``basis`` read them in ``Fraction`` s.
    """

    constraint: LinearMap
    free: tuple[int, ...]
    basis_form: IntegerForm

    @cached_property
    def basis_map(self) -> LinearMap:
        """The basis vectors as the columns of one map."""
        return self.basis_form.map()

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        n = len(self.free)
        return tuple(self.basis_map.entries[k::n] for k in range(n))

    @cached_property
    def coordinates(self) -> IntegerForm:
        """The matrix that reads a vector's entries at the free columns."""
        n = self.constraint.cols
        return IntegerForm(len(self.free), n, tuple(int(j == i) for i in self.free
                                                    for j in range(n)))


def kernel_chart(f: LinearMap) -> KernelChart:
    """The chart of ker f, from one row reduction.

    Deterministic: the free columns are taken in increasing order and the
    pivot-coordinate entries are the negated reduced-row coefficients, so
    the basis matrix is in reduced column echelon form up to the sign
    convention above.
    """
    a, d, pivots = _rref(f)
    pivot_set = set(pivots)
    free = tuple(j for j in range(f.cols) if j not in pivot_set)
    n = len(free)
    nums = [0] * (f.cols * n)
    for k, j in enumerate(free):
        nums[j * n + k] = d
        for r, pc in enumerate(pivots):
            nums[pc * n + k] = -a[r][j]
    g = math.gcd(d, *nums)
    return KernelChart(f, free, IntegerForm(f.cols, n, tuple(x // g for x in nums), d // g))


def kernel_basis(f: LinearMap) -> tuple[Vector, ...]:
    """Basis of ker f, one vector per free column, entry 1 at that column."""
    return kernel_chart(f).basis


def solve(f: LinearMap, b: Vector) -> Optional[Vector]:
    """A particular solution of f x = b with free variables zero, or None."""
    if len(b) != f.rows:
        raise DimensionError(f"solve: {f.rows} rows but length-{len(b)} target")
    aug = hstack(f, LinearMap.from_columns([b], f.rows))
    a, d, pivots = _rref(aug)
    if f.cols in pivots:
        return None
    x = [ZERO] * f.cols
    for r, pc in enumerate(pivots):
        x[pc] = _ratio(a[r][f.cols], d)
    return tuple(x)


def right_inverse_on_image(f: LinearMap) -> LinearMap:
    """A section g of a surjective f (f @ g = identity), deterministically.

    Column i of g is the leftmost-pivot solution of f x = e_i, free
    variables zero; all columns are read off one row reduction of
    ``[f | identity]``.  f is onto exactly when no pivot falls in the
    identity block, and the first such pivot names the first basis vector
    with no preimage.
    """
    a, d, pivots = _rref(hstack(f, LinearMap.identity(f.rows)))
    blocked = [pc - f.cols for pc in pivots if pc >= f.cols]
    if blocked:
        raise NotSurjectiveError(f"no preimage for basis vector {blocked[0]}")
    ent = [ZERO] * (f.cols * f.rows)
    for r, pc in enumerate(pivots):
        ent[pc * f.rows:(pc + 1) * f.rows] = [_ratio(x, d) for x in a[r][f.cols:]]
    return LinearMap(f.cols, f.rows, tuple(ent))


def inverse(f: LinearMap) -> LinearMap:
    """A square f's section, which exists exactly when f is onto."""
    if f.rows != f.cols:
        raise NotInvertibleError(f"{f.rows}x{f.cols} map is not square")
    try:
        return right_inverse_on_image(f)
    except NotSurjectiveError:
        raise NotInvertibleError("map is singular") from None


def is_invertible(f: LinearMap) -> bool:
    return f.rows == f.cols and rank(f) == f.rows


def check_keys(what: str, table: dict, keys: Collection) -> None:
    """Raise StructureError unless ``table`` has exactly the given keys."""
    for key in keys:
        if key not in table:
            raise StructureError(f"missing {what} at {key}")
    for key in table:
        if key not in keys:
            raise StructureError(f"{what} at {key} is outside its table")


def check_table(what: str, table: dict, shapes: dict) -> None:
    """Raise StructureError unless ``table`` has exactly the keys of
    ``shapes`` and each entry is a map of the listed (rows, cols)."""
    for key, shape in shapes.items():
        m = table.get(key)
        if m is None or (m.rows, m.cols) != shape:
            raise StructureError(f"{what} at {key} has wrong shape")
    check_keys(what, table, shapes)


# -- serialization helpers ---------------------------------------------------

def map_to_dict(f: LinearMap) -> dict:
    return {"rows": f.rows, "cols": f.cols, "entries": [str(e) for e in f.entries]}


# The largest dimension an instance file may declare: a fiber dimension, or
# the row or column count of a matrix.  Empty N x 0 and 0 x N tables make
# N free in file size, while the maps a validator builds from them grow
# with N squared.
MAX_DIM = 64


def json_int(value, what: str, limit: int) -> int:
    """A declared integer of an instance file, at most ``limit``.  Only JSON
    integers are accepted: ``int()`` would silently truncate a float and
    read a boolean as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructureError(f"{what} must be an integer, got {value!r}")
    if value > limit:
        raise StructureError(f"{what} is {value}, above the bound {limit}")
    return value


_JSON_TYPES = {list: "array", dict: "object", str: "string", float: "number"}


def json_typed(value, json_type: type, what: str):
    """``value`` if it has the JSON type ``json_type`` (list, dict, str, or
    float for a number parsed as float): a string iterated as a list, or a
    list of pairs read by dict(), would pass."""
    if not isinstance(value, json_type):
        raise StructureError(f"{what} must be a JSON {_JSON_TYPES[json_type]}, got {value!r:.40}")
    return value


def map_from_dict(d: dict) -> LinearMap:
    return LinearMap(json_int(d["rows"], "rows", MAX_DIM),
                     json_int(d["cols"], "cols", MAX_DIM),
                     tuple(rat(e) for e in json_typed(d["entries"], list, "entries")))
