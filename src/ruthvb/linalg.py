"""Exact rational linear algebra kernel.

Scalars are integer numerators over one positive denominator per matrix;
``fractions.Fraction`` appears only at the text edges (parsing and printing
entries), in single vectors and in the cochain layer.  Vectors are
columns, maps act on the left, and every product is written ``f @ g``,
which applies ``g`` first.
Every routine with a choice to make (kernel bases, right inverses,
particular solutions) uses the same deterministic rule: row reduce with
the leftmost pivot in the earliest row, set free variables to zero, and
emit one kernel vector per free column with entry 1 at that column.  This
makes downstream splittings and connections reproducible.

A :class:`LinearMap` is the one matrix class: integer numerators over one
positive denominator, which need not be the least.  Products, sums,
negation, stacks and blocks run on the integers and reduce nothing; a
product's denominator is the product of its factors'.  A map is made
canonical when it is compared: ``==``, ``hash``, ``is_identity`` and the
row reduction read :attr:`LinearMap.canonical`, the numerators over the
least denominator, found with one gcd and kept on first use.
:attr:`LinearMap.entries` reads the entries as ``Fraction`` s, built on
first use, where text or single vectors need them.  Every structure check
builds thousands of small maps, so a map has no instance dict: its fields
and both cached forms live in ``__slots__``, the public fields are
read-only properties over them, and only this module touches the slots.

Most matrices here are small identity, zero or basis blocks.  An
identity is a shape constant: ``LinearMap.identity(n)`` is built once per
n and shared, as the product kernels are, since a map is immutable.
``LinearMap @ LinearMap`` multiplies whole blocks of columns in integer
numerators, so a structure table is one block expression on an identity
or basis block.  The block products of the fibered products run fused:
``f.split_product(top, bottom, cut=c)`` is ``f`` times ``top`` stacked on
``bottom``, split after row c, with neither the stack nor the whole
product built; each block's partial sums are scaled to the lcm of the two
denominators.  A product of m x k times k x n runs in one generated
function of the shape ``(m, k1, k2, n, cut)``, built on first use from the
shape alone and kept: it unpacks its operands to locals, writes out all
m * k * n terms, zeros included, which costs the interpreter less than
testing each factor, and builds the maps it returns; ``@`` is the case of
no second block and no cut, and returns one map.  The cost of building one
grows with m * k * n, so a product of more than ``MAX_PRODUCT_TERMS``
terms, or an empty one, runs a loop instead, forming a term only where
both factors are nonzero; a skipped term is an exact zero, so the result
is the same exact rational the dense sums give.  ``@`` and
``split_product`` decide the common case first and call the generated
function of its shape themselves: consistent shapes, no second block or
one over the first block's denominator, and at most ``MAX_PRODUCT_TERMS``
terms.  Everything else goes through ``_product``: scaling two
denominators, the loop, empty products and every shape error.  The
generated functions and the loop are the only arithmetic either way.
Sums, differences and negation map ``operator.add``, ``sub`` and ``neg``
over the numerators.  :meth:`LinearMap.apply`,
``vec_add`` and ``vec_sub`` act on single vectors of ``Fraction`` s and
form every term: the structure checks and conversions run on whole
blocks, so only the cochain layer and reference computations call them.
The row reduction is fraction-free Gauss-Jordan elimination on the
canonical numerators, so it divides only exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from operator import add, attrgetter, mul, neg, sub
from typing import Collection, Optional, Sequence

from .errors import DimensionError, NotInvertibleError, NotSurjectiveError, StructureError

Scalar = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


# The most digits either side of a rational literal may have.  Exponent
# notation is not a literal: "1e99999999" is ten characters, and reading it
# would build an integer of a hundred million digits.
MAX_DIGITS = 256

_LITERAL = re.compile(rf"([+-]?[0-9]{{1,{MAX_DIGITS}}})(?:/([0-9]{{1,{MAX_DIGITS}}}))?")


def _parts(value) -> tuple[int, int]:
    """The numerator and positive denominator of what :func:`rat` reads, a
    literal as written (not reduced); refuses what :func:`rat` refuses."""
    if isinstance(value, str):
        literal = _LITERAL.fullmatch(value)
        if literal is None:
            raise ValueError(f"{value!r:.40} is not a rational p/q of at most "
                             f"{MAX_DIGITS} digits each")
        num, den = literal.groups()
        if den is None:
            return int(num), 1
        if not int(den):
            raise ValueError(f"{value!r:.40} has a zero denominator")
        return int(num), int(den)
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat(value) -> Fraction:
    """Coerce ints, strings ``"p/q"`` or ``"p"``, or Fractions to a Fraction.
    Booleans are refused, so an instance file cannot smuggle one in as 0 or 1,
    and so is a string of any other form or with more than ``MAX_DIGITS``
    digits on either side, or with a zero denominator."""
    return value if isinstance(value, Fraction) else Fraction(*_parts(value))


# -- vectors ----------------------------------------------------------------

def vec_zero(n: int) -> Vector:
    return (ZERO,) * n


def vec_basis(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise DimensionError(f"vector lengths {len(a)} != {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise DimensionError(f"vector lengths {len(a)} != {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a: Vector) -> Vector:
    c = rat(c)
    return tuple(c * x for x in a)


# -- matrices ---------------------------------------------------------------

def _ratio(num: int, den: int) -> Fraction:
    return ZERO if not num else Fraction(num) if den == 1 else Fraction(num, den)


def _over_lcm(maps: Sequence["LinearMap"]) -> tuple[int, list[Sequence[int]]]:
    """The lcm of the maps' denominators, and each map's numerators over it."""
    den = maps[0]._den
    for m in maps:
        if m._den != den:
            den = math.lcm(*(f._den for f in maps))
            return den, [f._nums if f._den == den else [den // f._den * x for x in f._nums]
                         for f in maps]
    return den, [m._nums for m in maps]


# The most terms m * k * n a product may have and still run in a generated
# function: building one takes time and memory that grow with m * k * n
# (about 2 ms and under 1 MB at 8 x 8 x 8 = 512), so every product of
# m, k, n <= 8 fits and a product of MAX_DIM x MAX_DIM maps builds nothing.
MAX_PRODUCT_TERMS = 512


def _locals(name: str, count: int) -> str:
    return "".join(f"{name}{i}, " for i in range(count))


@cache
def _product_kernel(m: int, k1: int, k2: int, n: int, cut: Optional[int]):
    """``product(a, b, c, s, t, den)``: the m x (k1 + k2) block ``a`` times
    the k1 x n block ``b`` scaled by ``s`` stacked on the k2 x n block ``c``
    scaled by ``t``, over ``den``, every term written out: one map, or with
    a ``cut`` its first ``cut`` rows and the rest as two maps, built here.
    Each sum over one block is scaled once; with no second block nothing is
    scaled.  The operands are unpacked to locals first, which both compiles
    and runs faster than indexing them term by term.  The source is built
    from the shape alone, so no instance data reaches ``exec``."""
    k, sums = k1 + k2, []
    for i in range(m):
        for j in range(n):
            upper = " + ".join(f"a{i * k + l} * b{l * n + j}" for l in range(k1))
            lower = " + ".join(f"a{i * k + k1 + l} * c{l * n + j}" for l in range(k2))
            sums.append(f"({upper}) * s + ({lower}) * t" if upper and lower else
                        f"({lower}) * t" if lower else upper)

    def result(rows: int, terms: list[str]) -> str:
        return f"LinearMap({rows}, {n}, ({''.join(x + ', ' for x in terms)}), den)"

    results = (result(m, sums) if cut is None else
               f"{result(cut, sums[:cut * n])}, {result(m - cut, sums[cut * n:])}")
    scope: dict = {"LinearMap": LinearMap}
    exec(f"def product(a, b, c, s, t, den):\n"
         f"    ({_locals('a', m * k)}) = a\n"
         f"    ({_locals('b', k1 * n)}) = b\n"
         f"    ({_locals('c', k2 * n)}) = c\n"
         f"    return {results}\n", scope)
    return scope["product"]


def _product(f: "LinearMap", top: "LinearMap", bottom: Optional["LinearMap"],
             cut: Optional[int]) -> "LinearMap | tuple[LinearMap, LinearMap]":
    """``f @ vstack(top, bottom)`` over the denominator ``f.den *
    lcm(top.den, bottom.den)``, the stack never built: the whole product,
    or with a ``cut`` its first ``cut`` rows and the rest.  A product of at
    most ``MAX_PRODUCT_TERMS`` terms runs in the generated function of its
    shape, a larger or empty one in a loop that forms a term only where
    both factors are nonzero; either builds the maps it returns."""
    m, k1, n = f._rows, top._rows, top._cols
    k2, c, den, s, t = 0, (), top._den, 1, 1
    if bottom is not None:
        if bottom._cols != n:
            raise DimensionError("vstack needs equal column counts")
        k2, c = bottom._rows, bottom._nums
        if bottom._den != den:
            den = math.lcm(den, bottom._den)
            s, t = den // top._den, den // bottom._den
    k = k1 + k2
    if f._cols != k:
        raise DimensionError(f"cannot multiply {m}x{f._cols} by {k}x{n}")
    if cut is not None and not 0 <= cut <= m:
        raise DimensionError(f"cannot split {m} rows after row {cut}")
    # A kernel with no second block scales nothing, so an empty second
    # block over another denominator takes the loop.
    if 0 < m * k * n <= MAX_PRODUCT_TERMS and (k2 or s == 1):
        return _product_kernel(m, k1, k2, n, cut)(f._nums, top._nums, c, s, t, f._den * den)
    a, b = f._nums, [s * y for y in top._nums] + [t * y for y in c]
    live = [[(j, y) for j, y in enumerate(b[i * n:(i + 1) * n]) if y] for i in range(k)]
    out = []
    for i in range(m):
        acc = [0] * n
        for x, terms in zip(a[i * k:(i + 1) * k], live):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.extend(acc)
    den *= f._den
    if cut is None:
        return LinearMap(m, n, tuple(out), den)
    return (LinearMap(cut, n, tuple(out[:cut * n]), den),
            LinearMap(m - cut, n, tuple(out[cut * n:]), den))


def _check_shape(rows: int, cols: int, count: int) -> None:
    if rows < 0 or cols < 0:
        raise DimensionError("negative dimensions")
    if count != rows * cols:
        raise DimensionError(f"{rows}x{cols} map needs {rows * cols} entries, got {count}")


class LinearMap:
    """Dense exact matrix, row-major: entry (i, j) is ``nums[i * cols + j] / den``
    over one positive common denominator.  Immutable and hashable.

    The denominator need not be the least one: a product's is the product
    of its factors'.  ``==``, ``hash``, :meth:`is_identity` and the row
    reduction read :attr:`canonical`, the numerators over the least
    denominator, so equal maps compare equal however they were built.
    :attr:`entries` reads the entries as ``Fraction`` s, built on first use,
    where text or single vectors need them.

    This is the kernel's most-built object, so it has no instance dict:
    the four fields and the two caches live in slots (``_rows``, ``_cols``,
    ``_nums``, ``_den``, ``_canonical``, ``_entries``), which cost less to
    fill and to read than dict entries.  ``rows``, ``cols``, ``nums`` and
    ``den`` are read-only properties, the contract ``fractions.Fraction``
    keeps with ``_numerator`` and ``_denominator``: assigning one of them,
    or any attribute a slot does not name, raises ``AttributeError``.  Only
    this module reads or writes the slots.  There is no ``__setattr__``
    guard: ``copy`` and ``pickle`` restore a slotted object by assigning its
    slots, so a guard would make every copy raise.
    """

    __slots__ = ("_rows", "_cols", "_nums", "_den", "_canonical", "_entries")

    def __init__(self, rows: int, cols: int, nums: tuple[int, ...], den: int = 1):
        self._rows = rows
        self._cols = cols
        self._nums = nums
        self._den = den
        self._canonical = self._entries = None

    # attrgetter reads a slot in C, so these getters cost less than methods.
    rows = property(attrgetter("_rows"), doc="The number of rows.")
    cols = property(attrgetter("_cols"), doc="The number of columns.")
    nums = property(attrgetter("_nums"), doc="The integer numerators, row-major.")
    den = property(attrgetter("_den"), doc="The positive common denominator.")

    @property
    def canonical(self) -> tuple[tuple[int, ...], int]:
        """The numerators and the denominator over the least denominator,
        from one gcd on first use: ``gcd(den, *nums) == 1``."""
        form = self._canonical
        if form is None:
            nums, den = self._nums, self._den
            g = 1 if den == 1 else math.gcd(den, *nums)
            form = self._canonical = (nums, den) if g == 1 else (
                tuple(x // g for x in nums), den // g)
        return form

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self._rows != other._rows or self._cols != other._cols:
            return False
        # over one denominator, equal numerators are equal maps
        if self._den == other._den:
            return self._nums == other._nums
        return self.canonical == other.canonical

    def __hash__(self):
        return hash((self._rows, self._cols, *self.canonical))

    # construction ----------------------------------------------------------

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Sequence[Fraction]) -> "LinearMap":
        """The map with these ``Fraction`` entries, row-major, over the lcm
        of their denominators."""
        entries = tuple(entries)
        _check_shape(rows, cols, len(entries))
        den = 1
        for e in entries:
            if den % e.denominator:
                den = math.lcm(den, e.denominator)
        nums = tuple([e.numerator for e in entries] if den == 1 else
                     [e.numerator * (den // e.denominator) for e in entries])
        m = LinearMap(rows, cols, nums, den)
        m._entries = entries
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "LinearMap":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ent: list[Fraction] = []
        for row in rows:
            if len(row) != c:
                raise DimensionError("ragged rows")
            ent.extend(rat(x) for x in row)
        return LinearMap.from_entries(r, c, ent)

    @staticmethod
    def from_columns(cols: Sequence[Vector], rows: int) -> "LinearMap":
        for col in cols:
            if len(col) != rows:
                raise DimensionError("column has wrong length")
        return LinearMap.from_entries(rows, len(cols), [cols[j][i] for i in range(rows)
                                                        for j in range(len(cols))])

    @staticmethod
    @cache
    def identity(n: int) -> "LinearMap":
        """The n x n identity, a shape constant: built once per n and shared,
        which is safe since a map is immutable."""
        nums = [0] * (n * n)
        nums[::n + 1] = [1] * n
        return LinearMap(n, n, tuple(nums))

    @staticmethod
    def zero(rows: int, cols: int) -> "LinearMap":
        return LinearMap(rows, cols, (0,) * (rows * cols))

    # access ----------------------------------------------------------------

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as ``Fraction`` s, for text and single vectors, built
        on first use."""
        entries = self._entries
        if entries is None:
            den = self._den
            entries = self._entries = tuple(_ratio(x, den) for x in self._nums)
        return entries

    def _flat(self, i: int, j: int) -> int:
        """The position of entry (i, j) in the row-major numerators."""
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            raise DimensionError(f"no entry ({i}, {j}) in a {self._rows}x{self._cols} map")
        return i * self._cols + j

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[self._flat(i, j)]

    def column(self, k: int) -> Vector:
        if not 0 <= k < self._cols:
            raise DimensionError(f"no column {k} in a {self._rows}x{self._cols} map")
        return tuple(_ratio(x, self._den) for x in self._nums[k::self._cols])

    def with_entry(self, i: int, j: int, value) -> "LinearMap":
        ent = list(self.entries)
        ent[self._flat(i, j)] = rat(value)
        return LinearMap.from_entries(self._rows, self._cols, ent)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "LinearMap":
        """Rows r0 to r1 and columns c0 to c1, end excluded."""
        nums, cols = self._nums, self._cols
        if not (0 <= r0 <= r1 <= self._rows and 0 <= c0 <= c1 <= cols):
            raise DimensionError(f"no block [{r0}:{r1}, {c0}:{c1}] in a "
                                 f"{self._rows}x{cols} map")
        return LinearMap(r1 - r0, c1 - c0, tuple(x for i in range(r0, r1)
                                                 for x in nums[i * cols + c0:i * cols + c1]),
                         self._den)

    def split(self, k: int) -> tuple["LinearMap", "LinearMap"]:
        """The first k rows and the rest."""
        if not 0 <= k <= self._rows:
            raise DimensionError(f"cannot split {self._rows} rows after row {k}")
        cut = k * self._cols
        return (LinearMap(k, self._cols, self._nums[:cut], self._den),
                LinearMap(self._rows - k, self._cols, self._nums[cut:], self._den))

    def take_rows(self, rows: Sequence[int]) -> "LinearMap":
        """The rows at these indices, in this order."""
        nums, cols = self._nums, self._cols
        if not all(0 <= i < self._rows for i in rows):
            raise DimensionError(f"no rows {list(rows)} in a {self._rows}x{cols} map")
        return LinearMap(len(rows), cols, tuple(x for i in rows
                                                for x in nums[i * cols:(i + 1) * cols]),
                         self._den)

    def nonzero_columns(self) -> set[int]:
        n = self._cols
        return {k % n for k, x in enumerate(self._nums) if x} if any(self._nums) else set()

    def unequal_columns(self, other: "LinearMap") -> set[int]:
        """The columns k at which column k of other differs from column k of
        self; every column, when the two differ in shape."""
        if (self._rows, self._cols) != (other._rows, other._cols):
            return set(range(max(self._cols, other._cols)))
        a, b = self._nums, other._nums
        if self._den != other._den:
            a, b = [other._den * x for x in a], [self._den * y for y in b]
        if a == b:
            return set()
        n = self._cols
        return {k % n for k, (x, y) in enumerate(zip(a, b)) if x != y}

    # algebra ---------------------------------------------------------------

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        """The product self * other, over the product of the denominators.
        The common case is decided first: consistent shapes and at most
        ``MAX_PRODUCT_TERMS`` terms call the generated function of the shape
        ``(m, k, n)`` directly; an empty product, a larger one and a shape
        error go through ``_product``."""
        m, k, n = self._rows, self._cols, other._cols
        if k == other._rows and 0 < m * k * n <= MAX_PRODUCT_TERMS:
            return _product_kernel(m, k, 0, n, None)(self._nums, other._nums, (), 1, 1,
                                                     self._den * other._den)
        return _product(self, other, None, None)

    def split_product(self, top: "LinearMap", bottom: Optional["LinearMap"] = None, *,
                      cut: int) -> tuple["LinearMap", "LinearMap"]:
        """``self @ vstack(top, bottom)`` split after its first ``cut`` rows,
        from one generated function, without building the stack, the whole
        product or its halves: the same numerators over the same
        denominator ``self.den * lcm(top.den, bottom.den)``.  The common case
        is decided first: consistent shapes, no ``bottom`` or one over
        ``top``'s denominator, and at most ``MAX_PRODUCT_TERMS`` terms call
        the generated function of the shape directly; two denominators, an
        empty product, a larger one and a shape error go through
        ``_product``."""
        m, k1, n = self._rows, top._rows, top._cols
        if bottom is None:
            k2, c = 0, ()
        elif bottom._cols == n and bottom._den == top._den:
            k2, c = bottom._rows, bottom._nums
        else:
            return _product(self, top, bottom, cut)
        k = k1 + k2
        if self._cols == k and 0 <= cut <= m and 0 < m * k * n <= MAX_PRODUCT_TERMS:
            return _product_kernel(m, k1, k2, n, cut)(self._nums, top._nums, c, 1, 1,
                                                      self._den * top._den)
        return _product(self, top, bottom, cut)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        rows, cols = self._rows, self._cols
        if other._rows != rows or other._cols != cols:
            raise DimensionError("shape mismatch in sum")
        if self._den == other._den:
            return LinearMap(rows, cols, tuple(map(add, self._nums, other._nums)), self._den)
        den, (a, b) = _over_lcm((self, other))
        return LinearMap(rows, cols, tuple(map(add, a, b)), den)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        rows, cols = self._rows, self._cols
        if other._rows != rows or other._cols != cols:
            raise DimensionError("shape mismatch in difference")
        if self._den == other._den:
            return LinearMap(rows, cols, tuple(map(sub, self._nums, other._nums)), self._den)
        den, (a, b) = _over_lcm((self, other))
        return LinearMap(rows, cols, tuple(map(sub, a, b)), den)

    def __neg__(self) -> "LinearMap":
        return LinearMap(self._rows, self._cols, tuple(map(neg, self._nums)), self._den)

    def apply(self, v: Vector) -> Vector:
        """The product of this map with v, as ``Fraction`` s."""
        if len(v) != self._cols:
            raise DimensionError(f"map with {self._cols} columns applied to length-{len(v)} vector")
        ent, cols = self.entries, self._cols
        return tuple(sum(map(mul, ent[i * cols:(i + 1) * cols], v), ZERO)
                     for i in range(self._rows))

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_identity(self) -> bool:
        n, (nums, den) = self._cols, self.canonical
        return self._rows == n and den == 1 and all(
            x == 1 if k % (n + 1) == 0 else not x for k, x in enumerate(nums))

    def __repr__(self):
        rows = [[str(self.entry(i, j)) for j in range(self._cols)] for i in range(self._rows)]
        return f"LinearMap({self._rows}x{self._cols}: {rows})"


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """``f @ g``, the map applying g first.  Nothing in the package calls
    this; it is kept only because the benchmark's workloads and tracer still
    do."""
    return f @ g


def hstack(*maps: LinearMap) -> LinearMap:
    """The maps side by side, over the lcm of their denominators; maps over
    one denominator keep it."""
    rows, widths = maps[0]._rows, []
    for m in maps:
        if m._rows != rows:
            raise DimensionError("hstack needs equal row counts")
        widths.append(m._cols)
    den, parts = _over_lcm(maps)
    if rows == 1:
        return LinearMap(1, sum(widths), tuple(chain.from_iterable(parts)), den)
    nums = []
    for i in range(rows):
        for w, part in zip(widths, parts):
            nums += part[i * w:(i + 1) * w]
    return LinearMap(rows, sum(widths), tuple(nums), den)


def vstack(*maps: LinearMap) -> LinearMap:
    """The maps stacked top to bottom, over the lcm of their denominators;
    maps over one denominator keep it."""
    cols, rows = maps[0]._cols, 0
    for m in maps:
        if m._cols != cols:
            raise DimensionError("vstack needs equal column counts")
        rows += m._rows
    den, parts = _over_lcm(maps)
    return LinearMap(rows, cols, tuple(chain.from_iterable(parts)), den)


def direct_sum(f: LinearMap, g: LinearMap, overlap: int = 0) -> LinearMap:
    """``[f | 0; 0 | g]``, with g's first ``overlap`` columns under f's last
    ones; in integers over the lcm of the two denominators."""
    if not 0 <= overlap <= min(f._cols, g._cols):
        raise DimensionError(f"overlap {overlap} of a {f._cols}- and a {g._cols}-column map")
    den, (a, b) = _over_lcm((f, g))
    shift = f._cols - overlap
    right, left = [0] * (g._cols - overlap), [0] * shift
    nums = []
    for i in range(f._rows):
        nums += a[i * f._cols:(i + 1) * f._cols]
        nums += right
    for i in range(g._rows):
        nums += left
        nums += b[i * g._cols:(i + 1) * g._cols]
    return LinearMap(f._rows + g._rows, shift + g._cols, tuple(nums), den)


# -- elimination ------------------------------------------------------------

def _rref(m: LinearMap) -> tuple[list[list[int]], int, list[int]]:
    """Reduced row echelon form with the leftmost-pivot, earliest-row rule.

    Fraction-free Gauss-Jordan elimination (Bareiss) on the canonical
    numerators, which are m up to a positive scale: each step scales every
    other row by the pivot and divides by the previous pivot, a division
    that is exact, so every pivot row ends with the last pivot at its
    pivot column.  Returns the integer rows, one
    positive denominator d and the pivot columns; the reduced rows are the
    integer rows over d, and the rows after the pivot rows are zero.
    """
    c, (nums, _) = m._cols, m.canonical
    a = [list(nums[i * c:(i + 1) * c]) for i in range(m._rows)]
    pivots: list[int] = []
    pr, prev = 0, 1
    for pc in range(c):
        hit = next((r for r in range(pr, m._rows) if a[r][pc]), None)
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
        if pr == m._rows:
            break
    if prev < 0:
        a, prev = [[-x for x in row] for row in a], -prev
    return a, prev, pivots


def rank(f: LinearMap) -> int:
    return len(_rref(f)[2])


@dataclass(frozen=True, eq=False)
class KernelChart:
    """Coordinates on ker f in the basis of :func:`kernel_basis`.

    Each basis vector has entry 1 at its own free column and 0 at the other
    free columns, so the coordinates of a kernel vector are its entries at
    the free columns (``coordinates . z``), and membership is the one check
    ``constraint . z == 0``.
    ``basis_map`` holds the basis vectors as the columns of one map;
    ``basis`` reads them as ``Fraction`` vectors.  A chart compares and
    hashes by identity, so a table can be keyed by the charts it reads.
    """

    constraint: LinearMap
    free: tuple[int, ...]
    basis_map: LinearMap

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        n = len(self.free)
        return tuple(self.basis_map.entries[k::n] for k in range(n))

    @cached_property
    def coordinates(self) -> LinearMap:
        """The matrix that reads a vector's entries at the free columns."""
        n = self.constraint._cols
        return LinearMap(len(self.free), n, tuple(int(j == i) for i in self.free
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
    free = tuple(j for j in range(f._cols) if j not in pivot_set)
    n = len(free)
    nums = [0] * (f._cols * n)
    for k, j in enumerate(free):
        nums[j * n + k] = d
        for r, pc in enumerate(pivots):
            nums[pc * n + k] = -a[r][j]
    g = math.gcd(d, *nums)
    return KernelChart(f, free, LinearMap(f._cols, n, tuple(x // g for x in nums), d // g))


def kernel_basis(f: LinearMap) -> tuple[Vector, ...]:
    """Basis of ker f, one vector per free column, entry 1 at that column."""
    return kernel_chart(f).basis


def solve(f: LinearMap, b: Vector) -> Optional[Vector]:
    """A particular solution of f x = b with free variables zero, or None."""
    if len(b) != f._rows:
        raise DimensionError(f"solve: {f._rows} rows but length-{len(b)} target")
    aug = hstack(f, LinearMap.from_columns([b], f._rows))
    a, d, pivots = _rref(aug)
    if f._cols in pivots:
        return None
    x = [ZERO] * f._cols
    for r, pc in enumerate(pivots):
        x[pc] = _ratio(a[r][f._cols], d)
    return tuple(x)


def right_inverse_on_image(f: LinearMap) -> LinearMap:
    """A section g of a surjective f (f @ g = identity), deterministically.

    Column i of g is the leftmost-pivot solution of f x = e_i, free
    variables zero; all columns are read off one row reduction of
    ``[f | identity]``.  f is onto exactly when no pivot falls in the
    identity block, and the first such pivot names the first basis vector
    with no preimage.
    """
    a, d, pivots = _rref(hstack(f, LinearMap.identity(f._rows)))
    blocked = [pc - f._cols for pc in pivots if pc >= f._cols]
    if blocked:
        raise NotSurjectiveError(f"no preimage for basis vector {blocked[0]}")
    nums = [0] * (f._cols * f._rows)
    for r, pc in enumerate(pivots):
        nums[pc * f._rows:(pc + 1) * f._rows] = a[r][f._cols:]
    return LinearMap(f._cols, f._rows, tuple(nums), d)


def inverse(f: LinearMap) -> LinearMap:
    """A square f's section, which exists exactly when f is onto."""
    if f._rows != f._cols:
        raise NotInvertibleError(f"{f._rows}x{f._cols} map is not square")
    try:
        return right_inverse_on_image(f)
    except NotSurjectiveError:
        raise NotInvertibleError("map is singular") from None


def is_invertible(f: LinearMap) -> bool:
    return f._rows == f._cols and rank(f) == f._rows


def check_keys(what: str, table: dict, keys: Collection) -> dict:
    """A copy of ``table``, for the record that admits it to hold; raise
    StructureError unless ``table`` has exactly the given keys."""
    for key in keys:
        if key not in table:
            raise StructureError(f"missing {what} at {key}")
    for key in table:
        if key not in keys:
            raise StructureError(f"{what} at {key} is outside its table")
    return dict(table)


def check_table(what: str, table: dict, shapes: dict) -> dict:
    """A copy of ``table``, for the record that admits it to hold; raise
    StructureError unless ``table`` has exactly the keys of ``shapes`` and
    each entry is a map of the listed (rows, cols)."""
    for key, shape in shapes.items():
        m = table.get(key)
        if m is None or (m._rows, m._cols) != shape:
            raise StructureError(f"{what} at {key} has wrong shape")
    return check_keys(what, table, shapes)


# -- serialization helpers ---------------------------------------------------

def map_to_dict(f: LinearMap) -> dict:
    return {"rows": f._rows, "cols": f._cols, "entries": [str(e) for e in f.entries]}


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


def map_from_dict(d: dict, literals: dict, records: dict) -> LinearMap:
    """The map of a ``{"rows", "cols", "entries"}`` record, read straight to
    integers: the literals' numerators over the lcm of their denominators.

    ``literals`` and ``records`` are the decode tables of one file, empty
    when its first record is read.  ``literals`` maps each literal string
    read so far to its (numerator, denominator), and ``records`` maps the
    key ``(rows, cols, *entries)`` of each record read so far whose entries
    are all strings to its map, which equal records share, since a map is
    immutable.  A record holding a JSON number or boolean is never stored:
    ``1``, ``1.0`` and ``true`` are equal keys, and only ``1`` is read as a
    rational.  ``rows`` and ``cols`` are checked before the lookup, so a
    key's first two items are integers.  A record is refused with the error
    the literal rules give, in entry order, before its entry count is read,
    whether or not its literals were met before."""
    rows = json_int(d["rows"], "rows", MAX_DIM)
    cols = json_int(d["cols"], "cols", MAX_DIM)
    entries = json_typed(d["entries"], list, "entries")
    key = (rows, cols, *entries)
    try:
        m = records.get(key)
    except TypeError:  # an unhashable entry, refused below
        m = None
    if m is not None:
        return m
    parts, strings = [], True
    for e in entries:
        if type(e) is str:
            part = literals.get(e)
            if part is None:
                part = literals[e] = _parts(e)
        else:
            part, strings = _parts(e), False
        parts.append(part)
    _check_shape(rows, cols, len(parts))
    den = math.lcm(*{q for _, q in parts})
    m = LinearMap(rows, cols, tuple([p * (den // q) for p, q in parts]), den)
    if strings:
        records[key] = m
    return m
