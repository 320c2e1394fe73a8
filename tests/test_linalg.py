"""Exact linear algebra kernel: frozen examples, errors, and algebraic laws."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ruthvb import linalg
from ruthvb.errors import (CompositionError, DimensionError, NotInvertibleError,
                           NotSurjectiveError, StructureError)
from ruthvb.linalg import (IntegerForm, LinearMap, compose, inverse,
                           kernel_basis, rank, right_inverse_on_image, solve)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def small_matrix(rows, cols):
    return st.lists(fractions, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: LinearMap(rows, cols, tuple(es)))


def test_compose_identity_and_zero():
    m = LinearMap.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert compose(LinearMap.identity(3), m) == m
    assert compose(m, LinearMap.identity(3)) == m
    assert compose(LinearMap.zero(2, 3), m) == LinearMap.zero(2, 3)


def test_compose_hand_multiplication():
    f = LinearMap.from_rows([[1, 1], [0, 1]])
    g = LinearMap.from_rows([[1, 0], [1, 1]])
    assert compose(f, g) == LinearMap.from_rows([[2, 1], [1, 1]])


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionError):
        compose(LinearMap.zero(2, 3), LinearMap.zero(2, 3))


@settings(max_examples=40, deadline=None)
@given(small_matrix(2, 2), small_matrix(2, 3), small_matrix(3, 2))
def test_compose_associative(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_kernel_of_zero_is_standard_basis():
    ker = kernel_basis(LinearMap.zero(2, 2))
    assert ker == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_kernel_of_identity_is_empty():
    assert kernel_basis(LinearMap.identity(3)) == ()


def test_kernel_one_relation():
    # documented normalization: entry 1 at the free column
    ker = kernel_basis(LinearMap.from_rows([[1, 1]]))
    assert ker == ((Fraction(-1), Fraction(1)),)


@settings(max_examples=40, deadline=None)
@given(small_matrix(2, 3))
def test_kernel_vectors_annihilate_and_count(f):
    ker = kernel_basis(f)
    assert len(ker) == f.cols - rank(f)
    for v in ker:
        assert all(e == 0 for e in f.apply(v))


@settings(max_examples=60, deadline=None)
@given(small_matrix(2, 4), st.lists(fractions, min_size=2, max_size=2), st.booleans())
def test_kernel_chart_coords_agree_with_solve(f, coeffs, off_kernel):
    chart = linalg.kernel_chart(f)
    z = linalg.vec_zero(f.cols)
    for c, b in zip(coeffs, chart.basis):
        z = linalg.vec_add(z, linalg.vec_scale(c, b))
    if off_kernel:
        z = linalg.vec_add(z, linalg.vec_basis(f.cols, 0))
    want = solve(LinearMap.from_columns(list(chart.basis), f.cols), z)
    # a vector is in the kernel when the constraint kills it, and its
    # coordinates are then its entries at the free columns
    in_kernel = not any(chart.constraint.apply(z))
    assert (chart.coordinates.map().apply(z) if in_kernel else None) == want
    if want is not None:
        assert chart.basis_map.apply(want) == z


def test_right_inverse_identity():
    assert right_inverse_on_image(LinearMap.identity(3)) == LinearMap.identity(3)


def test_right_inverse_leftmost_pivot():
    f = LinearMap.from_rows([[1, 0]])
    assert right_inverse_on_image(f) == LinearMap.from_rows([[1], [0]])


def test_right_inverse_not_surjective():
    with pytest.raises(NotSurjectiveError):
        right_inverse_on_image(LinearMap.zero(1, 2))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(0, 3), st.integers(0, 4)).flatmap(lambda rc: small_matrix(*rc)))
def test_right_inverse_section_property(f):
    """A section of a surjective f whose columns are the leftmost-pivot
    solutions of f x = e_i; a map that is not onto has none."""
    if rank(f) < f.rows:
        with pytest.raises(NotSurjectiveError):
            right_inverse_on_image(f)
        return
    g = right_inverse_on_image(f)
    assert compose(f, g).is_identity()
    assert g == LinearMap.from_columns(
        [solve(f, linalg.vec_basis(f.rows, i)) for i in range(f.rows)], f.cols)


@given(st.tuples(st.integers(0, 3), st.integers(0, 4)).flatmap(lambda rc: small_matrix(*rc)))
def test_matrix_of_tabulates_a_map(m):
    assert linalg.matrix_of(m.apply, m.cols, m.rows) == m


@given(st.tuples(st.integers(0, 3), st.integers(0, 4)).flatmap(lambda rc: small_matrix(*rc)))
def test_tabulate_applies_a_block_rule_to_a_block(m):
    assert linalg.tabulate(lambda b: m.integer @ b, IntegerForm.identity(m.cols)) == m
    assert m.integer.map() == m


def test_tabulate_raises_the_error_a_column_by_column_run_meets_first():
    """Column 1 fails the first step and column 0 only the second: run
    column by column, the rule fails first at column 0, in the second step."""
    def rule(block):
        if any(block.split(1)[1].nums):
            raise CompositionError("first step")
        if any(block.split(1)[0].nums):
            raise CompositionError("second step")
        return block

    with pytest.raises(CompositionError, match="second step"):
        linalg.tabulate(rule, IntegerForm.identity(2))
    with pytest.raises(CompositionError, match="first step"):
        linalg.tabulate(rule, IntegerForm(2, 1, (0, 1)))


def _dense_apply(m, v):
    """Reference product: every term formed, zero or not."""
    return tuple(sum((m.entry(i, j) * v[j] for j in range(m.cols)), Fraction(0))
                 for i in range(m.rows))


def _dense_compose(f, g):
    return LinearMap(f.rows, g.cols, tuple(
        sum((f.entry(i, k) * g.entry(k, j) for k in range(f.cols)), Fraction(0))
        for i in range(f.rows) for j in range(g.cols)))


# Zeros and units are the terms the kernel skips or does not multiply.
sparse_fractions = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                             fractions)


def sparse_matrix(rows, cols):
    return st.lists(sparse_fractions, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: LinearMap(rows, cols, tuple(es)))


@pytest.mark.parametrize("rows, cols", [(r, c) for r in range(5) for c in range(5)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_zero_skipping_kernel_matches_dense_reference(rows, cols, data):
    """apply and compose give exactly the dense sums on every shape up to
    4 x 4, empty ones included."""
    m = data.draw(sparse_matrix(rows, cols))
    v = tuple(data.draw(st.lists(sparse_fractions, min_size=cols, max_size=cols)))
    assert m.apply(v) == _dense_apply(m, v)
    g = data.draw(st.integers(0, 4).flatmap(lambda k: sparse_matrix(cols, k)))
    assert compose(m, g) == _dense_compose(m, g)


class Counting:
    """A stand-in scalar that counts the products and sums formed with it;
    it is false when it stands for zero."""

    def __init__(self, log: Counter, zero: bool = False):
        self.log, self.zero = log, zero

    def __bool__(self):
        return not self.zero

    def __rmul__(self, a):
        self.log["products"] += 1
        return self

    def __radd__(self, other):
        self.log["sums"] += 1
        return self

    __add__ = __radd__


@pytest.mark.parametrize("n", [2, 4, 6])
def test_apply_forms_no_product_with_a_zero_factor(n):
    """Operation counts, independent of the machine: a product is formed
    only where the matrix entry and the vector entry are both nonzero, and
    a unit entry passes its vector entry through unmultiplied."""
    def count(m, zeros=()):
        log = Counter()
        m.apply(tuple(Counting(log, j in zeros) for j in range(m.cols)))
        return log["products"], log["sums"]

    twice = LinearMap(n, n, tuple(2 * e for e in LinearMap.identity(n).entries))
    assert count(LinearMap.identity(n)) == (0, 0)
    assert count(twice) == (n, 0)
    assert count(LinearMap.zero(n, n)) == (0, 0)
    full = LinearMap(n, n, (Fraction(3),) * (n * n))
    assert count(full) == (n * n, n * (n - 1))
    assert count(full, zeros=range(0, n, 2)) == (n * (n // 2), n * (n // 2 - 1))


def test_is_identity_reads_entries():
    assert LinearMap.identity(0).is_identity() and LinearMap.identity(3).is_identity()
    assert not LinearMap.identity(3).with_entry(0, 2, 1).is_identity()
    assert not LinearMap.identity(3).with_entry(1, 1, 2).is_identity()
    assert not LinearMap.zero(2, 3).is_identity() and not LinearMap.zero(0, 1).is_identity()


def test_solve_examples():
    assert solve(LinearMap.identity(2), (Fraction(3), Fraction(4))) == \
        (Fraction(3), Fraction(4))
    assert solve(LinearMap.zero(2, 2), (Fraction(0), Fraction(0))) == \
        (Fraction(0), Fraction(0))
    assert solve(LinearMap.from_rows([[2]]), (Fraction(3),)) == (Fraction(3, 2),)
    assert solve(LinearMap.zero(1, 1), (Fraction(1),)) is None
    with pytest.raises(DimensionError):
        solve(LinearMap.identity(2), (Fraction(1),))


@settings(max_examples=40, deadline=None)
@given(small_matrix(2, 2), st.lists(fractions, min_size=2, max_size=2))
def test_solve_is_a_solution(f, b):
    b = tuple(b)
    x = solve(f, b)
    if x is not None:
        assert f.apply(x) == b


def test_inverse_round_trip():
    f = LinearMap.from_rows([[2, 1], [1, 1]])
    assert compose(f, inverse(f)).is_identity()
    assert compose(inverse(f), f).is_identity()
    with pytest.raises(NotInvertibleError):
        inverse(LinearMap.from_rows([[1, 1], [1, 1]]))
    with pytest.raises(NotInvertibleError):
        inverse(LinearMap.zero(1, 2))


def test_serialization_strings():
    f = LinearMap.from_rows([[Fraction(3, 2), 1], [0, Fraction(-5)]])
    d = linalg.map_to_dict(f)
    assert d["entries"] == ["3/2", "1", "0", "-5"]
    assert linalg.map_from_dict(d) == f


def test_block_helpers():
    a = LinearMap.from_rows([[1, 2], [3, 4]])
    b = LinearMap.from_rows([[5], [6]])
    stacked = linalg.hstack(a, b)
    assert stacked.block(0, 2, 2, 3) == b
    assert linalg.direct_sum(a, LinearMap.identity(1)).entry(2, 2) == 1


@pytest.mark.parametrize("table, message", [
    ({}, "cell at a has wrong shape"),
    ({"a": LinearMap.zero(2, 1)}, "cell at a has wrong shape"),
    ({"a": LinearMap.zero(1, 2), "b": LinearMap.zero(1, 2)}, "cell at b is outside its table"),
])
def test_check_table_rejects_missing_misshapen_and_stray_entries(table, message):
    linalg.check_table("cell", {"a": LinearMap.zero(1, 2)}, {"a": (1, 2)})
    with pytest.raises(StructureError, match=message):
        linalg.check_table("cell", table, {"a": (1, 2)})


# -- the integer form and fraction-free elimination ------------------------------

wide_fractions = st.one_of(sparse_fractions, fractions,
                           st.fractions(min_value=-10**6, max_value=10**6,
                                        max_denominator=10**12))


@st.composite
def rational_maps(draw, max_rows=4, max_cols=5):
    """Maps of every shape up to max_rows x max_cols, empty ones included,
    with zeros, units, small and large-denominator rationals; often rank
    deficient, with the last row a combination of the others."""
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    ent = draw(st.lists(wide_fractions, min_size=rows * cols, max_size=rows * cols))
    if rows > 1 and draw(st.booleans()):
        c = draw(st.lists(fractions, min_size=rows - 1, max_size=rows - 1))
        ent[(rows - 1) * cols:] = [sum((c[i] * ent[i * cols + j] for i in range(rows - 1)),
                                       Fraction(0)) for j in range(cols)]
    return LinearMap(rows, cols, tuple(ent))


@settings(max_examples=150, deadline=None)
@given(rational_maps())
def test_integer_form_reconstructs_entries_over_the_least_denominator(m):
    form = m.integer
    assert (form.rows, form.cols) == (m.rows, m.cols)
    assert tuple(Fraction(x, form.den) for x in form.nums) == m.entries
    assert form.den == math.lcm(*(e.denominator for e in m.entries))
    assert m.integer is form and "integer" not in repr(m) and m == LinearMap(
        m.rows, m.cols, m.entries)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_product_equals_compose(data):
    f = data.draw(rational_maps())
    g = data.draw(st.integers(0, 4).flatmap(lambda k: small_matrix(f.cols, k)))
    h = f.integer @ g.integer
    assert LinearMap(h.rows, h.cols, tuple(Fraction(x, h.den) for x in h.nums)) == compose(f, g)
    assert h.unequal_columns(compose(f, g).integer) == set()
    with pytest.raises(DimensionError):
        f.integer @ LinearMap.zero(f.cols + 1, 1).integer


def _fraction_rref(m):
    """The reference: Gauss-Jordan elimination in Fractions, leftmost pivot
    in the earliest row."""
    a = [list(m.row(i)) for i in range(m.rows)]
    pivots, pr = [], 0
    for pc in range(m.cols):
        hit = next((r for r in range(pr, m.rows) if a[r][pc]), None)
        if hit is None:
            continue
        a[pr], a[hit] = a[hit], a[pr]
        a[pr] = [x / a[pr][pc] for x in a[pr]]
        for r in range(m.rows):
            if r != pr and a[r][pc]:
                a[r] = [x - a[r][pc] * y for x, y in zip(a[r], a[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return a, pivots


def _reference_kernel(m):
    a, pivots = _fraction_rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][j]
        basis.append(tuple(v))
    return tuple(free), tuple(basis)


@settings(max_examples=200, deadline=None)
@given(rational_maps(), st.data())
def test_fraction_free_elimination_matches_a_fraction_reference(m, data):
    a, d, pivots = linalg._rref(m)
    want, want_pivots = _fraction_rref(m)
    assert d > 0 and pivots == want_pivots
    assert [[Fraction(x, d) for x in row] for row in a] == want
    chart = linalg.kernel_chart(m)
    free, basis = _reference_kernel(m)
    assert (chart.free, chart.basis) == (free, basis)
    form = chart.basis_form
    assert (form.rows, form.cols) == (m.cols, len(free))
    assert tuple(form.column(k) for k in range(len(free))) == basis
    b = tuple(data.draw(st.lists(wide_fractions, min_size=m.rows, max_size=m.rows)))
    aug, aug_pivots = _fraction_rref(linalg.hstack(m, LinearMap.from_columns([b], m.rows)))
    want_x = None
    if m.cols not in aug_pivots:
        x = [Fraction(0)] * m.cols
        for r, pc in enumerate(aug_pivots):
            x[pc] = aug[r][m.cols]
        want_x = tuple(x)
    assert solve(m, b) == want_x
    if len(pivots) < m.rows:
        with pytest.raises(NotSurjectiveError):
            right_inverse_on_image(m)
    else:
        section = right_inverse_on_image(m)
        assert section == LinearMap.from_columns(
            [solve(m, linalg.vec_basis(m.rows, i)) for i in range(m.rows)], m.cols)


def test_integer_form_blocks():
    f = LinearMap.from_rows([[Fraction(1, 2), 0], [0, 3]])
    g = LinearMap.from_rows([[1, 0], [0, Fraction(2, 3)]])
    top, rest = linalg.IntegerForm.stack(f.integer, g.integer).split(2)
    assert top.unequal_columns(f.integer) == set() and rest.unequal_columns(g.integer) == set()
    assert f.integer.unequal_columns(g.integer) == {0, 1}
    assert f.integer.unequal_columns(LinearMap.zero(1, 2).integer) == {0, 1}
    assert (f - LinearMap.from_rows([[Fraction(1, 2), 0], [0, 0]])).integer.nonzero_columns() \
        == {1}
    assert LinearMap.zero(0, 3).integer.nonzero_columns() == set()
    assert f.integer.column(0) == (Fraction(1, 2), Fraction(0))
