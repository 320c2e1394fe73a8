"""Exact linear algebra kernel: frozen examples, errors, and algebraic laws."""

import copy
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ruthvb import linalg
from ruthvb.errors import (DimensionError, NotInvertibleError, NotSurjectiveError,
                           StructureError)
from ruthvb.linalg import (LinearMap, compose, inverse, kernel_basis, rank,
                           right_inverse_on_image, solve)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def small_matrix(rows, cols):
    return st.lists(fractions, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: LinearMap.from_entries(rows, cols, es))


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
    assert (chart.coordinates.apply(z) if in_kernel else None) == want
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


def _dense_apply(m, v):
    """Reference product: every term formed, zero or not."""
    return tuple(sum((m.entry(i, j) * v[j] for j in range(m.cols)), Fraction(0))
                 for i in range(m.rows))


def _dense_compose(f, g):
    return LinearMap.from_entries(f.rows, g.cols, tuple(
        sum((f.entry(i, k) * g.entry(k, j) for k in range(f.cols)), Fraction(0))
        for i in range(f.rows) for j in range(g.cols)))


# Zeros and units are the terms a sum could skip or leave unmultiplied.
sparse_fractions = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                             fractions)


def sparse_matrix(rows, cols):
    return st.lists(sparse_fractions, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: LinearMap.from_entries(rows, cols, es))


@pytest.mark.parametrize("rows, cols", [(r, c) for r in range(5) for c in range(5)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_zero_skipping_kernel_matches_dense_reference(rows, cols, data):
    """apply gives exactly the dense sums on every shape up to 4 x 4, empty
    ones included."""
    m = data.draw(sparse_matrix(rows, cols))
    v = tuple(data.draw(st.lists(sparse_fractions, min_size=cols, max_size=cols)))
    assert m.apply(v) == _dense_apply(m, v)


# Zeros and units, and numerators near +-2**62 and +-2**200 over
# denominators up to 2**40: word-size and wider integers, and common
# denominators of thousands of bits.
wide_fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.one_of(*(st.integers(s * 2 ** e - 2, s * 2 ** e + 2)
                                    for s in (1, -1) for e in (62, 200))),
              st.integers(1, 2 ** 40)))


def wide_matrix(rows, cols):
    return st.lists(wide_fractions, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: LinearMap.from_entries(rows, cols, es))


def _over(f, q):
    """f with numerators and denominator multiplied by q: the same map
    over a denominator that is not the least, as products leave them."""
    return LinearMap(f.rows, f.cols, tuple(q * x for x in f.nums), q * f.den)


def _form(f):
    return f.rows, f.cols, f.nums, f.den


# Rows, both block heights and columns 0..9: products of at most
# MAX_PRODUCT_TERMS terms m * k * n run in the generated function of their
# shape; larger ones and empty ones in the zero-skipping loop.
PRODUCT_SHAPES = [(m, k1, k2, n) for m in range(10) for k1 in range(10)
                  for k2 in range(10) for n in range(10)]


def _terms(m, k1, k2, n):
    return m * (k1 + k2) * n


# On the loop's side, products above the cap and empty ones, half each.
SHAPES_BY_PATH = {
    True: st.sampled_from([s for s in PRODUCT_SHAPES
                           if 0 < _terms(*s) <= linalg.MAX_PRODUCT_TERMS]),
    False: st.sampled_from([s for s in PRODUCT_SHAPES if _terms(*s) > linalg.MAX_PRODUCT_TERMS])
    | st.sampled_from([s for s in PRODUCT_SHAPES if not _terms(*s)]),
}


@pytest.mark.parametrize("kernel", [True, False], ids=["generated", "loop"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_split_product_matches_dense_reference_across_the_cap(kernel, data):
    """f.split_product(top, bottom, cut=c) is, for every c in 0..m, exactly
    the unfused (f @ vstack(top, bottom)).split(c): the same numerators
    over the same denominator f.den * lcm(top.den, bottom.den), equal to
    the dense Fraction sums.  Blocks come over equal and over different
    denominators, 0-row blocks included, and without a second block; f @ g
    is the case of no second block and c = m."""
    m, k1, k2, n = data.draw(SHAPES_BY_PATH[kernel])
    f = data.draw(wide_matrix(m, k1 + k2))
    top, bottom = data.draw(wide_matrix(k1, n)), data.draw(wide_matrix(k2, n))
    if data.draw(st.booleans(), label="equal denominators"):
        top, bottom = _over(top, bottom.den), _over(bottom, top.den)
    else:
        scales = st.sampled_from([1, 2, 3, 2 ** 40 + 1])
        top, bottom = _over(top, data.draw(scales)), _over(bottom, data.draw(scales))
    blocks = (top, bottom)
    if k2 == 0 and data.draw(st.booleans(), label="no second block"):
        blocks = (top,)
    stack = linalg.vstack(*blocks)
    whole = f @ stack
    assert whole == _dense_compose(f, stack) and whole.den == f.den * stack.den
    assert stack.den == math.lcm(*(b.den for b in blocks))
    for cut in range(m + 1):
        halves = f.split_product(*blocks, cut=cut)
        assert [_form(h) for h in halves] == [_form(h) for h in whole.split(cut)]


@pytest.mark.parametrize("m, k1, k2, n", [(3, 2, 0, 3), (3, 0, 2, 3), (3, 0, 0, 3),
                                         (9, 9, 0, 9), (9, 0, 9, 9)])
def test_an_empty_block_over_another_denominator_scales_the_other(m, k1, k2, n):
    """A 0-row block still sets the denominator of the stack, so the other
    block is scaled to the lcm, in the generated function and in the loop
    alike."""
    rng = random.Random(m * k1 + k2)

    def draw(rows, cols, den):
        return LinearMap(rows, cols, tuple(rng.choice((0, 1, -1, 2 ** 200 + 1, 3 - 2 ** 200))
                                           for _ in range(rows * cols)), den)

    f, top, bottom = draw(m, k1 + k2, 5), draw(k1, n, 3), draw(k2, n, 2)
    for cut in range(m + 1):
        assert [_form(h) for h in f.split_product(top, bottom, cut=cut)] == [
            _form(h) for h in (f @ linalg.vstack(top, bottom)).split(cut)]
        assert f.split_product(top, bottom, cut=cut)[0].den == 5 * 6


def test_a_product_kernel_is_built_once_per_key():
    """One generated function per (m, k1, k2, n, cut), whichever call
    needs it: f @ g and compose share the key (m, k, 0, n, None)."""
    linalg._product_kernel.cache_clear()
    f, g = LinearMap.identity(3), LinearMap.from_rows([[1, 2], [3, 4], [5, 6]])
    assert f @ g == g and compose(f, g) == g
    built = linalg._product_kernel.cache_info()
    assert (built.misses, built.hits, built.currsize) == (1, 1, 1)
    top, bottom = g.split(1)
    for _ in range(2):
        assert f.split_product(top, bottom, cut=1) == g.split(1)
    assert f.split_product(top, bottom, cut=2) == g.split(2)
    built = linalg._product_kernel.cache_info()
    assert (built.misses, built.hits, built.currsize) == (3, 2, 3)
    assert linalg._product_kernel(3, 1, 2, 2, 1) is linalg._product_kernel(3, 1, 2, 2, 1)


def test_a_product_at_max_dim_compiles_no_kernel():
    """An instance file may declare maps of MAX_DIM rows and columns; their
    products, whole or split over two blocks, run in the loop, so no
    function of more than MAX_PRODUCT_TERMS terms is generated."""
    d, rng = linalg.MAX_DIM, random.Random(7)
    f, g = (LinearMap(d, d, tuple(rng.choice((0, 0, 1, -1, 3, 2 ** 70)) for _ in range(d * d)),
                      den) for den in (3, 5))
    top, bottom = g.split(d // 2)
    linalg._product_kernel.cache_clear()
    product = f @ g
    halves = f.split_product(top, _over(bottom, 7), cut=d // 4)
    assert linalg._product_kernel.cache_info().currsize == 0
    assert product == _dense_compose(f, g)
    assert [_form(h) for h in halves] == [
        _form(h) for h in (f @ linalg.vstack(top, _over(bottom, 7))).split(d // 4)]


@pytest.mark.parametrize("shape, top, bottom, cut", [
    ((3, 3), (1, 2), (2, 3), 1),   # blocks of different widths
    ((3, 2), (1, 2), (2, 2), 1),   # a stack one row too tall
    ((3, 4), (1, 2), (2, 2), 1),   # and one row too short
    ((3, 3), (2, 2), None, 1),     # one block of the wrong height
    ((3, 3), (1, 2), (2, 2), 4),   # a cut below the last row
    ((3, 3), (1, 2), (2, 2), -1),  # and above the first
    ((2, 2), None, None, 3),       # split alone: a cut below the last row
    ((2, 2), None, None, -1),      # and above the first
    ((2, 2), None, None, (0, 3, 0, 2)),  # block alone: rows past the last
    ((2, 2), None, None, (1, 0, 0, 2)),  # rows ending before they start
    ((2, 2), None, None, (0, 2, 1, 3)),  # columns past the last
])
def test_a_stack_of_the_wrong_shape_raises_dimension_error(shape, top, bottom, cut):
    f = LinearMap.zero(*shape)
    blocks = [LinearMap.zero(*b) for b in (top, bottom) if b is not None]
    with pytest.raises(DimensionError):
        if blocks:
            f.split_product(*blocks, cut=cut)
        elif isinstance(cut, tuple):
            f.block(*cut)
        else:
            f.split(cut)


@pytest.mark.parametrize("method, args", [
    ("entry", (0, 2)), ("entry", (-1, 0)), ("entry", (2, 0)), ("entry", (0, -1)),
    ("with_entry", (0, 2, 9)), ("with_entry", (-1, 0, 9)),
    ("column", (2,)), ("column", (-1,)),
])
def test_an_index_outside_the_map_raises_dimension_error(method, args):
    """Entries and columns sit at flat positions of the numerators, where
    (0, 2) of a 2 x 2 map would be entry (1, 0) and -1 the last one."""
    f = LinearMap.from_rows([[1, 2], [3, 4]])
    assert (f.entry(1, 0), f.column(1), f.with_entry(1, 0, 9)) == (
        3, (2, 4), LinearMap.from_rows([[1, 2], [9, 4]]))
    with pytest.raises(DimensionError):
        getattr(f, method)(*args)


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
    assert linalg.map_from_dict(d, {}, {}) == f


def test_block_helpers():
    a = LinearMap.from_rows([[1, 2], [3, 4]])
    b = LinearMap.from_rows([[5], [6]])
    stacked = linalg.hstack(a, b)
    assert stacked.block(0, 2, 2, 3) == b
    assert linalg.direct_sum(a, LinearMap.identity(1)).entry(2, 2) == 1
    assert stacked.take_rows([1, 0, 1]) == LinearMap.from_rows([[3, 4, 6], [1, 2, 5], [3, 4, 6]])
    assert stacked.take_rows(()) == LinearMap.zero(0, 3)
    with pytest.raises(DimensionError):
        stacked.take_rows([2])


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
    return LinearMap.from_entries(rows, cols, ent)


@settings(max_examples=150, deadline=None)
@given(rational_maps())
def test_integer_form_reconstructs_entries_over_the_least_denominator(m):
    assert len(m.nums) == m.rows * m.cols
    assert tuple(Fraction(x, m.den) for x in m.nums) == m.entries
    assert m.den == math.lcm(*(e.denominator for e in m.entries))
    assert m.canonical == (m.nums, m.den)
    assert "nums" not in repr(m) and m == LinearMap.from_entries(m.rows, m.cols, m.entries)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_product_equals_compose(data):
    f = data.draw(rational_maps())
    g = data.draw(st.integers(0, 4).flatmap(lambda k: small_matrix(f.cols, k)))
    h = f @ g
    assert (h.rows, h.cols, h.den) == (f.rows, g.cols, f.den * g.den)
    assert LinearMap.from_entries(h.rows, h.cols,
                                  tuple(Fraction(x, h.den) for x in h.nums)) == compose(f, g)
    assert h.unequal_columns(compose(f, g)) == set()
    with pytest.raises(DimensionError):
        f @ LinearMap.zero(f.cols + 1, 1)


def _fraction_rref(m):
    """The reference: Gauss-Jordan elimination in Fractions, leftmost pivot
    in the earliest row."""
    a = [list(m.entries[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]
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
    form = chart.basis_map
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
    top, rest = linalg.vstack(f, g).split(2)
    assert top.unequal_columns(f) == set() and rest.unequal_columns(g) == set()
    assert f.unequal_columns(g) == {0, 1}
    assert f.unequal_columns(LinearMap.zero(1, 2)) == {0, 1}
    assert (f - LinearMap.from_rows([[Fraction(1, 2), 0], [0, 0]])).nonzero_columns() == {1}
    assert LinearMap.zero(0, 3).nonzero_columns() == set()
    assert f.column(0) == (Fraction(1, 2), Fraction(0))


# -- maps made canonical when compared --------------------------------------------

def _is_canonical(m):
    """m's canonical form holds its entries over the least denominator."""
    nums, den = m.canonical
    return (len(nums) == m.rows * m.cols and den > 0 and math.gcd(den, *nums) == 1
            and tuple(Fraction(x, den) for x in nums) == m.entries)


def _reference_hstack(*maps):
    """The entries of maps built from their Fractions, side by side."""
    return tuple(x for i in range(maps[0].rows)
                 for m in maps for x in m.entries[i * m.cols:(i + 1) * m.cols])


def _reference_direct_sum(f, g, overlap):
    """[f | 0; 0 | g] from the maps' Fractions, g's first overlap columns
    under f's last ones."""
    zero = Fraction(0)
    right, left = (zero,) * (g.cols - overlap), (zero,) * (f.cols - overlap)
    return (tuple(x for i in range(f.rows) for x in f.entries[i * f.cols:(i + 1) * f.cols] + right)
            + tuple(x for i in range(g.rows) for x in left + g.entries[i * g.cols:(i + 1) * g.cols]))


def wide_matrix(rows, cols):
    return st.lists(wide_fractions, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: LinearMap.from_entries(rows, cols, es))


shapes = st.integers(0, 4)


@st.composite
def one_map_four_ways(draw):
    """A map built from its Fractions, and the same map built by a product,
    by a sum and by a stack: products and sums leave common factors in
    their denominators, and stacks put blocks over a common one.  Last, the
    identity as the product of a diagonal map and its inverse, held over
    the product of their denominators."""
    rows, cols = draw(shapes), draw(shapes)
    m = draw(wide_matrix(rows, cols))
    scale = draw(st.lists(fractions.filter(bool), min_size=cols, max_size=cols))
    d = LinearMap.from_rows([[scale[i] if i == j else 0 for j in range(cols)]
                             for i in range(cols)])
    other = draw(small_matrix(rows, cols))
    cut_row, cut_col = draw(st.integers(0, rows)), draw(st.integers(0, cols))
    return m, [compose(compose(m, d), inverse(d)),
               (m - other) + other,
               linalg.vstack(m.block(0, cut_row, 0, cols), m.block(cut_row, rows, 0, cols)),
               linalg.hstack(m.block(0, rows, 0, cut_col), m.block(0, rows, cut_col, cols))], \
        compose(d, inverse(d))


@settings(max_examples=100, deadline=None)
@given(one_map_four_ways(), st.data())
def test_maps_are_canonical_and_compare_by_their_entries(built, data):
    m, ways, unit = built
    identity = LinearMap.identity(m.cols)
    assert _is_canonical(unit) and unit.is_identity()
    assert unit == identity and identity == unit and hash(unit) == hash(identity)
    assert all(_is_canonical(x) for x in [m, *ways])
    assert all(x == m and hash(x) == hash(m) and x.entries == m.entries for x in ways)
    other = data.draw(small_matrix(m.rows, m.cols) | rational_maps())
    assert _is_canonical(other)
    same = (other.rows, other.cols) == (m.rows, m.cols) and other.entries == m.entries
    assert (other == m) == same and (other != m) == (not same)
    if same:
        assert hash(other) == hash(m)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_a_product_over_a_larger_denominator_is_the_identity(n):
    """(1/2 I) @ (2 I) is held over 2 with numerators 2, not reduced; it
    equals, hashes and reads as the identity, and its canonical form is the
    identity's."""
    half = LinearMap.from_entries(n, n, [Fraction(int(i == j), 2) for i in range(n)
                                         for j in range(n)])
    one = half @ LinearMap.from_rows([[2 * int(i == j) for j in range(n)] for i in range(n)])
    identity = LinearMap.identity(n)
    assert one.den == (2 if n else 1) and one.nums == tuple(2 * x for x in identity.nums)
    assert one == identity and hash(one) == hash(identity) and one.is_identity()
    assert one.canonical == (identity.nums, 1) and one.entries == identity.entries


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_arithmetic_matches_a_fraction_reference(data):
    rows, cols, more = data.draw(shapes), data.draw(shapes), data.draw(shapes)
    f, g = data.draw(wide_matrix(rows, cols)), data.draw(small_matrix(rows, cols))
    wide, tall = data.draw(wide_matrix(rows, more)), data.draw(small_matrix(more, cols))
    a, b = f.entries, g.entries
    overlap = data.draw(st.integers(0, min(cols, more)))
    results = {
        "sum": (f + g, tuple(x + y for x, y in zip(a, b))),
        "difference": (f - g, tuple(x - y for x, y in zip(a, b))),
        "negation": (-f, tuple(-x for x in a)),
        "hstack": (linalg.hstack(f, wide, g), _reference_hstack(f, wide, g)),
        "vstack": (linalg.vstack(f, tall, g), a + tall.entries + b),
        "direct sum": (linalg.direct_sum(f, wide, overlap),
                       _reference_direct_sum(f, wide, overlap)),
    }
    for name, (got, want) in results.items():
        assert _is_canonical(got) and got.entries == want, name
    with pytest.raises(DimensionError):
        f + LinearMap.zero(rows + 1, cols)
    with pytest.raises(DimensionError):
        linalg.hstack(f, LinearMap.zero(rows + 1, 1))
    with pytest.raises(DimensionError):
        linalg.vstack(f, LinearMap.zero(1, cols + 1))
    with pytest.raises(DimensionError):
        linalg.direct_sum(f, wide, min(cols, more) + 1)


# -- matrix literals read straight to integers ----------------------------------

literals = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30), st.integers(0, 12)),
    st.integers(-30, 30).map(str),
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from(["-0", "+3", "007/010", "1.5", "1e3", "", " 1", "1/-2", "x",
                     "9" * (linalg.MAX_DIGITS + 1), f"1/{'3' * (linalg.MAX_DIGITS + 1)}",
                     True, False, 0.5, None, [1]]))


def _fraction_path(d):
    """The map of a record read through one Fraction per entry."""
    return LinearMap.from_entries(linalg.json_int(d["rows"], "rows", linalg.MAX_DIM),
                                  linalg.json_int(d["cols"], "cols", linalg.MAX_DIM),
                                  tuple(linalg.rat(e) for e in d["entries"]))


def _read(d):
    """The map of one record, read through fresh decode tables."""
    return linalg.map_from_dict(d, {}, {})


def _outcome(read, d):
    try:
        m = read(d)
        return m.rows, m.cols, m.canonical
    except (ValueError, TypeError, DimensionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 3), st.integers(-1, 3), st.data())
def test_map_from_dict_matches_the_fraction_path(rows, cols, data):
    """The canonical form, or the error type and text, of a record's map
    read straight to integers equals that of the map built from one
    Fraction per entry; mostly well-formed entries, and sometimes one too
    many or too few."""
    count = max(rows, 0) * max(cols, 0) + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
    well_formed = literals.filter(lambda e: isinstance(e, (int, Fraction)) or (
        isinstance(e, str) and "/" in e and not e.endswith("/0")))
    entries = data.draw(st.lists(st.one_of(well_formed, well_formed, literals),
                                 min_size=max(count, 0), max_size=max(count, 0)))
    d = {"rows": rows, "cols": cols, "entries": entries}
    got = _outcome(_read, d)
    assert got == _outcome(_fraction_path, d)
    if len(got) == 3:
        assert _is_canonical(_read(d))


# -- the slotted map's contract --------------------------------------------------

def _unreduced():
    """A 2 x 3 map over 4, whose least denominator is 2."""
    return LinearMap(2, 3, (2, 0, 4, -6, 8, 2), 4)


@pytest.mark.parametrize("name", ["rows", "cols", "nums", "den", "label"])
def test_a_map_refuses_every_assignment(name):
    m = _unreduced()
    with pytest.raises(AttributeError):
        setattr(m, name, 1)
    assert _form(m) == (2, 3, (2, 0, 4, -6, 8, 2), 4)


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("read", [False, True], ids=["before-reads", "after-reads"])
def test_a_copied_map_is_equal_with_the_same_hash(copier, read):
    """Copies and pickles made before or after the two cached forms are
    first read compare equal, hash alike and read the same forms."""
    m = _unreduced()
    if read:
        assert m.canonical and m.entries
    c = copier(m)
    assert c == m and hash(c) == hash(m) and _form(c) == _form(m)
    assert c.canonical == ((1, 0, 2, -3, 4, 1), 2) and c.entries == m.entries


def test_no_constructor_gives_a_map_an_instance_dict():
    """Every way a map is built, the products on both their paths, gives
    a map with only its slots."""
    f, g = _unreduced(), LinearMap.from_rows([[1, 0], [2, 1], [0, 3]])
    big = LinearMap.identity(linalg.MAX_DIM)
    maps = [f, LinearMap.from_entries(1, 2, [Fraction(1, 2), Fraction(3)]),
            LinearMap.identity(3), LinearMap.zero(2, 4), f @ g, big @ big,
            *f.split_product(*g.split(1), cut=1), *big.split_product(big, cut=5),
            linalg.hstack(f, f), linalg.vstack(f, f), linalg.direct_sum(f, g, 1),
            linalg.kernel_chart(f).basis_map]
    assert not [m for m in maps if hasattr(m, "__dict__")]


def test_only_linalg_reads_the_slots():
    """No module or test but ``linalg`` names a map's slots: the rest of
    the code reads the public properties."""
    root = Path(__file__).resolve().parent.parent
    slot = re.compile(rf"\.({'|'.join(LinearMap.__slots__)})\b")
    texts = {path.relative_to(root): path.read_text()
             for path in [*root.glob("src/**/*.py"), *root.glob("tests/*.py")]
             if path.name != "linalg.py"}
    assert [(path, hit.group()) for path, text in texts.items()
            if (hit := slot.search(text))] == []
