"""Groupoid cochains: coboundary, module structure, twisted differentials,
and normalization."""

import random
from fractions import Fraction

import pytest

from ruthvb.cochains import (ScalarCochain, SectionCochain, coboundary, star,
                             twisted_differential)
from ruthvb.errors import DegreeError, StructureError
from ruthvb.groupoid import pair_groupoid, z2_groupoid
from ruthvb.harness.fixtures import line_complex_over_point, z2_ruth
from ruthvb.harness import generators as gen
from ruthvb.linalg import LinearMap
from ruthvb.twoterm import TwoTermComplex

from test_ruth import is_normalized, z2_line_section


def rand_scalar_cochain(rng, g, degree):
    return ScalarCochain(g, degree, {k: gen.rand_fraction(rng)
                                     for k in g.nerve_tuples(degree)})


def test_coboundary_degree0_constant_is_zero():
    g = pair_groupoid(["x", "y"])
    f = ScalarCochain.constant(g, 0, 7)
    assert all(v == 0 for v in coboundary(f).values.values())


def test_coboundary_degree1_example():
    g = z2_groupoid()
    f = ScalarCochain(g, 1, {("e",): 0, ("g",): 1})
    df = coboundary(f)
    assert df.values[("g", "g")] == 2
    assert df.values[("e", "g")] == df.values[("g", "e")] == 0


@pytest.mark.parametrize("degree", [0, 1])
def test_coboundary_squares_to_zero(degree):
    rng = random.Random(degree)
    for g in (z2_groupoid(), pair_groupoid(["x", "y"])):
        f = rand_scalar_cochain(rng, g, degree)
        dd = coboundary(coboundary(f))
        assert all(v == 0 for v in dd.values.values())


def test_coboundary_degree_overflow():
    g = z2_groupoid()
    g.max_degree = 1
    f = rand_scalar_cochain(random.Random(0), g, 1)
    with pytest.raises(DegreeError):
        coboundary(f)


def test_star_identity_scalar():
    g = z2_groupoid()
    c = z2_ruth(0).complex
    w = SectionCochain(g, c, 0, 1, {("e",): (Fraction(2),), ("g",): (Fraction(3),)})
    f = ScalarCochain.constant(g, 0, 1)
    assert star(w, f) == w


def test_star_degree0_pointwise():
    g = z2_groupoid()
    c = z2_ruth(0).complex
    w = SectionCochain(g, c, 0, 0, {("*",): (Fraction(2),)})
    f = ScalarCochain.constant(g, 0, 3)
    assert star(w, f).values[("*",)] == (Fraction(6),)


def test_star_mixed_degrees_example():
    g = z2_groupoid()
    c = z2_ruth(0).complex
    w = SectionCochain(g, c, 0, 1, {("e",): (Fraction(0),), ("g",): (Fraction(1),)})
    f = ScalarCochain(g, 1, {("e",): 0, ("g",): 2})
    out = star(w, f)
    assert out.degree == 2
    assert out.values[("g", "g")] == (Fraction(2),)


def test_twisted_differential_trivial_equals_coboundary():
    g = pair_groupoid(["x", "y"])
    line = TwoTermComplex(g.objects, {x: 1 for x in g.objects},
                          {x: 1 for x in g.objects},
                          {x: LinearMap.zero(1, 1) for x in g.objects})
    lam = {a: LinearMap.identity(1) for a in g.arrows}
    rng = random.Random(1)
    for degree in (0, 1):
        f = rand_scalar_cochain(rng, g, degree)
        w = SectionCochain(g, line, 0, degree,
                           {k: (f.values[k],) for k in g.nerve_tuples(degree)})
        dw = twisted_differential(lam, w)
        df = coboundary(f)
        assert all(dw.values[k] == (df.values[k],) for k in dw.values)


def test_twisted_differential_sign_action_value():
    r = z2_ruth(0)
    g = r.groupoid
    w = SectionCochain(g, r.complex, 0, 0, {("*",): (Fraction(1),)})
    dw = twisted_differential(r.lambda0, w)
    assert dw.values[("g",)] == (Fraction(-2),)
    assert dw.values[("e",)] == (Fraction(0),)


def test_twisted_differential_genuine_action_squares_to_zero():
    r = z2_ruth(0)  # lambda is a genuine action since (-1)^2 = 1
    g = r.groupoid
    for degree in (0, 1):
        for key in g.nerve_tuples(degree):
            w = SectionCochain.basis(g, r.complex, 0, degree, key, 0)
            dd = twisted_differential(r.lambda0, twisted_differential(r.lambda0, w))
            assert dd.is_zero()


def test_section_cochain_fiber_check():
    g = z2_groupoid()
    c = line_complex_over_point(0)
    with pytest.raises(StructureError):
        SectionCochain(g, c, 0, 0, {("*",): (Fraction(1), Fraction(2))})


def test_is_normalized():
    g = z2_groupoid()
    c = line_complex_over_point(0)
    w = SectionCochain.basis(g, c, 0, 1, ("g",), 0)
    assert is_normalized(w)
    w2 = SectionCochain.basis(g, c, 0, 1, ("e",), 0)
    assert not is_normalized(w2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: ScalarCochain(z2_groupoid(), -1, {}), DegreeError, "negative cochain degree"),
    (lambda: ScalarCochain(z2_groupoid(), 1, {("e",): 0}), StructureError,
     "scalar cochain keys do not match the nerve"),
    (lambda: SectionCochain(z2_groupoid(), line_complex_over_point(), 2, 0, {("*",): (0,)}),
     StructureError, "layer must be 0 or 1"),
    (lambda: SectionCochain(pair_groupoid(["x", "y"]), line_complex_over_point(), 0, 0, {}),
     StructureError, "coefficient complex lives over a different object set"),
    (lambda: SectionCochain(z2_groupoid(), line_complex_over_point(), 0, 1, {("e",): (0,)}),
     StructureError, "section cochain keys do not match the nerve"),
    (lambda: z2_line_section(0, 1) + z2_line_section(1, 1), StructureError,
     "cochain sum across different bidegrees"),
    (lambda: z2_line_section(0, 1) - z2_line_section(0, 0), StructureError,
     "cochain difference across different bidegrees"),
    (lambda: star(z2_line_section(0, 0), ScalarCochain.constant(pair_groupoid(["x", "y"]), 0, 1)),
     StructureError, "cochains over different groupoids"),
    (lambda: twisted_differential({"e": LinearMap.identity(1)}, z2_line_section(0, 0)),
     StructureError, "quasi-action table missing arrows"),
], ids=["scalar-degree", "scalar-keys", "layer", "objects", "section-keys", "sum",
        "difference", "star", "twisted-table"])
def test_malformed_cochains_and_operations_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()
