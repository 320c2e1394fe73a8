"""Finite groupoids: axiom checker, nerves against a brute-force oracle,
and builders."""

import dataclasses
import itertools

import pytest

from ruthvb.errors import CompositionError, StructureError
from ruthvb.groupoid import (FiniteGroupoid, cyclic_groupoid, disjoint_union,
                             pair_groupoid, transitive_groupoid, trivial_groupoid,
                             validate_groupoid, z2_groupoid)

ALL_BUILDERS = [
    z2_groupoid,
    lambda: cyclic_groupoid(3),
    lambda: trivial_groupoid(["a", "b"]),
    lambda: pair_groupoid(["x", "y"]),
    lambda: transitive_groupoid(["x", "y"], 2),
    lambda: disjoint_union(z2_groupoid(), pair_groupoid(["x", "y"])),
]


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_builders_valid(build):
    assert validate_groupoid(build()).passed


def test_equality_compares_the_tables_only():
    g = z2_groupoid()
    g.nerve_tuples(3)
    assert g == dataclasses.replace(z2_groupoid(), max_degree=2)
    assert g != dataclasses.replace(g, comp={**g.comp, ("g", "g"): "g"})


def test_pair_groupoid_relations():
    g = pair_groupoid(["x", "y"])
    a = next(a for a in g.arrows if g.src[a] == "x" and g.tgt[a] == "y")
    b = next(a for a in g.arrows if g.src[a] == "y" and g.tgt[a] == "x")
    assert g.compose(b, a) == g.unit["x"]
    assert g.compose(a, b) == g.unit["y"]


def test_invalid_inverse_reported():
    g = z2_groupoid()
    broken = FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit, g.comp,
                            {"e": "e", "g": "e"})
    rep = validate_groupoid(broken)
    assert not rep.passed
    assert any("inverse" in e.check for e in rep.entries)


def test_malformed_tables_raise():
    g = z2_groupoid()
    with pytest.raises(StructureError):
        FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit,
                       {("e", "e"): "e"}, g.inv)   # missing composition entries
    with pytest.raises(StructureError):
        FiniteGroupoid(g.objects, g.arrows, {"e": "*", "g": "??"}, g.tgt,
                       g.unit, g.comp, g.inv)      # unknown endpoint


def test_compose_error():
    g = pair_groupoid(["x", "y"])
    a = next(a for a in g.arrows if g.src[a] == "x" and g.tgt[a] == "y")
    with pytest.raises(CompositionError):
        g.compose(a, a)


def test_nerve_z2_degree2():
    g = z2_groupoid()
    assert g.nerve_tuples(2) == (("e", "e"), ("e", "g"), ("g", "e"), ("g", "g"))


def test_nerve_degree0_and_1():
    g = pair_groupoid(["x", "y"])
    assert g.nerve_tuples(1) == tuple((a,) for a in g.arrows)
    assert g.nerve_tuples(0) == (("x",), ("y",))


@pytest.mark.parametrize("build", ALL_BUILDERS)
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_nerve_against_brute_force(build, degree):
    g = build()
    brute = tuple(sorted(
        tup for tup in itertools.product(g.arrows, repeat=degree)
        if all(g.src[tup[i]] == g.tgt[tup[i + 1]] for i in range(degree - 1))))
    assert g.nerve_tuples(degree) == brute


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_tuple_endpoints_match_composite(build):
    g = build()
    for tup in g.nerve_tuples(3):
        full = g.compose(g.compose(tup[0], tup[1]), tup[2])
        assert g.tuple_target(tup, 3) == g.tgt[full]
        assert g.tuple_source(tup, 3) == g.src[full]
