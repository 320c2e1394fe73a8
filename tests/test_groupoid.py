"""Finite groupoids: axiom checker, nerves against a brute-force oracle,
and builders."""

import dataclasses
import itertools
import random

import pytest

from ruthvb.cochains import faces
from ruthvb.errors import StructureError
from ruthvb.groupoid import (FiniteGroupoid, cyclic_groupoid, disjoint_union,
                             pair_groupoid, transitive_groupoid, trivial_groupoid,
                             validate_groupoid, z2_groupoid)
from ruthvb.harness.generators import random_groupoid

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
    assert g.comp[(b, a)] == g.unit["x"]
    assert g.comp[(a, b)] == g.unit["y"]


def test_invalid_inverse_reported():
    g = z2_groupoid()
    broken = FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit, g.comp,
                            {"e": "e", "g": "e"})
    rep = validate_groupoid(broken)
    assert not rep.passed
    assert any("inverse" in e.check for e in rep.entries)


def test_unit_with_wrong_endpoints_reported_at_its_object():
    g = pair_groupoid(["x", "y"])
    broken = dataclasses.replace(g, unit={**g.unit, "x": "p:x>y:0"})
    entries = validate_groupoid(broken).entries
    assert ("unit-endpoints", "object x") in [(e.check, e.location) for e in entries]


def test_inverse_with_wrong_endpoints_reported_once_at_its_arrow():
    g = pair_groupoid(["x", "y"])
    broken = dataclasses.replace(g, inv={**g.inv, "p:x>y:0": "p:x>y:0"})
    entries = validate_groupoid(broken).entries
    assert [(e.check, e.location) for e in entries] == [("inverse-endpoints", "p:x>y:0")]


def test_malformed_tables_raise():
    g = z2_groupoid()
    with pytest.raises(StructureError):
        FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit,
                       {("e", "e"): "e"}, g.inv)   # missing composition entries
    with pytest.raises(StructureError):
        FiniteGroupoid(g.objects, g.arrows, {"e": "*", "g": "??"}, g.tgt,
                       g.unit, g.comp, g.inv)      # unknown endpoint
    with pytest.raises(StructureError, match="duplicate identifiers"):
        FiniteGroupoid(g.objects, g.arrows + ("e",), g.src, g.tgt, g.unit, g.comp, g.inv)
    with pytest.raises(StructureError, match="arrow g missing src/tgt"):
        FiniteGroupoid(g.objects, g.arrows, {"e": "*"}, g.tgt, g.unit, g.comp, g.inv)


def test_nerve_of_negative_degree_is_refused():
    with pytest.raises(StructureError, match="nonnegative"):
        z2_groupoid().nerve_tuples(-1)


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
        full = g.comp[(g.comp[(tup[0], tup[1])], tup[2])]
        assert g.tuple_target(tup, 3) == g.tgt[full]
        assert g.tuple_source(tup, 3) == g.src[full]


def _faces_by_hand(g, tup):
    """Face i of a composable tuple with its sign (-1)^i: an arrow's source
    and target; else the tuple without its first arrow, with each pair of
    neighbours composed, and without its last arrow."""
    if len(tup) == 1:
        return [((g.src[tup[0]],), 1), ((g.tgt[tup[0]],), -1)]
    inner = [tup[:i] + (g.comp[(tup[i], tup[i + 1])],) + tup[i + 2:] for i in range(len(tup) - 1)]
    return [(face, (-1) ** i) for i, face in enumerate([tup[1:], *inner, tup[:-1]])]


@pytest.mark.parametrize("max_degree", [0, 1, 4])
def test_face_tables_match_faces_composed_by_hand(max_degree):
    """Row t of the degree-k face table names the faces of the t-th k-tuple
    as indices into the (k-1)-nerve, for k = 1..4, whatever nerve bound the
    groupoid declares; cochains.faces reads the same faces by key."""
    rng = random.Random(28)
    groupoids = [pair_groupoid(["x", "y", "z"]), cyclic_groupoid(4),
                 transitive_groupoid(["x", "y"], 2),
                 disjoint_union(z2_groupoid(), pair_groupoid(["x", "y"])),
                 *(random_groupoid(rng) for _ in range(20))]
    for g in groupoids:
        g.max_degree = max_degree
        for k in range(1, 5):
            keys = g.nerve_tuples(k - 1)
            want = [_faces_by_hand(g, tup) for tup in g.nerve_tuples(k)]
            assert [[(keys[j], sign) for j, sign in row] for row in g.face_table(k)] == want
            assert [faces(g, tup) for tup in g.nerve_tuples(k)] == want


def test_face_table_refuses_a_composite_with_the_wrong_endpoints():
    """The table finds each face by extending a face of a shorter tuple,
    which holds only when every composite runs from its second arrow's
    source to its first arrow's target; a table that does not hold raises."""
    g = pair_groupoid(["x", "y"])
    bad = dataclasses.replace(g, comp={**g.comp, ("p:x>y:0", "p:x>x:0"): "p:y>y:0"})
    assert not validate_groupoid(bad).passed
    assert bad.face_table(1) == g.face_table(1)
    with pytest.raises(StructureError, match="wrong endpoints"):
        bad.face_table(2)
