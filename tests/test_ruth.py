"""Representations up to homotopy: the four identities, morphisms, gauge
transport, and the square-zero total operator."""

import random
from fractions import Fraction

import pytest

from ruthvb.cochains import ScalarCochain, SectionCochain, is_normalized
from ruthvb.errors import (CompositionError, DegreeError, NotInvertibleError,
                           StructureError)
from ruthvb.groupoid import pair_groupoid, z2_groupoid
from ruthvb.harness import generators as gen
from ruthvb.harness.fixtures import (pair_strict_ruth, stretched_line_ruth,
                                     z2_ruth, z2_ruth_broken4)
from ruthvb.linalg import LinearForm, LinearMap
from ruthvb.ruth import (Ruth, RuthMorphism, TotalCochain, check_leibniz,
                         compose_morphisms, gauge_transport, generic_element,
                         identity_morphism, invert_morphism, square_is_zero,
                         total_operator, validate_morphism, validate_ruth)


def _total_basis(r, n):
    """The basis of total degree n in the order square-zero reports use:
    layer-0 elements first, each layer in nerve order, then fiber order."""
    g, c = r.groupoid, r.complex
    out = []
    for tup in g.nerve_tuples(n):
        for i in range(c.dim0[g.tuple_target(tup, n)]):
            part1 = SectionCochain.zero(g, c, 1, n - 1) if n > 0 else None
            out.append(TotalCochain(SectionCochain.basis(g, c, 0, n, tup, i), part1))
    for tup in g.nerve_tuples(n - 1) if n > 0 else ():
        for i in range(c.dim1[g.tuple_target(tup, n - 1)]):
            out.append(TotalCochain(SectionCochain.zero(g, c, 0, n),
                                    SectionCochain.basis(g, c, 1, n - 1, tup, i)))
    return out


def test_strict_action_valid():
    assert validate_ruth(pair_strict_ruth()).passed


@pytest.mark.parametrize("omega", [0, 1, Fraction(-7, 3)])
def test_z2_ruth_valid_for_every_parameter(omega):
    assert validate_ruth(z2_ruth(omega)).passed


def test_broken4_flags_only_identity4_at_ggg():
    rep = validate_ruth(z2_ruth_broken4())
    assert [(e.check, e.location) for e in rep.entries] == [("identity-4", "(g,g,g)")]


def test_stretched_line_is_rigid_and_valid():
    assert validate_ruth(stretched_line_ruth()).passed
    # flipping the pinned transformation entry breaks identities 2 and 3
    r = stretched_line_ruth()
    omega = dict(r.omega)
    omega[("g", "g")] = LinearMap.from_rows([[3]])
    rep = validate_ruth(Ruth(r.groupoid, r.complex, r.lambda0, r.lambda1, omega))
    assert any(e.check == "identity-2" for e in rep.entries)


def test_shape_mismatch_raises():
    r = z2_ruth(1)
    bad = dict(r.lambda0)
    bad["g"] = LinearMap.zero(2, 1)
    with pytest.raises(StructureError):
        Ruth(r.groupoid, r.complex, bad, r.lambda1, r.omega)


def test_identity_morphism_and_validation():
    r = z2_ruth(1)
    m = identity_morphism(r)
    assert validate_morphism(m).passed
    assert compose_morphisms(m, m) == m


def test_morphism_mu_perturbation_breaks_identity4():
    r = z2_ruth(0)
    m = identity_morphism(r)
    mu = dict(m.mu)
    mu["g"] = LinearMap.from_rows([[1]])
    rep = validate_morphism(RuthMorphism(r, r, m.phi0, m.phi1, mu))
    assert not rep.passed
    assert all(e.check == "morphism-identity-4" for e in rep.entries)
    assert any("(g,g)" in e.location for e in rep.entries)


def test_gauge_transport_frozen_example():
    r = z2_ruth(1)
    two = LinearMap.from_rows([[2]])
    one = LinearMap.from_rows([[1]])
    zero = LinearMap.zero(1, 1)
    src, wit = gauge_transport(r, {"*": two}, {"*": two}, {"e": zero, "g": one})
    assert src.omega[("g", "g")] == LinearMap.from_rows([[2]])
    assert src.lambda0["g"] == LinearMap.from_rows([[-1]])
    assert validate_ruth(src).passed
    assert validate_morphism(wit).passed


def test_gauge_transport_identity_gauge():
    r = z2_ruth(1)
    one = LinearMap.identity(1)
    zero = LinearMap.zero(1, 1)
    src, wit = gauge_transport(r, {"*": one}, {"*": one}, {"e": zero, "g": zero})
    assert src == r
    assert wit == identity_morphism(r)


def test_gauge_transport_iso_witness():
    rng = random.Random(9)
    r = gen.random_ruth(rng, pair_groupoid(["x", "y"]), max_dim=2)
    src, wit = gauge_transport(r, *gen.random_gauge(rng, r))
    assert validate_ruth(src).passed
    inv = invert_morphism(wit)
    assert compose_morphisms(inv, wit) == identity_morphism(src)
    assert compose_morphisms(wit, inv) == identity_morphism(r)


def test_gauge_transport_rejects_singular():
    r = z2_ruth(1)
    zero = LinearMap.zero(1, 1)
    with pytest.raises(NotInvertibleError):
        gauge_transport(r, {"*": zero}, {"*": LinearMap.identity(1)},
                        {"e": zero, "g": zero})


def test_compose_morphisms_associative_and_valid():
    rng = random.Random(10)
    r = gen.random_ruth(rng, z2_groupoid(), max_dim=2)
    m1 = gen.random_ruth_morphism(rng, r)
    m2 = gen.random_ruth_morphism(rng, m1.source)
    m3 = gen.random_ruth_morphism(rng, m2.source)
    assert validate_morphism(compose_morphisms(m1, m2)).passed
    left = compose_morphisms(compose_morphisms(m1, m2), m3)
    right = compose_morphisms(m1, compose_morphisms(m2, m3))
    assert left == right
    with pytest.raises(CompositionError):
        compose_morphisms(identity_morphism(z2_ruth(0)),
                          identity_morphism(z2_ruth(1)))


def test_total_operator_strict_degeneration():
    r = pair_strict_ruth()
    assert square_is_zero(r).passed


@pytest.mark.parametrize("omega", [0, 1])
def test_total_operator_square_zero_z2(omega):
    assert square_is_zero(z2_ruth(omega)).passed


def test_total_operator_detects_broken_identity():
    rep = square_is_zero(z2_ruth_broken4())
    assert not rep.passed


def test_total_operator_degree_bound():
    r = z2_ruth(1)
    g = r.groupoid
    g.max_degree = 2
    c = TotalCochain(SectionCochain.zero(g, r.complex, 0, 2),
                     SectionCochain.zero(g, r.complex, 1, 1))
    with pytest.raises(DegreeError):
        total_operator(r, c)


def test_square_zero_iff_identities_by_mutation():
    rng = random.Random(11)
    hits = 0
    while hits < 25:
        r = gen.random_ruth(rng, gen.random_groupoid(rng, 2, 4), max_dim=2)
        mut = gen.mutate_ruth_entry(rng, r)
        if mut is None:
            continue
        instance, _ = mut
        rep = validate_ruth(instance)
        identity_broken = any(e.check.startswith("identity-") for e in rep.entries)
        if not identity_broken:
            continue
        hits += 1
        assert not square_is_zero(instance).passed


def _coordinates(c: TotalCochain) -> list:
    """The coordinates of a total cochain in total-basis order."""
    return [e for part in (c.part0, c.part1) if part is not None
            for v in part.values.values() for e in v]


def _terms(e) -> dict:
    """The stored terms of a coordinate of an operator applied to forms;
    a coordinate that is not a form must be the scalar 0."""
    if isinstance(e, LinearForm):
        return e.terms
    assert e == 0, e
    return {}


def test_generic_element_tabulates_the_operator():
    """Column i of D(x) and of D(D(x)), for x the generic element of total
    degree n <= 2, is D resp. D(D) of basis element i: every coordinate
    form stores exactly the nonzero entries of its row."""
    rng = random.Random(13)
    instances = []
    while len(instances) < 16:
        r = gen.random_ruth(rng, gen.random_groupoid(rng, 3, 6), max_dim=2)
        mut = gen.mutate_ruth_entry(rng, r)
        instances += [r] + ([mut[0]] if mut else [])
    for r in instances:
        for n in range(3):
            basis = _total_basis(r, n)
            x = generic_element(r, n)
            assert [_terms(e) for e in _coordinates(x)] == [{i: 1} for i in range(len(basis))]
            dx = total_operator(r, x)
            for got, columns in ((dx, [total_operator(r, b) for b in basis]),
                                 (total_operator(r, dx),
                                  [total_operator(r, total_operator(r, b)) for b in basis])):
                columns = [_coordinates(col) for col in columns]
                for j, e in enumerate(_coordinates(got)):
                    assert _terms(e) == {i: col[j] for i, col in enumerate(columns)
                                         if col[j] != 0}, (n, j)


def test_square_zero_agrees_with_the_identities_on_free_mutants():
    """Differential test of two independent detectors: on free single-entry
    mutants, D squares to zero exactly when validate_ruth reports no
    violated structure identity."""
    rng = random.Random(14)
    mutants = survivors = 0
    while mutants < 500:
        r = gen.random_ruth(rng, gen.random_groupoid(rng, 3, 6), max_dim=2)
        for _ in range(3):
            mut = gen.mutate_ruth_entry(rng, r)
            if mut is None:
                break
            instance, desc = mut
            mutants += 1
            identities_hold = not any(e.check.startswith("identity-")
                                      for e in validate_ruth(instance).entries)
            assert square_is_zero(instance).passed == identities_hold, desc
            survivors += identities_hold
    assert survivors > 0


def test_leibniz_on_bases():
    rng = random.Random(12)
    for r in (z2_ruth(1), pair_strict_ruth()):
        g = r.groupoid
        samples = []
        for n in (0, 1):
            for b in _total_basis(r, n)[:3]:
                for q in (0, 1):
                    f = ScalarCochain(g, q, {k: gen.rand_fraction(rng)
                                             for k in g.nerve_tuples(q)})
                    samples.append((b, f))
        assert check_leibniz(r, samples).passed


def test_leibniz_trivial_cases():
    r = z2_ruth(1)
    g = r.groupoid
    ones = ScalarCochain.constant(g, 0, 1)
    b = _total_basis(r, 1)[0]
    assert check_leibniz(r, [(b, ones)]).passed
    z = TotalCochain(SectionCochain.zero(g, r.complex, 0, 1),
                     SectionCochain.zero(g, r.complex, 1, 0))
    f = ScalarCochain(g, 1, {("e",): 1, ("g",): 2})
    assert check_leibniz(r, [(z, f)]).passed


def test_operator_preserves_normalization():
    r = z2_ruth(1)
    g = r.groupoid
    part0 = SectionCochain.basis(g, r.complex, 0, 1, ("g",), 0)
    part1 = SectionCochain.zero(g, r.complex, 1, 0)
    out = total_operator(r, TotalCochain(part0, part1))
    assert is_normalized(out.part0) and is_normalized(out.part1)
    # degree-0 layer-1 parts are sections, normalized by convention
    part1b = SectionCochain.basis(g, r.complex, 1, 0, ("*",), 0)
    out2 = total_operator(r, TotalCochain(SectionCochain.zero(g, r.complex, 0, 1),
                                          part1b))
    assert is_normalized(out2.part0) and is_normalized(out2.part1)
