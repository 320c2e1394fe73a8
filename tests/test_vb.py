"""VB-groupoids: validation sweeps, semi-direct products, connections,
kernels, and functoriality of the semi-direct construction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ruthvb import linalg
from ruthvb.errors import CompositionError, StructureError, ValidationError
from ruthvb.harness import generators as gen
from ruthvb.harness.fixtures import (FIXTURES, pair_strict_ruth, stretched_line_ruth,
                                     z2_ruth, z2_ruth_broken4)
from ruthvb.linalg import LinearMap
from ruthvb.ruth import compose_morphisms, identity_morphism
from ruthvb.semidirect import psi_morphism, semidirect
from ruthvb.twoterm import phi_object, split_bundle
from ruthvb.vb import (VBGroupoid, connection_report, find_unital_connection,
                       kernel_groupoid, validate_vb, validate_vb_map,
                       compose_vb_maps, identity_vb_map)


def _column(vec):
    """A fiber vector as a one-column block."""
    return LinearMap.from_columns([tuple(vec)], len(vec)).integer


def test_phi_object_is_valid_over_trivial_base():
    rng = random.Random(0)
    for _ in range(5):
        c = gen.random_complex(rng, max_dim=3)
        assert validate_vb(phi_object(c)).passed


def test_semidirect_valid_on_fixtures():
    for r in (z2_ruth(0), z2_ruth(1), stretched_line_ruth(), pair_strict_ruth()):
        assert validate_vb(semidirect(r)).passed


def test_semidirect_rejects_invalid_input():
    with pytest.raises(ValidationError):
        semidirect(z2_ruth_broken4())


def test_rejection_message_carries_the_report_text():
    with pytest.raises(ValidationError) as info:
        semidirect(z2_ruth_broken4())
    text = str(info.value)
    assert text.startswith("semidirect needs a valid representation:\nFAIL ruth")
    assert "[identity-4] at (g,g,g)" in text


def test_semidirect_multiplication_frozen_formula():
    # for the one-dimensional fixture with parameter 1:
    # (g,e0,e1).(g,f0,f1) = (e, e0 - f0 - f1, f1)
    v = semidirect(z2_ruth(1))
    e0, e1 = Fraction(5), Fraction(7)
    f0 = Fraction(2)
    f1 = e1  # composability: e1 = delta f0 + lambda1_g f1 = -f1 -> f1 = -e1
    f1 = -e1
    prod = v.product("g", "g", _column((e0, e1)), _column((f0, f1)))
    assert prod.column(0) == (e0 - f0 - f1, f1)


def test_multiply_rejects_non_composable_pair():
    # composable over (g, g) needs f1 = -e1, as in the frozen formula above
    v = semidirect(z2_ruth(1))
    with pytest.raises(CompositionError):
        v.product("g", "g", _column((Fraction(5), Fraction(7))),
                  _column((Fraction(2), Fraction(7))))
    # the base arrows do not compose: p:x>y:0 lands at y, p:x>x:0 starts at x
    v = semidirect(pair_strict_ruth())
    zero = (Fraction(0),) * 3
    with pytest.raises(CompositionError):
        v.multiply("p:x>x:0", "p:x>y:0", _column(zero), _column(zero))


def test_semidirect_units():
    v = semidirect(z2_ruth(1))
    e = (Fraction(3),)
    u = v.utilde["*"].apply(e)
    assert v.stilde["e"].apply(u) == e
    assert v.ttilde["e"].apply(u) == e


def test_semidirect_strict_degeneration():
    r = pair_strict_ruth()
    v = semidirect(r)
    g = r.groupoid
    for a in g.arrows:
        # with zero transformation cochain the product never mixes blocks
        d0t = r.complex.dim0[g.tgt[a]]
        for pb in v.pair_basis(a, g.unit[g.src[a]]):
            vv, ww = pb[:v.arrdim[a]], pb[v.arrdim[a]:]
            prod = v.product(a, g.unit[g.src[a]], _column(vv), _column(ww)).column(0)
            assert prod[:d0t] == tuple(x + y for x, y in zip(vv[:d0t], ww[:d0t]))


def test_semidirect_omega_sign_flip_breaks_associativity():
    r = stretched_line_ruth()
    v = semidirect(r)
    flipped = {}
    for (g1, g2) in r.groupoid.comp:
        d0_1 = r.complex.dim0[r.groupoid.tgt[g1]]
        d0_2 = r.complex.dim0[r.groupoid.tgt[g2]]
        cols = []
        for pb in v.pair_basis(g1, g2):
            e0 = pb[:d0_1]
            f0 = pb[v.arrdim[g1]:v.arrdim[g1] + d0_2]
            f1 = pb[v.arrdim[g1] + d0_2:]
            out0 = linalg.vec_add(e0, r.lambda0[g1].apply(f0))
            out0 = linalg.vec_add(out0, r.omega[(g1, g2)].apply(f1))  # sign flip
            cols.append(out0 + f1)
        flipped[(g1, g2)] = LinearMap.from_columns(
            cols, v.arrdim[r.groupoid.comp[(g1, g2)]])
    mutated = VBGroupoid(v.base, v.objdim, v.arrdim, v.stilde, v.ttilde,
                         v.utilde, v.inv_map, flipped)
    rep = validate_vb(mutated)
    assert not rep.passed
    assert any(e.check == "associativity" for e in rep.entries)


def test_psi_morphism_identity_and_functoriality():
    r = z2_ruth(1)
    assert psi_morphism(identity_morphism(r)) == identity_vb_map(semidirect(r))
    rng = random.Random(1)
    m1 = gen.random_ruth_morphism(rng, r)
    m2 = gen.random_ruth_morphism(rng, m1.source)
    p = compose_vb_maps(psi_morphism(m1), psi_morphism(m2))
    assert p == psi_morphism(compose_morphisms(m1, m2))
    assert validate_vb_map(psi_morphism(m1)).passed


def test_psi_rejects_mu_at_units():
    r = z2_ruth(1)
    m = identity_morphism(r)
    mu = dict(m.mu)
    mu["e"] = LinearMap.from_rows([[1]])
    from ruthvb.ruth import RuthMorphism
    bad = RuthMorphism(r, r, m.phi0, m.phi1, mu)
    with pytest.raises(ValidationError):
        psi_morphism(bad)


def test_find_unital_connection_canonical_on_semidirect():
    r = z2_ruth(1)
    v = semidirect(r)
    c = find_unital_connection(v)
    assert connection_report(c).passed
    # pivot rule recovers sigma_g(e) = (g, 0, e)
    for a in v.base.arrows:
        assert c.sigma[a] == v.utilde["*"] if v.base.is_unit(a) else True
        assert linalg.compose(v.stilde[a], c.sigma[a]).is_identity()
    assert c.sigma["g"] == LinearMap.from_rows([[0], [1]])


def test_connection_on_trivial_base_bundle_is_unit_section():
    c0 = gen.random_complex(random.Random(2), max_dim=2)
    v = phi_object(c0)
    c = find_unital_connection(v)
    for x in v.base.objects:
        assert c.sigma[x] == v.utilde[x]


def test_connection_on_scrambled_fixture():
    rng = random.Random(3)
    v, _, _ = gen.scramble_vb(rng, semidirect(z2_ruth(1)))
    c = find_unital_connection(v)
    assert connection_report(c).passed


def test_kernel_groupoid_of_semidirect_is_sum_groupoid():
    for r in (z2_ruth(1), pair_strict_ruth()):
        k = kernel_groupoid(semidirect(r))
        assert k == phi_object(r.complex)
        c2, iso = split_bundle(k)
        assert c2 == r.complex


def test_kernel_of_trivial_base_bundle_is_itself():
    v = phi_object(gen.random_complex(random.Random(4), max_dim=2))
    assert kernel_groupoid(v) == v


def test_kernel_fiber_dimension_count():
    r = pair_strict_ruth()
    v = semidirect(r)
    g = v.base
    for x in g.objects:
        u = g.unit[x]
        ker_dim = len(linalg.kernel_basis(v.stilde[u]))
        assert v.arrdim[u] == v.objdim[x] + ker_dim


def test_validate_vb_flags_broken_unit_section():
    v = semidirect(z2_ruth(1))
    ut = dict(v.utilde)
    ut["*"] = LinearMap.from_rows([[1], [1]])  # no longer a section of stilde
    mutated = VBGroupoid(v.base, v.objdim, v.arrdim, v.stilde, v.ttilde, ut,
                         v.inv_map, v.mult)
    assert not validate_vb(mutated).passed


def test_vb_shape_errors():
    v = semidirect(z2_ruth(1))
    bad = dict(v.stilde)
    bad["g"] = LinearMap.zero(2, 2)
    with pytest.raises(StructureError):
        VBGroupoid(v.base, v.objdim, v.arrdim, bad, v.ttilde, v.utilde,
                   v.inv_map, v.mult)
    # a multiplication over base arrows that do not compose
    v = semidirect(pair_strict_ruth())
    extra = dict(v.mult)
    extra[("p:x>x:0", "p:x>y:0")] = v.mult[("p:x>x:0", "p:x>x:0")]
    with pytest.raises(StructureError):
        VBGroupoid(v.base, v.objdim, v.arrdim, v.stilde, v.ttilde, v.utilde,
                   v.inv_map, extra)


# Fixture VB-groupoids, generated ones over random groupoids, and the linear
# bundle of a scrambled weak representation.
CHART_VBS = ([build() for kind, build in FIXTURES.values() if kind == "vb"]
             + [gen.random_vb(random.Random(seed)) for seed in range(3)]
             + [gen.scramble_wrep(random.Random(3), gen.random_wrep(random.Random(3)))[0].bundle])
entries = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_coords_agree_with_solve(data):
    """Free-column coordinates equal a full solve against the pair basis, and
    a pair is rejected exactly when that solve has no solution; multiply
    and product, on a one-column block in integers, read the product off
    them."""
    v = data.draw(st.sampled_from(CHART_VBS))
    g1, g2 = data.draw(st.sampled_from(sorted(v.base.comp)))
    d1, d2 = v.arrdim[g1], v.arrdim[g2]
    basis = v.pair_basis(g1, g2)
    z = linalg.vec_zero(d1 + d2)
    for b in basis:
        z = linalg.vec_add(z, linalg.vec_scale(data.draw(entries), b))
    if data.draw(st.booleans()):
        z = linalg.vec_add(z, tuple(data.draw(entries) for _ in range(d1 + d2)))
    want = linalg.solve(LinearMap.from_columns(list(basis), d1 + d2), z)
    left, right = _column(z[:d1]), _column(z[d1:])
    residual, product = v.multiply(g1, g2, left, right)
    if want is None:
        with pytest.raises(CompositionError):
            v.product(g1, g2, left, right)
        assert residual.nonzero_columns() == {0}
    else:
        assert v.pair_chart(g1, g2).coordinates.map().apply(z) == want
        assert v.product(g1, g2, left, right).column(0) == v.mult[(g1, g2)].apply(want)
        assert residual.nonzero_columns() == set()
        assert product.column(0) == v.mult[(g1, g2)].apply(want)
