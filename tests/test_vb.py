"""VB-groupoids: validation sweeps, semi-direct products, connections,
kernels, and functoriality of the semi-direct construction."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ruthvb import linalg, vb
from ruthvb.equivalences import vb_to_wrep, wrep_from_ruth
from ruthvb.errors import CompositionError, StructureError, ValidationError
from ruthvb.groupoid import cyclic_groupoid, pair_groupoid
from ruthvb.harness import generators as gen
from ruthvb.harness.fixtures import (FIXTURES, pair_strict_ruth, stretched_line_ruth,
                                     z2_ruth, z2_ruth_broken4)
from ruthvb.linalg import LinearMap
from ruthvb.ruth import compose_morphisms, identity_morphism
from ruthvb.semidirect import psi_morphism, semidirect
from ruthvb.twoterm import phi_object, split_bundle
from ruthvb.vb import (Connection, VBGroupoid, connection_report, find_unital_connection,
                       kernel_groupoid, validate_vb, validate_vb_map,
                       compose_vb_maps, identity_vb_map)
from ruthvb.weak import validate_weak_representation

from test_acceptance import ruth_pool


def _column(vec):
    """A fiber vector as a one-column block."""
    return LinearMap.from_columns([tuple(vec)], len(vec))


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


def test_connections_compare_by_sigma():
    c = find_unital_connection(semidirect(z2_ruth(1)))
    assert c == Connection(semidirect(z2_ruth(1)), dict(c.sigma), c.rule)
    sigma = c.sigma["g"]
    moved = {**c.sigma, "g": sigma.with_entry(0, 0, sigma.entry(0, 0) + 1)}
    assert c != Connection(c.vb, moved, c.rule)


def _bumped(c, arrow, row):
    s = c.sigma[arrow]
    return Connection(c.vb, {**c.sigma, arrow: s.with_entry(row, 0, s.entry(row, 0) + 1)},
                      c.rule)


def test_connection_report_locates_a_bumped_section():
    """A bump at a unit arrow breaks unitality at its object; a bump in the
    degree-1 rows elsewhere breaks the splitting at that arrow.  A bump in
    row 0, the degree-0 block, is invisible to stilde = [0 | I]."""
    c = find_unital_connection(semidirect(pair_strict_ruth()))
    assert connection_report(c).passed

    def found(rep):
        return [(e.check, e.location) for e in rep.entries]

    assert found(connection_report(_bumped(c, "p:x>x:0", 0))) == [("unital", "object x")]
    last = c.sigma["p:x>y:0"].rows - 1
    assert found(connection_report(_bumped(c, "p:x>y:0", last))) == [
        ("splits-source", "p:x>y:0")]
    assert connection_report(_bumped(c, "p:x>y:0", 0)).passed


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


def test_kernel_of_psi_is_phi_of_its_complex():
    """Two constructions of one VB-groupoid: restricting the semi-direct
    product to the units, and the sum groupoid of the complex.  A mutant
    that changes a quasi-action at a unit, or omega at a pair of units,
    changes the restriction and not the complex, so the two differ."""
    rng = random.Random(25)
    mutants = 0
    for r in ruth_pool():
        assert kernel_groupoid(semidirect(r, validate=False)) == phi_object(r.complex)
        g = r.groupoid
        for _ in range(3):
            drawn = gen.mutate_ruth_unit_cell(rng, r)
            if drawn is None:
                continue
            m = drawn[0]
            pairs = [p for p in g.comp if m.omega[p] != r.omega[p]]
            if pairs and not all(map(g.is_unit, pairs[0])):
                continue  # omega at (unit, g) lies outside the kernel
            mutants += 1
            assert kernel_groupoid(semidirect(m, validate=False)) != phi_object(m.complex)
    assert mutants >= 100


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
        assert v.pair_chart(g1, g2).coordinates.apply(z) == want
        assert v.product(g1, g2, left, right).column(0) == v.mult[(g1, g2)].apply(want)
        assert residual.nonzero_columns() == set()
        assert product.column(0) == v.mult[(g1, g2)].apply(want)


# -- one row reduction per distinct fibered-product constraint ------------------------


def _pair_constraint(v, g1, g2):
    return linalg.hstack(v.stilde[g1], -v.ttilde[g2])


def _triple_constraint(v, g1, g2, g3):
    zero = LinearMap.zero
    return linalg.vstack(
        linalg.hstack(v.stilde[g1], -v.ttilde[g2], zero(v.objdim[v.base.src[g1]], v.arrdim[g3])),
        linalg.hstack(zero(v.objdim[v.base.src[g2]], v.arrdim[g1]), v.stilde[g2], -v.ttilde[g3]))


@pytest.mark.parametrize("base", [cyclic_groupoid(4), pair_groupoid(["x", "y", "z"])],
                         ids=["c4", "pair3"])
def test_each_distinct_constraint_is_row_reduced_once(base, monkeypatch):
    """Building a semi-direct product row-reduces each distinct pair
    constraint once, and validating it each distinct triple constraint once,
    however many composable pairs and triples share them."""
    calls = []
    monkeypatch.setattr(vb, "kernel_chart", lambda f: calls.append(f) or linalg.kernel_chart(f))
    rng = random.Random(7)
    draws = (gen.random_ruth(rng, base, max_dim=2) for _ in range(100))
    full = [r for r in draws if all(r.complex.dim0[x] and r.complex.dim1[x] for x in base.objects)]
    assert len(full) >= 3
    for r in full[:3]:
        calls.clear()
        v = semidirect(r, validate=False)
        pairs = {_pair_constraint(v, *pair) for pair in base.comp}
        assert sorted(map(repr, calls)) == sorted(map(repr, pairs))
        calls.clear()
        assert validate_vb(v).passed
        triples = {_triple_constraint(v, *t) for t in base.nerve_tuples(3)}
        assert sorted(map(repr, calls)) == sorted(map(repr, triples))
        assert len(pairs) < len(base.comp) and len(triples) < len(base.nerve_tuples(3))


# -- products read in pair-chart coordinates ------------------------------------------


def _rule_product(r, g1, g2, e, f):
    """The reference semi-direct product of the blocks e over g1 and f over
    g2, one composable pair per column, from the stacked pairs:
    (g1, e0, e1).(g2, f0, f1) = (g1 g2, e0 + l0_{g1} f0 - Omega_{g1,g2} f1, f1)."""
    g, c = r.groupoid, r.complex
    d0t, d1s, d1s2 = c.dim0[g.tgt[g1]], c.dim1[g.src[g1]], c.dim1[g.src[g2]]
    m = linalg.vstack(
        linalg.hstack(LinearMap.identity(d0t), LinearMap.zero(d0t, d1s),
                      r.lambda0[g1], -r.omega[(g1, g2)]),
        linalg.hstack(LinearMap.zero(d1s2, e.rows + f.rows - d1s2), LinearMap.identity(d1s2)))
    return m @ linalg.vstack(e, f)


def _pool_and_mutants():
    """The acceptance pool, then mutants of it in each of lambda0, lambda1,
    omega and diff, which the semi-direct product takes unvalidated."""
    pool = ruth_pool()
    rng = random.Random(29)
    mutants = {"lambda0": [], "lambda1": [], "omega": [], "diff": []}
    while min(map(len, mutants.values())) < 10:
        mut = gen.mutate_ruth_entry(rng, pool[rng.randrange(len(pool))])
        if mut is not None and len(family := mutants[mut[1].partition("[")[0]]) < 10:
            family.append(mut[0])
    return pool + [m for family in mutants.values() for m in family]


def test_semidirect_table_is_the_product_rule_on_each_pair_chart_basis():
    """The stored table of a semi-direct product is the product rule applied
    to each pair chart's basis, on valid representations, on mutants in every
    table, and over zero-dimensional fibers."""
    zero_fibers = 0
    for r in _pool_and_mutants():
        v = semidirect(r, validate=False)
        zero_fibers += not all(r.complex.dim0.values()) or not all(r.complex.dim1.values())
        for g1, g2 in r.groupoid.comp:
            e, f = v.pair_chart(g1, g2).basis_map.split(v.arrdim[g1])
            assert v.mult[(g1, g2)] == _rule_product(r, g1, g2, e, f), (g1, g2)
    assert zero_fibers >= 10


def test_triple_chart_bases_compose_in_both_pairs(monkeypatch):
    """Each triple-chart basis that validate_vb reads lies in the kernel of
    both pair constraints, so its inner products are the pair tables on its
    rows at the free columns, with zero residual, valid or scrambled."""
    charts = {}
    monkeypatch.setattr(vb, "kernel_chart",
                        lambda f: charts.setdefault(f, linalg.kernel_chart(f)))
    rng = random.Random(29)
    for r in ruth_pool()[:40]:
        v = semidirect(r, validate=False)
        for x in (v, gen.scramble_vb(rng, v)[0]):
            charts.clear()
            assert validate_vb(x).passed
            for g1, g2, g3 in x.base.nerve_tuples(3):
                d1, d2 = x.arrdim[g1], x.arrdim[g2]
                a = charts[_triple_constraint(x, g1, g2, g3)].basis_map
                a1, a23 = a.split(d1)
                a2, a3 = a23.split(d2)
                for (h1, h2), left, right, rows in (((g1, g2), a1, a2, a.split(d1 + d2)[0]),
                                                    ((g2, g3), a2, a3, a23)):
                    residual, product = x.multiply(h1, h2, left, right)
                    assert residual.is_zero()
                    free = x.pair_chart(h1, h2).free
                    assert product == x.mult[(h1, h2)] @ rows.take_rows(free)


def test_validate_vb_makes_two_fused_products_per_triple(monkeypatch):
    """Four fused products per arrow for the unit and inverse laws, and two
    per composable triple for associativity: the inner two are read off the
    pair tables."""
    calls = []
    multiply = VBGroupoid.multiply
    monkeypatch.setattr(VBGroupoid, "multiply",
                        lambda self, *args: calls.append(args) or multiply(self, *args))
    rng = random.Random(29)
    for r in ruth_pool()[:20]:
        v = semidirect(r, validate=False)
        for x in (v, gen.scramble_vb(rng, v)[0]):
            calls.clear()
            assert validate_vb(x).passed
            g = x.base
            assert len(calls) == 4 * len(g.arrows) + 2 * len(g.nerve_tuples(3))


# sha256 of the validate_vb and validate_weak_representation reports, seconds
# masked, on the semi-direct product of 20 seeded representations, its
# scrambled copy, their free mutants, the weak representations of the
# representation and of the scrambled copy, and their free mutants.
REPORTS_DIGEST = "f704af8a89deeeab37e1cdde351507cc1003b12bae76b67877c34a31e2fcdce3"


def _pinned_reports():
    for seed in range(20):
        rng = random.Random(f"parity/{seed}")
        r = gen.random_ruth(rng, gen.random_groupoid(rng, 3, 6))
        v = semidirect(r)
        s, _, _ = gen.scramble_vb(rng, v)
        wreps = [wrep_from_ruth(r), vb_to_wrep(s).wrep]
        vbs = [v, s] + [m[0] for m in (gen.mutate_vb_entry(rng, x) for x in (v, s, v, s)) if m]
        wreps += [m[0] for m in (gen.mutate_wrep_entry(rng, w) for w in wreps * 2) if m]
        yield from (validate_vb(x) for x in vbs)
        yield from (validate_weak_representation(w) for w in wreps)


def test_vb_and_wrep_reports_are_pinned():
    reports = [{**rep.to_dict(), "seconds": 0} for rep in _pinned_reports()]
    assert (len(reports), sum(not rep["entries"] for rep in reports)) == (232, 80)
    assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() \
        == REPORTS_DIGEST
