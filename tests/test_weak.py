"""Weak representations: validators, pentagon mutations, action groupoids,
and equivariant maps."""

import copy
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ruthvb import linalg, weak
from ruthvb.errors import CompositionError, StructureError, ValidationError
from ruthvb.groupoid import z2_groupoid
from ruthvb.harness import generators as gen
from ruthvb.harness.fixtures import (FIXTURES, pair_strict_ruth, sign_twisted_ruth,
                                     z2_ruth)
from ruthvb.linalg import LinearMap
from ruthvb.reports import CheckEntry
from ruthvb.ruth import compose_morphisms
from ruthvb.semidirect import semidirect
from ruthvb.vb import VBGroupoid, validate_vb, validate_vb_map, compose_vb_maps
from ruthvb.weak import (ActionChart, EquivariantMap, WeakRepresentation, act_on_morphism,
                         action_groupoid_bundle, compose_equivariant, identity_equivariant,
                         validate_equivariant, validate_weak_representation)
from ruthvb.equivalences import (reconstruct_equivariant, wrep_from_ruth,
                                 wrep_from_ruth_morphism)


def _column(vec):
    """A fiber vector as a one-column block."""
    return LinearMap.from_columns([tuple(vec)], len(vec))


def test_wrep_of_fixtures_valid():
    for r in (z2_ruth(0), z2_ruth(1), sign_twisted_ruth(), pair_strict_ruth()):
        assert validate_weak_representation(wrep_from_ruth(r)).passed


def test_wrep_rejects_invalid_ruth():
    from ruthvb.harness.fixtures import z2_ruth_broken4
    with pytest.raises(ValidationError):
        wrep_from_ruth(z2_ruth_broken4())


def test_wrep_alpha_kernel_component():
    w = wrep_from_ruth(z2_ruth(1))
    # associator at (g, g) applied to 1: degree-0 part is the parameter 1
    cell = w.alpha[("g", "g")].apply((Fraction(1),))
    assert cell == (Fraction(1), Fraction(1))


def test_pentagon_mutation_reported_at_offending_cell():
    # rigid fixture: composing one associator cell with a nontrivial kernel
    # arrow breaks the pentagon at (g,g,g)
    w = wrep_from_ruth(sign_twisted_ruth())
    alpha = dict(w.alpha)
    alpha[("g", "g")] = alpha[("g", "g")] + LinearMap.from_rows([[1], [0]])
    mutated = WeakRepresentation(w.groupoid, w.bundle, w.a0, w.a1, alpha)
    rep = validate_weak_representation(mutated)
    assert not rep.passed
    pentagon = [e for e in rep.entries if e.check == "pentagon"]
    assert pentagon and all("(g,g,g)" in e.location for e in pentagon)
    assert all(e.check == "pentagon" for e in rep.entries)


def test_action_groupoid_bundle_valid_on_fixtures():
    for r in (z2_ruth(1), pair_strict_ruth()):
        ag = action_groupoid_bundle(wrep_from_ruth(r))
        assert validate_vb(ag).passed


def test_identity_equivariant_valid():
    w = wrep_from_ruth(z2_ruth(1))
    e = identity_equivariant(w)
    assert validate_equivariant(e).passed
    assert act_on_morphism(e) == \
        __import__("ruthvb").vb.identity_vb_map(action_groupoid_bundle(w))


def test_equivariant_images_of_gauge_morphisms():
    rng = random.Random(20)
    r = gen.random_ruth(rng, z2_groupoid(), max_dim=2)
    m = gen.random_ruth_morphism(rng, r)
    e = wrep_from_ruth_morphism(m)
    assert validate_equivariant(e).passed


def test_equivariant_maps_with_other_endpoints_are_refused():
    """An equivariant map acts through one groupoid, and two compose only
    end to end."""
    e0, e1 = (identity_equivariant(wrep_from_ruth(z2_ruth(p))) for p in (0, 1))
    with pytest.raises(CompositionError, match="boundaries do not match"):
        compose_equivariant(e1, e0)
    w = wrep_from_ruth(pair_strict_ruth())
    with pytest.raises(StructureError, match="different acting groupoids"):
        EquivariantMap(e0.source, w, e0.f0, e0.f1, e0.delta)


def test_compose_equivariant_matches_morphism_composition():
    rng = random.Random(21)
    r = gen.random_ruth(rng, z2_groupoid(), max_dim=2)
    m1 = gen.random_ruth_morphism(rng, r)
    m2 = gen.random_ruth_morphism(rng, m1.source)
    e1, e2 = wrep_from_ruth_morphism(m1), wrep_from_ruth_morphism(m2)
    comp = compose_equivariant(e1, e2)
    assert validate_equivariant(comp).passed
    assert comp == wrep_from_ruth_morphism(compose_morphisms(m1, m2))
    # identity laws
    assert compose_equivariant(e1, identity_equivariant(e1.source)) == e1
    assert compose_equivariant(identity_equivariant(e1.target), e1) == e1


def test_act_functorial_on_composites():
    rng = random.Random(22)
    r = gen.random_ruth(rng, z2_groupoid(), max_dim=2)
    m1 = gen.random_ruth_morphism(rng, r)
    m2 = gen.random_ruth_morphism(rng, m1.source)
    e1, e2 = wrep_from_ruth_morphism(m1), wrep_from_ruth_morphism(m2)
    lhs = act_on_morphism(compose_equivariant(e1, e2), validate=False)
    rhs = compose_vb_maps(act_on_morphism(e1, validate=False),
                          act_on_morphism(e2, validate=False))
    assert lhs == rhs


def test_act_reconstruct_round_trips():
    rng = random.Random(23)
    for _ in range(5):
        e = gen.random_equivariant(rng, z2_groupoid(), max_dim=2)
        phi = act_on_morphism(e, validate=False)
        assert validate_vb_map(phi).passed
        back = reconstruct_equivariant(phi, e.source, e.target)
        assert back == e
        assert act_on_morphism(back, validate=False) == phi


def test_act_reconstruct_act_builds_one_chart_and_action_groupoid_per_representation(
        monkeypatch):
    """Operation count: the act-ff round trip meets two weak
    representations, and builds each one's chart and action groupoid once."""
    built = []
    plain_chart, plain_bundle = ActionChart.__init__, weak.action_groupoid_bundle

    def counting_chart(self, w):
        built.append(("chart", id(w)))
        plain_chart(self, w)

    def counting_bundle(w):
        built.append(("action groupoid", id(w)))
        return plain_bundle(w)

    monkeypatch.setattr(ActionChart, "__init__", counting_chart)
    monkeypatch.setattr(weak, "action_groupoid_bundle", counting_bundle)
    e = gen.random_equivariant(random.Random(23), z2_groupoid(), max_dim=2)
    assert e.source is not e.target
    phi = act_on_morphism(e, validate=False)
    back = reconstruct_equivariant(phi, e.source, e.target)
    assert back == e and act_on_morphism(back, validate=False) == phi
    assert sorted(built) == sorted((kind, id(w)) for kind in ("chart", "action groupoid")
                                   for w in (e.source, e.target))


def test_chart_and_action_groupoid_are_kept_per_instance():
    """The caches live on the instance they were built from: ``==`` ignores
    them, a copy made before first use and a mutant made by
    ``dataclasses.replace`` carry none, and the mutant builds its own."""
    w = wrep_from_ruth(sign_twisted_ruth())
    before = copy.deepcopy(w)
    assert w.chart is w.chart and w.action_groupoid is w.action_groupoid
    assert w.action_groupoid == action_groupoid_bundle(w)
    mutant = dataclasses.replace(w, a0={**w.a0, "g": -w.a0["g"]})
    for other in (before, mutant):
        assert "chart" not in vars(other) and "action_groupoid" not in vars(other)
    assert before == w
    assert mutant.chart is not w.chart and mutant.chart.decoder["g"] != w.chart.decoder["g"]


def test_act_trivial_cell_is_kernel_pushforward():
    # strict functor with trivial cell: arrows map by f1 on the kernel part
    w = wrep_from_ruth(pair_strict_ruth())
    e = identity_equivariant(w)
    phi = act_on_morphism(e, validate=False)
    for a in w.groupoid.arrows:
        assert phi.arr_maps[a].is_identity()


def test_delta_unit_mutation_flagged():
    rng = random.Random(24)
    e = gen.random_equivariant(rng, z2_groupoid(), max_dim=2)
    mut = gen.mutate_equivariant_delta_unit(rng, e)
    if mut is not None:
        rep = validate_equivariant(mut[0])
        assert any(x.check == "unit-triangle" for x in rep.entries)


# Fixture weak representations and scrambled generated ones.
CHARTS = [(w, ActionChart(w)) for w in
          [build() for kind, build in FIXTURES.values() if kind == "wrep"]
          + [gen.scramble_wrep(random.Random(seed), gen.random_wrep(random.Random(seed)))[0]
             for seed in range(3)]]
entries = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_action_chart_encode_agrees_with_solve(data):
    """Kernel-chart coordinates equal a full solve against the kernel basis
    of ttilde, a pair is rejected exactly when that solve fails, and decode
    inverts encode."""
    w, chart = data.draw(st.sampled_from(CHARTS))
    a = data.draw(st.sampled_from(w.groupoid.arrows))
    s, t = w.groupoid.src[a], w.groupoid.tgt[a]
    x = tuple(data.draw(entries) for _ in range(w.bundle.objdim[s]))
    base = chart.tau[t].apply(w.a0[a].apply(x))
    ker = linalg.kernel_basis(w.bundle.ttilde[t])
    k = base
    for b in ker:
        k = linalg.vec_add(k, linalg.vec_scale(data.draw(entries), b))
    if data.draw(st.booleans()):
        k = linalg.vec_add(k, tuple(data.draw(entries) for _ in range(w.bundle.arrdim[t])))
    want = linalg.solve(LinearMap.from_columns(list(ker), w.bundle.arrdim[t]),
                        linalg.vec_sub(k, base))
    if want is None:
        with pytest.raises(CompositionError):
            chart.encode(a, _column(x), _column(k))
    else:
        coords = chart.encode(a, _column(x), _column(k))
        assert coords.column(0) == x + want
        assert tuple(b.column(0) for b in chart.decode(a, coords)) == (x, k)


def test_action_groupoid_of_an_unvalidated_mutant_raises_composition_error():
    """On this free mutant some table's block of basis columns does not
    compose: building the action groupoid raises, and does not return a
    groupoid built on pairs that do not compose."""
    w = gen.scramble_wrep(random.Random(3), gen.random_wrep(random.Random(3)))[0]
    mutant, _ = gen.mutate_wrep_entry(random.Random(7), w)
    with pytest.raises(CompositionError):
        action_groupoid_bundle(mutant)


def _bump_first_entry(table, key):
    m = table[key]
    return {**table, key: m.with_entry(0, 0, m.entry(0, 0) + 1)}


def _vb_with_bumped_stilde():
    """semidirect(pair_strict_ruth()) with one source-map entry changed and
    the stored multiplication kept."""
    v = semidirect(pair_strict_ruth())
    return validate_vb(VBGroupoid(v.base, v.objdim, v.arrdim,
                                  _bump_first_entry(v.stilde, "p:x>x:0"), v.ttilde,
                                  v.utilde, v.inv_map, v.mult))


def _wrep_with_bumped_alpha():
    w = wrep_from_ruth(pair_strict_ruth())
    return validate_weak_representation(WeakRepresentation(
        w.groupoid, w.bundle, w.a0, w.a1,
        _bump_first_entry(w.alpha, ("p:x>x:0", "p:x>x:0"))))


def _equivariant_with_bumped_delta():
    e = identity_equivariant(wrep_from_ruth(pair_strict_ruth()))
    return validate_equivariant(EquivariantMap(e.source, e.target, e.f0, e.f1,
                                               _bump_first_entry(e.delta, "p:x>x:0")))


@pytest.mark.parametrize("report, entry", [
    (_vb_with_bumped_stilde,
     CheckEntry("right-inverse-law", "p:x>x:0 basis 0", "unit", "not composable")),
    (_wrep_with_bumped_alpha,
     CheckEntry("associator-naturality", "(p:x>x:0,p:x>x:0) basis 1",
                "composable cells", "not composable")),
    (_equivariant_with_bumped_delta,
     CheckEntry("cell-naturality", "p:x>x:0 basis 1", "composable cells", "not composable")),
])
def test_product_that_cannot_be_formed_is_reported_not_composable(report, entry):
    assert entry in report().entries
