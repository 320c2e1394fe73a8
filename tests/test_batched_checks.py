"""The whole-block validator checks against a per-basis-vector oracle.

Each reference validator below checks every identity one basis vector at
a time, through its own product of one pair of ``Fraction`` vectors, the
way the validators did before they checked whole blocks of basis columns
in integers.  Both must report the same entries (check, location,
expected, actual) in the same order, on the fixtures, on seeded valid
instances and on the mutants of every mutator.  A final test counts
``VBGroupoid.multiply`` calls: a validator or conversion makes as many on
fibers of dimension 2 as on fibers of dimension 1, so none slides back to
one product per basis vector unnoticed.
"""

import random

from ruthvb import linalg
from ruthvb.errors import CompositionError, StructureError
from ruthvb.groupoid import pair_groupoid, validate_groupoid
from ruthvb.harness import fixtures, generators as gen
from ruthvb.linalg import LinearMap, kernel_basis
from ruthvb.reports import ColumnCheck, Report
from ruthvb.ruth import Ruth, gauge_transport, identity_morphism
from ruthvb.semidirect import psi_morphism, semidirect
from ruthvb.twoterm import TwoTermComplex, phi_twomorphism
from ruthvb.vb import (BundleTransformation, VBGroupoid, VBMap, identity_vb_map,
                       kernel_groupoid, validate_bundle_transformation, validate_vb,
                       validate_vb_map)
from ruthvb.weak import (EquivariantMap, WeakRepresentation, action_groupoid_bundle,
                         identity_equivariant, validate_equivariant,
                         validate_weak_representation)
from ruthvb.equivalences import vb_to_wrep, wrep_from_ruth, wrep_from_ruth_morphism


# -- the per-basis-vector oracle -----------------------------------------------

def _multiply(v, g1, g2, a, b):
    """The product of one composable pair of fiber vectors, read off the pair
    operator applied to the one vector (a, b)."""
    out = v.pair_operator(g1, g2).apply(tuple(a) + tuple(b))
    split = v.objdim[v.base.src[g1]]
    if any(out[:split]):
        raise CompositionError(f"vectors over ({g1},{g2}) are not composable")
    return out[split:]


def _point_multiply(w, x, a, b):
    u = w.bundle.base.unit[x]
    return _multiply(w.bundle, u, u, a, b)


def _expect_composable(rep, check, location, sides, label):
    try:
        want, got = sides()
    except CompositionError:
        rep.add(check, location, label, "not composable")
        return
    rep.expect(check, location, want, got)


def reference_vb(v):
    g = v.base
    rep = Report("vb-groupoid")
    rep.extend(validate_groupoid(g), prefix="groupoid: ")
    if not rep.passed:
        return rep
    for x in g.objects:
        u = g.unit[x]
        su = linalg.compose(v.stilde[u], v.utilde[x])
        tu = linalg.compose(v.ttilde[u], v.utilde[x])
        if not su.is_identity():
            rep.add("unit-source", f"object {x}", "identity", repr(su))
        if not tu.is_identity():
            rep.add("unit-target", f"object {x}", "identity", repr(tu))
    for a in g.arrows:
        onto, r = v.objdim[g.src[a]], linalg.rank(v.stilde[a])
        if r != onto:
            rep.add("source-onto", a, f"rank {onto}", f"rank {r}")
    for a in g.arrows:
        b = g.inv[a]
        si = linalg.compose(v.stilde[b], v.inv_map[a])
        ti = linalg.compose(v.ttilde[b], v.inv_map[a])
        if si != v.ttilde[a]:
            rep.add("inverse-source", a, "ttilde", repr(si))
        if ti != v.stilde[a]:
            rep.add("inverse-target", a, "stilde", repr(ti))
    for (g1, g2), m in v.mult.items():
        g12 = g.comp[(g1, g2)]
        basis = v.pair_basis(g1, g2)
        d1 = v.arrdim[g1]
        for idx, pb in enumerate(basis):
            vv, ww = pb[:d1], pb[d1:]
            prod = m.apply(linalg.vec_basis(len(basis), idx))
            loc = f"({g1},{g2}) basis {idx}"
            rep.expect("product-source", loc, v.stilde[g2].apply(ww), v.stilde[g12].apply(prod))
            rep.expect("product-target", loc, v.ttilde[g1].apply(vv), v.ttilde[g12].apply(prod))
    for a in g.arrows:
        s, t, b = g.src[a], g.tgt[a], g.inv[a]
        for i in range(v.arrdim[a]):
            vec = linalg.vec_basis(v.arrdim[a], i)
            ut = v.utilde[t].apply(v.ttilde[a].apply(vec))
            us = v.utilde[s].apply(v.stilde[a].apply(vec))
            iv = v.inv_map[a].apply(vec)
            loc = f"{a} basis {i}"
            _expect_composable(rep, "left-unit-law", loc,
                               lambda: (vec, _multiply(v, g.unit[t], a, ut, vec)), str(vec))
            _expect_composable(rep, "right-unit-law", loc,
                               lambda: (vec, _multiply(v, a, g.unit[s], vec, us)), str(vec))
            _expect_composable(rep, "right-inverse-law", loc,
                               lambda: (ut, _multiply(v, a, b, vec, iv)), "unit")
            _expect_composable(rep, "left-inverse-law", loc,
                               lambda: (us, _multiply(v, b, a, iv, vec)), "unit")
    for (g1, g2, g3) in g.nerve_tuples(3):
        d1, d2, d3 = v.arrdim[g1], v.arrdim[g2], v.arrdim[g3]
        c1 = linalg.hstack(v.stilde[g1], -v.ttilde[g2], LinearMap.zero(v.objdim[g.src[g1]], d3))
        c2 = linalg.hstack(LinearMap.zero(v.objdim[g.src[g2]], d1), v.stilde[g2], -v.ttilde[g3])
        for idx, tb in enumerate(kernel_basis(linalg.vstack(c1, c2))):
            a1, a2, a3 = tb[:d1], tb[d1:d1 + d2], tb[d1 + d2:]
            _expect_composable(
                rep, "associativity", f"({g1},{g2},{g3}) basis {idx}",
                lambda: (_multiply(v, g.comp[(g1, g2)], g3, _multiply(v, g1, g2, a1, a2), a3),
                         _multiply(v, g1, g.comp[(g2, g3)], a1, _multiply(v, g2, g3, a2, a3))),
                "composable products")
    return rep


def reference_vb_map(m):
    rep = Report("vb-map")
    src, tgt = m.source, m.target
    gb = src.base
    for a in gb.arrows:
        rep.expect("source-compatibility", a,
                   linalg.compose(m.obj_maps[gb.src[a]], src.stilde[a]),
                   linalg.compose(tgt.stilde[a], m.arr_maps[a]))
        rep.expect("target-compatibility", a,
                   linalg.compose(m.obj_maps[gb.tgt[a]], src.ttilde[a]),
                   linalg.compose(tgt.ttilde[a], m.arr_maps[a]))
    for x in gb.objects:
        rep.expect("unit-compatibility", f"object {x}",
                   linalg.compose(tgt.utilde[x], m.obj_maps[x]),
                   linalg.compose(m.arr_maps[gb.unit[x]], src.utilde[x]))
    for (g1, g2), g12 in gb.comp.items():
        d1 = src.arrdim[g1]
        for idx, pb in enumerate(src.pair_basis(g1, g2)):
            vv, ww = pb[:d1], pb[d1:]
            _expect_composable(
                rep, "multiplicativity", f"({g1},{g2}) basis {idx}",
                lambda: (_multiply(tgt, g1, g2,
                                   m.arr_maps[g1].apply(vv), m.arr_maps[g2].apply(ww)),
                         m.arr_maps[g12].apply(_multiply(src, g1, g2, vv, ww))),
                "composable images")
    return rep


def reference_bundle_transformation(t):
    rep = Report("bundle-transformation")
    src, tgt = t.from_map.source, t.from_map.target
    for x in src.base.objects:
        ux = src.base.unit[x]
        rep.expect("component-source", f"object {x}",
                   t.from_map.obj_maps[x], linalg.compose(tgt.stilde[ux], t.comp[x]))
        rep.expect("component-target", f"object {x}",
                   t.to_map.obj_maps[x], linalg.compose(tgt.ttilde[ux], t.comp[x]))
    for x in src.base.objects:
        ux = src.base.unit[x]
        for i in range(src.arrdim[ux]):
            vec = linalg.vec_basis(src.arrdim[ux], i)
            _expect_composable(
                rep, "naturality", f"{x} basis {i}",
                lambda: (_multiply(tgt, ux, ux, t.to_map.arr_maps[ux].apply(vec),
                                   t.comp[x].apply(src.stilde[ux].apply(vec))),
                         _multiply(tgt, ux, ux, t.comp[x].apply(src.ttilde[ux].apply(vec)),
                                   t.from_map.arr_maps[ux].apply(vec))),
                "composable")
    return rep


def reference_weak_representation(w):
    g = w.groupoid
    rep = Report("weak-representation")
    rep.extend(validate_groupoid(g), prefix="groupoid: ")
    if not rep.passed:
        return rep
    rep.extend(reference_vb(w.bundle), prefix="bundle: ")
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        rep.expect("action-source", a, linalg.compose(w.a0[a], w.bundle.stilde[s]),
                   linalg.compose(w.bundle.stilde[t], w.a1[a]))
        rep.expect("action-target", a, linalg.compose(w.a0[a], w.bundle.ttilde[s]),
                   linalg.compose(w.bundle.ttilde[t], w.a1[a]))
        rep.expect("action-units", a, linalg.compose(w.bundle.utilde[t], w.a0[a]),
                   linalg.compose(w.a1[a], w.bundle.utilde[s]))
        us = w.bundle.base.unit[s]
        d1 = w.bundle.arrdim[us]
        for idx, pb in enumerate(w.bundle.pair_basis(us, us)):
            v1, v2 = pb[:d1], pb[d1:]
            _expect_composable(
                rep, "action-multiplicative", f"{a} basis {idx}",
                lambda: (_point_multiply(w, t, w.a1[a].apply(v1), w.a1[a].apply(v2)),
                         w.a1[a].apply(_point_multiply(w, s, v1, v2))),
                "composable images")
    for x in g.objects:
        u = g.unit[x]
        if not w.a0[u].is_identity():
            rep.add("unital-objects", f"unit {u}", "identity", repr(w.a0[u]))
        if not w.a1[u].is_identity():
            rep.add("unital-arrows", f"unit {u}", "identity", repr(w.a1[u]))
    for (g1, g2), cell in w.alpha.items():
        t1, s2, g12 = g.tgt[g1], g.src[g2], g.comp[(g1, g2)]
        loc = f"({g1},{g2})"
        rep.expect("associator-source", loc, linalg.compose(w.a0[g1], w.a0[g2]),
                   linalg.compose(w.bundle.stilde[t1], cell))
        rep.expect("associator-target", loc, w.a0[g12],
                   linalg.compose(w.bundle.ttilde[t1], cell))
        for i in range(w.bundle.arrdim[s2]):
            vb = linalg.vec_basis(w.bundle.arrdim[s2], i)
            _expect_composable(
                rep, "associator-naturality", f"{loc} basis {i}",
                lambda: (_point_multiply(w, t1, w.a1[g12].apply(vb),
                                         cell.apply(w.bundle.stilde[s2].apply(vb))),
                         _point_multiply(w, t1, cell.apply(w.bundle.ttilde[s2].apply(vb)),
                                         w.a1[g1].apply(w.a1[g2].apply(vb)))),
                "composable cells")
    for (g1, g2, g3) in g.nerve_tuples(3):
        g12, g23 = g.comp[(g1, g2)], g.comp[(g2, g3)]
        t1, s3 = g.tgt[g1], g.src[g3]
        for i in range(w.bundle.objdim[s3]):
            xb = linalg.vec_basis(w.bundle.objdim[s3], i)
            _expect_composable(
                rep, "pentagon", f"({g1},{g2},{g3}) basis {i}",
                lambda: (_point_multiply(w, t1, w.alpha[(g12, g3)].apply(xb),
                                         w.alpha[(g1, g2)].apply(w.a0[g3].apply(xb))),
                         _point_multiply(w, t1, w.alpha[(g1, g23)].apply(xb),
                                         w.a1[g1].apply(w.alpha[(g2, g3)].apply(xb)))),
                "composable cells")
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        rep.expect("unit-coherence-right", a, linalg.compose(w.a1[a], w.bundle.utilde[s]),
                   w.alpha[(a, g.unit[s])])
        rep.expect("unit-coherence-left", a, linalg.compose(w.bundle.utilde[t], w.a0[a]),
                   w.alpha[(g.unit[t], a)])
    return rep


def reference_equivariant(e):
    rep = Report("equivariant-map")
    rep.extend(reference_vb_map(e.bundle_map()), prefix="functor: ")
    g = e.source.groupoid
    v, w = e.source, e.target
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        rep.expect("cell-source", a, linalg.compose(e.f0[t], v.a0[a]),
                   linalg.compose(w.bundle.stilde[t], e.delta[a]))
        rep.expect("cell-target", a, linalg.compose(w.a0[a], e.f0[s]),
                   linalg.compose(w.bundle.ttilde[t], e.delta[a]))
        for i in range(v.bundle.arrdim[s]):
            vb = linalg.vec_basis(v.bundle.arrdim[s], i)
            _expect_composable(
                rep, "cell-naturality", f"{a} basis {i}",
                lambda: (_point_multiply(w, t, w.a1[a].apply(e.f1[s].apply(vb)),
                                         e.delta[a].apply(v.bundle.stilde[s].apply(vb))),
                         _point_multiply(w, t, e.delta[a].apply(v.bundle.ttilde[s].apply(vb)),
                                         e.f1[t].apply(v.a1[a].apply(vb)))),
                "composable cells")
    for (g1, g2), g12 in g.comp.items():
        t1, s2 = g.tgt[g1], g.src[g2]
        for i in range(v.bundle.objdim[s2]):
            xb = linalg.vec_basis(v.bundle.objdim[s2], i)
            _expect_composable(
                rep, "hexagon", f"({g1},{g2}) basis {i}",
                lambda: (_point_multiply(w, t1, e.delta[g12].apply(xb),
                                         e.f1[t1].apply(v.alpha[(g1, g2)].apply(xb))),
                         _point_multiply(
                             w, t1,
                             _point_multiply(w, t1, w.alpha[(g1, g2)].apply(e.f0[s2].apply(xb)),
                                             w.a1[g1].apply(e.delta[g2].apply(xb))),
                             e.delta[g1].apply(v.a0[g2].apply(xb)))),
                "composable cells")
    for x in g.objects:
        rep.expect("unit-triangle", f"object {x}",
                   linalg.compose(w.bundle.utilde[x], e.f0[x]), e.delta[g.unit[x]])
    return rep


VALIDATORS = {
    VBGroupoid: (validate_vb, reference_vb),
    VBMap: (validate_vb_map, reference_vb_map),
    BundleTransformation: (validate_bundle_transformation, reference_bundle_transformation),
    WeakRepresentation: (validate_weak_representation, reference_weak_representation),
    EquivariantMap: (validate_equivariant, reference_equivariant),
}


# -- instances ------------------------------------------------------------------

def _bump(table, key, i=0, j=0, delta=1):
    m = table[key]
    return {**table, key: m.with_entry(i, j, m.entry(i, j) + delta)}


def _identity_transformation(v):
    """The identity transformation of the identity map of a bundle over a
    trivial base: its component at x is the unit section."""
    f = identity_vb_map(v)
    return BundleTransformation(f, f, dict(v.utilde))


def _doubled_arrow_map(v):
    """The identity map of v with the arrow map of its first non-unit arrow
    doubled: the images of a composable pair through that arrow no longer
    compose, so their basis columns are "not composable"."""
    g = v.base
    a = next(a for a in g.arrows if not g.is_unit(a))
    arr = {x: LinearMap.identity(v.arrdim[x]) for x in g.arrows}
    return VBMap(v, v, {x: LinearMap.identity(v.objdim[x]) for x in g.objects},
                 {**arr, a: arr[a] + arr[a]})


def _fixture_instances():
    """Every fixture, with the maps and transformations built from it."""
    out = []
    for name, (kind, build) in fixtures.FIXTURES.items():
        obj = build()
        if kind == "ruth":
            m = identity_morphism(obj)
            out += [semidirect(obj, validate=False), wrep_from_ruth(obj, validate=False),
                    wrep_from_ruth_morphism(m, validate=False)]
            if name != "z2-ruth-broken4":
                out.append(psi_morphism(m))
        elif kind == "vb":
            k = kernel_groupoid(obj)
            out += [obj, identity_vb_map(obj), _doubled_arrow_map(obj), k,
                    _identity_transformation(k)]
        elif kind == "wrep":
            out += [obj, identity_equivariant(obj)]
    return out


def _mutants(rng, obj, mutators):
    for mutate in mutators:
        result = mutate(rng, obj)
        if result is not None:
            yield result[0]


def _ruth_cases(rng, r):
    """A representation and its free and rigid mutants, as VB-groupoids and
    weak representations, plus its gauge morphism as a VB map and an
    equivariant map."""
    for s in [r, *_mutants(rng, r, (gen.mutate_ruth_unit_cell, gen.mutate_ruth_entry))]:
        yield semidirect(s, validate=False)
        yield wrep_from_ruth(s, validate=False)
    m = gen.random_ruth_morphism(rng, r)
    yield psi_morphism(m)
    yield wrep_from_ruth_morphism(m, validate=False)


def _map_cases(rng, f):
    """A VB map and, when the arrow map it draws is not empty, a mutant of
    that arrow map."""
    yield f
    a = rng.choice(f.source.base.arrows)
    if f.arr_maps[a].rows * f.arr_maps[a].cols:
        yield VBMap(f.source, f.target, f.obj_maps, _bump(f.arr_maps, a))


def _transformation_cases(rng):
    c = gen.random_complex(rng, max_dim=2)
    d = gen.random_complex(rng, c.base, max_dim=2)
    h = gen.random_homotopy_from(rng, gen.random_chain_map(rng, c, d))
    t = phi_twomorphism(h)
    yield t
    yield from _map_cases(rng, t.from_map)
    x = rng.choice(c.base)
    if t.comp[x].rows * t.comp[x].cols:
        yield BundleTransformation(t.from_map, t.to_map, _bump(t.comp, x))


def _groupoid_mutant(rng, v):
    """The VB-groupoid over a base whose composition table is mutated, when
    the stored tables still have their shapes there."""
    mutated = gen.mutate_groupoid_comp(rng, v.base)
    if mutated is None:
        return None
    try:
        return VBGroupoid(mutated[0], v.objdim, v.arrdim, v.stilde, v.ttilde, v.utilde,
                          v.inv_map, v.mult)
    except StructureError:
        return None


def _seeded_instances(seed):
    """One valid instance of each kind the seed's case draws, with mutants."""
    rng = random.Random(seed)
    g = gen.random_groupoid(rng, 3, 6)
    max_dim = (0, 1, 1, 2)[seed % 4]
    case = seed % 5
    if case == 0:
        v = gen.random_vb(rng, g, max_dim)
        yield v
        yield from _mutants(rng, v, (gen.mutate_vb_cell, gen.mutate_vb_entry))
        m = _groupoid_mutant(rng, v)
        if m is not None:
            yield m
    elif case == 1:
        w = gen.random_wrep(rng, g, max_dim)
        yield w
        yield from _mutants(rng, w, (gen.mutate_wrep_alpha_unit, gen.mutate_wrep_entry))
    elif case == 2:
        e = gen.random_equivariant(rng, g, max_dim)
        yield e
        yield from _mutants(rng, e, (gen.mutate_equivariant_delta_unit,
                                     gen.mutate_equivariant_entry))
    elif case == 3:
        r = gen.random_ruth(rng, g, max_dim)
        yield from _ruth_cases(rng, r)
        yield from _map_cases(rng, psi_morphism(gen.random_ruth_morphism(rng, r)))
    else:
        yield from _transformation_cases(rng)


def _entries(report):
    return [(e.check, e.location, e.expected, e.actual) for e in report.entries]


def _empty_bases(obj):
    """The number of composable pairs of obj's VB-groupoids with an empty
    chart basis."""
    vbs = {VBGroupoid: lambda o: [o], VBMap: lambda o: [o.source, o.target],
           BundleTransformation: lambda o: [o.from_map.source],
           WeakRepresentation: lambda o: [o.bundle],
           EquivariantMap: lambda o: [o.source.bundle, o.target.bundle]}[type(obj)](obj)
    return sum(not v.pair_chart(*pair).free for v in vbs for pair in v.base.comp)


# -- the tests -------------------------------------------------------------------

def test_fixture_reports_match_the_per_basis_oracle():
    instances = _fixture_instances()
    assert {type(o) for o in instances} == set(VALIDATORS)
    seen = []
    for obj in instances:
        validate, reference = VALIDATORS[type(obj)]
        got = _entries(validate(obj))
        assert got == _entries(reference(obj))
        seen += got
    assert ("multiplicativity", "not composable") in {(e[0], e[3]) for e in seen}


def test_seeded_reports_and_mutants_match_the_per_basis_oracle():
    """At least 500 valid instances and a mutant from every mutator, with
    zero-dimensional fibers and pairs with an empty chart basis; more than
    400 reports fail, some of them as "not composable" and some on a source
    map that is not onto."""
    kinds, failing, valid, empty, not_composable, not_onto = set(), 0, 0, 0, 0, 0
    for seed in range(300):
        for obj in _seeded_instances(seed):
            validate, reference = VALIDATORS[type(obj)]
            got, want = _entries(validate(obj)), _entries(reference(obj))
            assert got == want, (seed, type(obj).__name__)
            kinds.add(type(obj))
            failing += bool(got)
            valid += not got
            empty += _empty_bases(obj)
            not_composable += any(e[3] == "not composable" for e in got)
            not_onto += any(e[0] == "source-onto" for e in got)
    assert kinds == set(VALIDATORS)
    assert valid >= 500 and failing >= 400 and empty > 0 and not_composable > 0 and not_onto > 0


def _pair_semidirect(n):
    """The semi-direct product over the pair groupoid on x, y of a gauged
    strict representation with both fibers of dimension n."""
    g = pair_groupoid(["x", "y"])
    dims = {x: n for x in g.objects}
    c = TwoTermComplex(g.objects, dims, dims, {x: LinearMap.identity(n) for x in g.objects})
    strict = Ruth(g, c, {a: LinearMap.identity(n) for a in g.arrows},
                  {a: LinearMap.identity(n) for a in g.arrows},
                  {pair: LinearMap.zero(n, n) for pair in g.comp})
    return semidirect(gauge_transport(strict, *gen.random_gauge(random.Random(n), strict))[0])


def test_multiply_count_does_not_grow_with_the_fiber(monkeypatch):
    """Operation count, independent of the machine: validate_vb, vb_to_wrep
    and action_groupoid_bundle call VBGroupoid.multiply as often on fibers
    (2, 2) as on fibers (1, 1), because each product takes a whole block."""
    calls = []
    plain = VBGroupoid.multiply

    def counting(self, *args):
        calls.append(args[:2])
        return plain(self, *args)

    def count(f, *args):
        calls.clear()
        return f(*args), len(calls)

    monkeypatch.setattr(VBGroupoid, "multiply", counting)
    counts = []
    for n in (1, 2):
        v = _pair_semidirect(n)
        assert set(v.objdim.values()) == {n} and set(v.arrdim.values()) == {2 * n}
        _, checks = count(validate_vb, v)
        res, conversions = count(vb_to_wrep, v)
        _, actions = count(action_groupoid_bundle, res.wrep)
        counts.append((checks, conversions, actions))
    assert counts[0] == counts[1]
    assert all(counts[0])


def test_sides_of_different_shape_are_one_violation_at_the_location():
    """No column of such a check is read; its shapes are the two sides.  An
    equal-shape check beside it reports exactly as it does alone."""
    mismatched = ColumnCheck("c", LinearMap.identity(1), LinearMap.from_rows([[1, 0]]))
    rep = Report("t")
    rep.expect_columns("w", [mismatched])
    assert [(e.check, e.location, e.expected, e.actual) for e in rep.entries] == [
        ("c", "w", "1x1 block", "1x2 block")]
    unequal = ColumnCheck("d", LinearMap.identity(2), LinearMap.zero(2, 2))
    alone, both = Report("t"), Report("t")
    alone.expect_columns("w", [unequal])
    both.expect_columns("w", [mismatched, unequal])
    assert both.entries == rep.entries + alone.entries and len(alone.entries) == 2


def test_column_checks_report_exact_entries_in_order():
    """Pins ``expect_columns``: a shape mismatch first, wherever its check
    stands; then by basis column, in the order of the checks, a column that
    is both broken and unequal as "not composable" only, a broken column
    under its check's label, an unequal column with both sides, and nothing
    for a passing check or a zero residual."""
    broken_and_unequal = ColumnCheck(
        "a", LinearMap.from_rows([[1, 0, 2], [0, 1, 0]]),
        LinearMap.from_rows([[5, 0, 2], [0, 1, 3]]),
        (LinearMap.zero(2, 3), LinearMap.from_rows([[1, 1, 0]])))
    mismatched = ColumnCheck("s", LinearMap.identity(1), LinearMap.from_rows([[1, 0]]))
    passing = ColumnCheck("p", LinearMap.identity(3), LinearMap.identity(3),
                          (LinearMap.zero(1, 3),))
    unequal = ColumnCheck("b", LinearMap.from_rows([[1, 1, 1]]),
                          LinearMap.from_rows([[1, 7, 1]]), (LinearMap.zero(2, 3),), "unit")
    labelled = ColumnCheck("c", LinearMap.identity(3), LinearMap.identity(3),
                           (LinearMap.from_rows([[0, 0, 1]]),), "composable products")
    rep = Report("t")
    rep.expect_columns("w", [broken_and_unequal, mismatched, passing, unequal, labelled])
    assert [(e.check, e.location, e.expected, e.actual) for e in rep.entries] == [
        ("s", "w", "1x1 block", "1x2 block"),
        ("a", "w basis 0", "(Fraction(1, 1), Fraction(0, 1))", "not composable"),
        ("a", "w basis 1", "(Fraction(0, 1), Fraction(1, 1))", "not composable"),
        ("b", "w basis 1", "(Fraction(1, 1),)", "(Fraction(7, 1),)"),
        ("a", "w basis 2", "(Fraction(2, 1), Fraction(0, 1))",
         "(Fraction(2, 1), Fraction(3, 1))"),
        ("c", "w basis 2", "composable products", "not composable")]
    alone = Report("t")
    alone.expect_columns("w", [passing, passing])
    assert alone.entries == []


def test_column_blocks_report_as_one_call_per_block():
    """``expect_columns`` with ``blocks`` records, block by block, the
    entries of one call per block on its own columns cut out, an empty
    block among them; a passing check never reads its blocks."""
    want = LinearMap.from_rows([[1, 0, 2, 5], [0, 1, 0, 1]])
    checks = [ColumnCheck("c", want, LinearMap.from_rows([[1, 9, 2, 5], [0, 1, 0, 0]]),
                          (LinearMap.from_rows([[0, 0, 1, 0]]),), "cells"),
              ColumnCheck("d", want, LinearMap.from_rows([[3, 0, 2, 5], [0, 1, 0, 4]]))]
    blocks = [("p", 2), ("q", 0), ("r", 1), ("s", 1)]
    rep, per_block = Report("t"), Report("t")
    rep.expect_columns("w", checks, iter(blocks))
    start = 0
    for name, width in blocks:
        cut = [ColumnCheck(c.check, *(m.block(0, m.rows, start, start + width)
                                      for m in (c.want, c.got)),
                           [r.block(0, r.rows, start, start + width) for r in c.residuals],
                           c.label) for c in checks]
        per_block.expect_columns(name, cut)
        start += width
    assert rep.entries == per_block.entries
    assert [(e.check, e.location) for e in rep.entries] == [
        ("d", "p basis 0"), ("c", "p basis 1"), ("c", "r basis 0"), ("c", "s basis 0"),
        ("d", "s basis 0")]

    def unread():
        raise AssertionError("a passing check read its blocks")
        yield

    passing = Report("t")
    passing.expect_columns("w", [ColumnCheck("c", want, want)], unread())
    assert passing.entries == []
