"""The executable equivalences: round trips between the three models,
the kernel realization of VB-groupoids, and the triangle identification."""

import random

import pytest

from ruthvb import equivalences
from ruthvb.errors import NotInducedError, StructureError, ValidationError
from ruthvb.groupoid import cyclic_groupoid, pair_groupoid, transitive_groupoid, z2_groupoid
from ruthvb.harness import generators as gen
from ruthvb.harness.fixtures import pair_strict_ruth, stretched_line_ruth, z2_ruth
from ruthvb.linalg import LinearMap, kernel_basis, compose
from ruthvb.ruth import Ruth, validate_morphism, validate_ruth
from ruthvb.semidirect import semidirect
from ruthvb.twoterm import TwoTermComplex, phi_object
from ruthvb.vb import (Connection, connection_report, find_unital_connection,
                       validate_vb, validate_vb_map, vb_map_is_isomorphism)
from ruthvb.weak import (EquivariantMap, WeakRepresentation, act_on_morphism,
                         validate_equivariant, validate_weak_representation)
from ruthvb.equivalences import (connection_change_witness, reconstruct_equivariant,
                                 ruth_from_wrep, ruth_morphism_from_wrep_map,
                                 triangle_witness, vb_to_wrep, wrep_from_ruth,
                                 wrep_from_ruth_morphism)

FIXTURE_RUTHS = [z2_ruth(0), z2_ruth(1), stretched_line_ruth(), pair_strict_ruth()]


@pytest.mark.parametrize("idx", range(len(FIXTURE_RUTHS)))
def test_ruth_wrep_round_trip_on_the_nose(idx):
    r = FIXTURE_RUTHS[idx]
    assert ruth_from_wrep(wrep_from_ruth(r)) == r


def test_ruth_wrep_round_trip_random():
    rng = random.Random(30)
    for _ in range(10):
        r = gen.random_ruth(rng, max_dim=2)
        assert ruth_from_wrep(wrep_from_ruth(r, validate=False)) == r


def test_strict_wrep_gives_strict_ruth():
    r = pair_strict_ruth()
    back = ruth_from_wrep(wrep_from_ruth(r))
    assert all(m.is_zero() for m in back.omega.values())


def test_scrambled_wrep_recovers_isomorphic_ruth():
    rng = random.Random(31)
    r = gen.random_ruth(rng, z2_groupoid(), max_dim=2)
    w = wrep_from_ruth(r, validate=False)
    w2, witness = gen.scramble_wrep(rng, w)
    assert validate_weak_representation(w2).passed
    r2 = ruth_from_wrep(w2)
    assert validate_ruth(r2).passed
    gauge = ruth_morphism_from_wrep_map(witness)
    assert gauge.source == r and gauge.target == r2
    assert validate_morphism(gauge).passed


def test_morphism_round_trip():
    """Over draws with a nonzero degree-0 and a nonzero degree-1 fiber, so
    that the homotopy operator is not empty; ruth_morphism_from_wrep_map
    validates nothing, so the recovered morphism is validated here."""
    checked = 0
    for seed in range(40):
        rng = random.Random(seed)
        r = gen.random_ruth(rng, pair_groupoid(["x", "y"]), max_dim=2)
        m = gen.random_ruth_morphism(rng, r)
        dims = r.complex
        if not (any(dims.dim0.values()) and any(dims.dim1.values())):
            continue
        back = ruth_morphism_from_wrep_map(wrep_from_ruth_morphism(m))
        assert back == m
        assert validate_morphism(back).passed
        checked += 1
    assert checked >= 10


def _bumped(table: dict, key, i: int, j: int) -> dict:
    """A copy of table whose map at key has 1 added at entry (i, j)."""
    m = table[key]
    return {**table, key: m.with_entry(i, j, m.entry(i, j) + 1)}


def _corrupted_wrep(table: str, key, i: int, j: int) -> WeakRepresentation:
    w = wrep_from_ruth(z2_ruth(1))
    tables = {"a1": w.a1, "alpha": w.alpha}
    tables[table] = _bumped(tables[table], key, i, j)
    return WeakRepresentation(w.groupoid, w.bundle, w.a0, tables["a1"], tables["alpha"])


def _corrupted_wrep_map(table: str, key, i: int, j: int) -> EquivariantMap:
    m = gen.random_ruth_morphism(random.Random(37), z2_ruth(1))
    e = wrep_from_ruth_morphism(m)
    tables = {"f1": e.f1, "delta": e.delta}
    tables[table] = _bumped(tables[table], key, i, j)
    return EquivariantMap(e.source, e.target, e.f0, tables["f1"], tables["delta"])


# Every fiber of z2_ruth(1) is one-dimensional in each degree, so entry
# (0, 1) of an arrow-fiber map is an off-diagonal block and (1, 1) its
# degree-1 block, and row 1 of a cell is its degree-1 part.
@pytest.mark.parametrize("invert, corrupt, message", [
    (ruth_from_wrep, lambda: _corrupted_wrep("a1", "g", 0, 1),
     "action at g has nonzero off-diagonal blocks"),
    (ruth_from_wrep, lambda: _corrupted_wrep("a1", "g", 1, 1),
     "action at g has the wrong degree-1 block"),
    (ruth_from_wrep, lambda: _corrupted_wrep("alpha", ("g", "g"), 1, 0),
     r"associator at \(g,g\) has the wrong degree-1 part"),
    (ruth_morphism_from_wrep_map, lambda: _corrupted_wrep_map("f1", "*", 0, 1),
     r"functor at \* has nonzero off-diagonal blocks"),
    (ruth_morphism_from_wrep_map, lambda: _corrupted_wrep_map("f1", "*", 1, 1),
     r"functor at \* has the wrong degree-1 block"),
    (ruth_morphism_from_wrep_map, lambda: _corrupted_wrep_map("delta", "g", 1, 0),
     "cell at g has the wrong degree-1 part"),
], ids=["action-off-diagonal", "action-degree-1", "associator-degree-1",
        "functor-off-diagonal", "functor-degree-1", "cell-degree-1"])
def test_ruth_from_corrupted_wrep_raises(invert, corrupt, message):
    """Each block the inverse functors read is pinned: a corrupted block
    raises NotInducedError at the check that reads it."""
    with pytest.raises(NotInducedError, match=message):
        invert(corrupt())


@pytest.mark.parametrize("idx", range(len(FIXTURE_RUTHS)))
def test_triangle_on_fixtures(idx):
    triangle_witness(FIXTURE_RUTHS[idx])


def test_triangle_random():
    rng = random.Random(33)
    for _ in range(5):
        triangle_witness(gen.random_ruth(rng, max_dim=2), validate=False)


CONTRACTIBLE_BASES = [pair_groupoid(["x", "y"]), transitive_groupoid(["x", "y"], 2),
                      pair_groupoid(["x", "y", "z"])]


def contractible_ruth(rng, g, max_dim=2) -> Ruth:
    """A representation on the contractible complex R^n --id--> R^n at each
    object, n drawn per object, so an arrow may join fibers of different
    dimensions: lambda0 = lambda1 = L for a random L with L(unit) = 1, and
    omega(g1, g2) = L(g1 g2) - L(g1) L(g2), which is valid for every such L."""
    n = {x: rng.randint(0, max_dim) for x in g.objects}
    complex_ = TwoTermComplex(g.objects, n, n, {x: LinearMap.identity(n[x]) for x in g.objects})
    lam = {a: LinearMap.identity(n[g.src[a]]) if g.is_unit(a)
           else gen.rand_matrix(rng, n[g.tgt[a]], n[g.src[a]]) for a in g.arrows}
    omega = {(g1, g2): lam[g12] - lam[g1] @ lam[g2] for (g1, g2), g12 in g.comp.items()}
    return Ruth(g, complex_, lam, lam, omega)


def test_conversions_on_arrows_between_fibers_of_different_dimensions():
    """Contractible representations through every conversion, the action on
    morphisms and its inverse, and the action chart, whose decoder splits
    after the x rows of the source fiber and whose encoder after the residual
    rows of the target fiber."""
    rng = random.Random(38)
    unequal = 0
    for i in range(24):
        g = CONTRACTIBLE_BASES[i % len(CONTRACTIBLE_BASES)]
        r = contractible_ruth(rng, g)
        dim = r.complex.dim0
        unequal += any(dim[g.src[a]] != dim[g.tgt[a]] for a in g.arrows)
        assert validate_ruth(r).passed
        w = wrep_from_ruth(r)
        assert ruth_from_wrep(w) == r
        sd = semidirect(r)
        assert validate_vb(sd).passed
        assert vb_to_wrep(sd).wrep == w
        triangle_witness(r)
        for a in g.arrows:
            x, k = w.chart.decode(a, LinearMap.identity(w.action_groupoid.arrdim[a]))
            assert w.chart.encode(a, x, k).is_identity()
        e = wrep_from_ruth_morphism(gen.random_ruth_morphism(rng, r))
        phi = act_on_morphism(e)
        assert validate_vb_map(phi).passed
        assert reconstruct_equivariant(phi, e.source, e.target) == e
    assert unequal >= 12


@pytest.mark.parametrize("idx", range(len(FIXTURE_RUTHS)))
def test_kernel_action_on_semidirect_recovers_wrep(idx):
    r = FIXTURE_RUTHS[idx]
    res = vb_to_wrep(semidirect(r, validate=False), validate=False)
    assert res.wrep == wrep_from_ruth(r, validate=False)
    assert ruth_from_wrep(res.wrep) == r


def test_kernel_action_on_scrambled():
    rng = random.Random(34)
    for _ in range(5):
        v = gen.random_vb(rng, max_dim=2)
        res = vb_to_wrep(v, validate=False)
        assert validate_weak_representation(res.wrep).passed
        assert validate_vb_map(res.iso).passed
        assert vb_map_is_isomorphism(res.iso)
        assert validate_ruth(ruth_from_wrep(res.wrep)).passed


def test_kernel_action_over_trivial_base():
    v = phi_object(gen.random_complex(random.Random(35), max_dim=2))
    res = vb_to_wrep(v, validate=False)
    g = v.base
    for a in g.arrows:  # all arrows are units: the action is trivial
        assert res.wrep.a0[a].is_identity()
        assert res.wrep.a1[a].is_identity()
    for pair, cell in res.wrep.alpha.items():
        x = g.src[pair[1]]
        assert cell == compose(v.utilde[x], res.wrep.a0[pair[0]])


def test_kernel_action_refuses_a_connection_of_another_vb_groupoid():
    v = semidirect(z2_ruth(1), validate=False)
    other = semidirect(z2_ruth(2), validate=False)
    assert other != v
    with pytest.raises(StructureError, match="different VB-groupoid"):
        vb_to_wrep(v, find_unital_connection(other))


def _perturbed_connection(rng, v):
    """Another unital connection of v: the first one found, moved along
    ker stilde at every arrow that is not a unit and has such a kernel."""
    first = find_unital_connection(v)
    sigma2 = dict(first.sigma)
    g = v.base
    changed = False
    for a in g.arrows:
        if g.is_unit(a):
            continue
        ker = kernel_basis(v.stilde[a])
        if not ker:
            continue
        K = LinearMap.from_columns(list(ker), v.arrdim[a])
        R = gen.rand_matrix(rng, K.cols, v.objdim[g.src[a]])
        while R.is_zero():
            R = gen.rand_matrix(rng, K.cols, v.objdim[g.src[a]])
        sigma2[a] = first.sigma[a] + compose(K, R)
        changed = True
    assert changed
    second = Connection(v, sigma2, rule="perturbed")
    assert connection_report(second).passed
    return first, second


def test_two_connections_give_equivalent_actions():
    rng = random.Random(36)
    v, _, _ = gen.scramble_vb(rng, semidirect(z2_ruth(1), validate=False))
    first, second = _perturbed_connection(rng, v)
    witness = connection_change_witness(v, first, second)
    assert validate_equivariant(witness).passed


@pytest.mark.parametrize("base", [pair_groupoid(["x", "y"]), cyclic_groupoid(3)],
                         ids=["pair", "C3"])
def test_two_connections_give_equivalent_actions_over_arrows_that_are_not_involutions(base):
    """The cell of the witness at a reads the first connection at a and the
    inverse map at a, through the pair (a, a^-1); over Z/2 every arrow is its
    own inverse, so only a base with other arrows tells a^-1 from a."""
    rng = random.Random(37)
    v = gen.random_vb(rng, base, max_dim=2)
    assert any(base.inv[a] != a for a in base.arrows)
    first, second = _perturbed_connection(rng, v)
    witness = connection_change_witness(v, first, second)
    assert validate_equivariant(witness).passed


@pytest.mark.parametrize("certify, message", [
    (lambda r: vb_to_wrep(semidirect(r)), "kernel-action identification is not invertible"),
    (triangle_witness, "triangle identification is not invertible"),
], ids=["kernel-action", "triangle"])
def test_an_identification_that_is_not_invertible_is_refused(monkeypatch, certify, message):
    """Each certificate checks that its VB map is an isomorphism as well as
    a VB map; with the isomorphism test made to fail, both refuse."""
    monkeypatch.setattr(equivalences, "vb_map_is_isomorphism", lambda m: False)
    with pytest.raises(ValidationError, match=message):
        certify(z2_ruth(1))
