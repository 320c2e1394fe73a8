"""Representations up to homotopy: the four identities, morphisms, gauge
transport, and the square-zero total operator."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from ruthvb.cochains import (ScalarCochain, SectionCochain, is_normalized,
                             twisted_differential)
from ruthvb.equivalences import wrep_from_ruth
from ruthvb.errors import (CompositionError, DegreeError, NotInvertibleError,
                           StructureError)
from ruthvb.groupoid import (cyclic_groupoid, pair_groupoid, transitive_groupoid,
                             z2_groupoid)
from ruthvb.harness import generators as gen
from ruthvb.harness.fixtures import (pair_strict_ruth, stretched_line_ruth,
                                     z2_ruth, z2_ruth_broken4)
from ruthvb.linalg import LinearMap
from ruthvb.ruth import (Ruth, RuthMorphism, TotalCochain, check_leibniz,
                         common_denominator, compose_morphisms, gauge_transport,
                         identity_morphism, invert_morphism, operator_columns,
                         square_is_zero, total_operator, validate_morphism,
                         validate_ruth)
from ruthvb.semidirect import semidirect
from ruthvb.vb import validate_vb
from ruthvb.weak import validate_weak_representation


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


@pytest.mark.parametrize("max_degree", [0, 1, 2, 3])
def test_square_zero_needs_nerve_degree_4(max_degree):
    r = z2_ruth(1)
    r.groupoid.max_degree = max_degree
    with pytest.raises(DegreeError, match=f"total degree {max_degree + 1} exceeds"):
        square_is_zero(r)


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


def _reference_operator(r, c: TotalCochain) -> TotalCochain:
    """D at the cochain level: the twisted differentials of both layers,
    omega inserted at the first two arguments, and diff post-composed."""
    g, co = r.groupoid, r.complex
    n = c.degree
    out0 = twisted_differential(r.lambda0, c.part0)
    out1 = SectionCochain(g, co, 1, n, {tup: co.diff[g.tuple_target(tup, n)].apply(v)
                                        for tup, v in c.part0.values.items()})
    if c.part1 is not None:
        w1 = c.part1.values
        out0 = out0 + SectionCochain(g, co, 0, n + 1, {
            tup: r.omega[tup[:2]].apply(w1[tup[2:] if n > 1 else (g.src[tup[1]],)])
            for tup in g.nerve_tuples(n + 1)})
        out1 = out1 - twisted_differential(r.lambda1, c.part1)
    return TotalCochain(out0, out1)


def _dense(column: dict, den: int, size: int) -> list:
    return [Fraction(column.get(j, 0), den) for j in range(size)]


def test_generic_element_tabulates_the_operator():
    """D applied to the generic element sum_i x_i b_i of total degree
    n <= 2 is the table operator_columns: column i of D_n and of
    D_{n+1} D_n is the reference D resp. D(D) of basis element i."""
    rng = random.Random(13)
    instances = []
    while len(instances) < 16:
        r = gen.random_ruth(rng, gen.random_groupoid(rng, 3, 6), max_dim=2)
        mut = gen.mutate_ruth_entry(rng, r)
        instances += [r] + ([mut[0]] if mut else [])
    for r in instances:
        den = common_denominator(r)
        for n in range(3):
            d_n, d_next = operator_columns(r, n), operator_columns(r, n + 1)
            for i, b in enumerate(_total_basis(r, n)):
                once = _reference_operator(r, b)
                twice = _coordinates(_reference_operator(r, once))
                assert total_operator(r, b) == once, (n, i)
                assert _dense(d_n[i], den, len(_coordinates(once))) == _coordinates(once), (n, i)
                product: dict = {}
                for k, x in d_n[i].items():
                    for j, y in d_next[k].items():
                        product[j] = product.get(j, 0) + x * y
                assert _dense(product, den * den, len(twice)) == twice, (n, i)


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


def test_four_detectors_agree_on_free_mutants():
    """The square-zero test agrees with the structure identities, and the
    semi-direct VB axioms and the weak-representation axioms agree with
    the whole of validate_ruth, on free single-entry mutants."""
    rng = random.Random(14)
    mutants = failing = 0
    while mutants < 300:
        r = gen.random_ruth(rng, gen.random_groupoid(rng, 3, 6), max_dim=2)
        for _ in range(3):
            mut = gen.mutate_ruth_entry(rng, r)
            if mut is None:
                break
            instance, desc = mut
            mutants += 1
            rep = validate_ruth(instance)
            identities_hold = not any(e.check.startswith("identity-") for e in rep.entries)
            assert square_is_zero(instance).passed == identities_hold, desc
            assert validate_vb(semidirect(instance, validate=False)).passed == rep.passed, desc
            wrep = wrep_from_ruth(instance, validate=False)
            assert validate_weak_representation(wrep).passed == rep.passed, desc
            failing += not rep.passed
    assert 0 < failing < mutants


def _shaped_ruth(key: str, g, dims):
    """The first valid representation over g, drawn from sub-seeds of key,
    with fiber dimensions dims = (dim0, dim1) at every object; and the rng
    that drew it."""
    for attempt in range(10_000):
        rng = random.Random(f"{key}/{attempt}")
        strict = gen.random_strict_ruth(rng, g, max(dims))
        if all((strict.complex.dim0[x], strict.complex.dim1[x]) == dims for x in g.objects):
            return gauge_transport(strict, *gen.random_gauge(rng, strict))[0], rng
    raise AssertionError(f"no shape {dims} over {key}")


# sha256 of each report's to_dict(), as JSON with sorted keys: the valid
# instance, then three free mutants.  The C8 mutants break the same 164
# basis columns.
PASS_DIGEST = "8a5cb0610074b1adc878b59290c00cc6b984b90dd648698e96ffcc2943a8a780"
ABOVE_DESK_C8 = (PASS_DIGEST,) + (
    "5ad8978ecbfb826ea600aa7e337db3395856cf62ea89267839a9b163ed7bb6cc",) * 3
ABOVE_DESK_T3I2 = (PASS_DIGEST,
                   "1c032bf37cbe8094af96d666643ff8d0e5c0d401f9139714f493055047fbcc1f",
                   "d9d1aac2a5162590237bde3992fb43e319783cf83d5f7f5eea51fd43a186d74f",
                   "d9d1aac2a5162590237bde3992fb43e319783cf83d5f7f5eea51fd43a186d74f")
ABOVE_DESK = {
    "c8": (cyclic_groupoid(8), (2, 2), ABOVE_DESK_C8),
    "t3i2": (transitive_groupoid(["x", "y", "z"], 2), (2, 1), ABOVE_DESK_T3I2),
}


@pytest.mark.parametrize("name", sorted(ABOVE_DESK))
def test_square_zero_reports_above_desk_scale(name):
    g, dims, pinned = ABOVE_DESK[name]
    r, rng = _shaped_ruth(name, g, dims)
    instances = [r] + [gen.mutate_ruth_entry(rng, r)[0] for _ in range(3)]
    digests = [hashlib.sha256(json.dumps(square_is_zero(x).to_dict(), sort_keys=True)
                              .encode()).hexdigest() for x in instances]
    assert digests == list(pinned)


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
