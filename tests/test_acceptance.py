"""Acceptance suite: every criterion is property-based at desk scale
(groupoids up to 4 objects and 12 arrows, fibers up to dimension 3) and
checked with exact arithmetic at zero tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.
"""

import random

import pytest

from ruthvb.harness import generators as gen
from ruthvb.harness.cli import run_fuzz
from ruthvb.harness.fixtures import (pair_strict_ruth, stretched_line_ruth,
                                     z2_ruth)
from ruthvb.linalg import LinearMap, compose, kernel_basis
from ruthvb.ruth import compose_morphisms, square_is_zero, validate_ruth
from ruthvb.semidirect import psi_morphism, semidirect
from ruthvb.twoterm import (check_interchange, extract_chain_map,
                            extract_homotopy, phi_object, phi_onemorphism,
                            phi_twomorphism, split_bundle)
from ruthvb.vb import (Connection, compose_vb_maps, connection_report,
                       find_unital_connection, validate_vb, validate_vb_map,
                       vb_map_is_isomorphism)
from ruthvb.weak import (act_on_morphism, action_groupoid_bundle,
                         validate_equivariant)
from ruthvb.equivalences import (connection_change_witness,
                                 reconstruct_equivariant, triangle_witness,
                                 vb_to_wrep, wrep_from_ruth,
                                 wrep_from_ruth_morphism)

SEED = 424242
TRIALS = 100

FIXTURE_RUTHS = [z2_ruth(0), z2_ruth(1), stretched_line_ruth(), pair_strict_ruth()]

_pool_cache = {}


def ruth_pool():
    """Deterministic pool of gauge-transported representations, biased to
    small groupoids with a few at the desk-scale ceiling (12 arrows or
    dimension 3)."""
    if "pool" not in _pool_cache:
        rng = random.Random(SEED)
        pool = []
        for i in range(TRIALS):
            if i % 20 == 19:
                g = gen.random_groupoid(rng, max_objects=4, max_arrows=12)
                dim = 2
            elif i % 10 == 9:
                g = gen.random_groupoid(rng, max_objects=2, max_arrows=4)
                dim = 3
            else:
                g = gen.random_groupoid(rng, max_objects=3, max_arrows=6)
                dim = 2
            pool.append(gen.random_ruth(rng, g, max_dim=dim))
        _pool_cache["pool"] = pool
    return _pool_cache["pool"]


def _line(n, ok, detail):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok


def test_criterion_1_square_zero_iff_identities():
    """Valid representations square to zero on all basis elements of total
    degrees 0..2; single-identity mutations are detected by the operator."""
    for omega in (0, 1):
        assert square_is_zero(z2_ruth(omega)).passed
    pool = ruth_pool()
    for r in pool:
        assert square_is_zero(r).passed, "operator square nonzero on a valid instance"
    rng = random.Random(SEED + 1)
    detected = 0
    small = [r for r in pool if len(r.groupoid.arrows) <= 4]
    while detected < TRIALS:
        r = small[rng.randrange(len(small))]
        mut = gen.mutate_ruth_entry(rng, r)
        if mut is None:
            continue
        instance, _ = mut
        rep = validate_ruth(instance)
        if not any(e.check.startswith("identity-") for e in rep.entries):
            continue
        assert not square_is_zero(instance).passed, \
            "identity violation invisible to the operator"
        detected += 1
    _line(1, True, f"square-zero on {len(pool)} + 2 valid instances, "
                   f"{detected} identity mutations detected by the operator")


def test_criterion_2_hom_category_isomorphism():
    rng = random.Random(SEED + 2)
    for _ in range(TRIALS):
        c = gen.random_complex(rng, max_dim=3)
        d = gen.random_complex(rng, c.base, max_dim=3)
        f = gen.random_chain_map(rng, c, d)
        assert extract_chain_map(phi_onemorphism(f)) == f
        h = gen.random_homotopy_from(rng, f)
        assert extract_homotopy(phi_twomorphism(h)) == h
        c2, iso = split_bundle(phi_object(c))
        assert c2 == c
        assert all(m.is_identity() for m in iso.arr_maps.values())
        assert all(m.is_identity() for m in iso.obj_maps.values())
    _line(2, True, f"extract . phi = id on {TRIALS} chain maps and homotopies; "
                   "splitting is the identity on sum groupoids")


def test_criterion_3_interchange():
    rng = random.Random(SEED + 3)
    for _ in range(TRIALS):
        quad = gen.random_interchange_square(rng, max_dim=3)
        assert check_interchange(*quad)
    _line(3, True, f"interchange exact on {TRIALS} pastable quadruples")


def test_criterion_4_semidirect_validity_and_psi_functoriality():
    pool = ruth_pool()
    for r in FIXTURE_RUTHS + pool:
        assert validate_vb(semidirect(r, validate=False)).passed
    rng = random.Random(SEED + 4)
    pairs = 0
    while pairs < 25:
        r = pool[rng.randrange(len(pool))]
        m1 = gen.random_ruth_morphism(rng, r)
        m2 = gen.random_ruth_morphism(rng, m1.source)
        lhs = compose_vb_maps(psi_morphism(m1), psi_morphism(m2))
        rhs = psi_morphism(compose_morphisms(m1, m2))
        assert lhs == rhs
        assert validate_vb_map(psi_morphism(m1)).passed
        pairs += 1
    _line(4, True, f"semidirect sweeps on {len(pool) + len(FIXTURE_RUTHS)} "
                   f"instances; semidirect functor exact on {pairs} composites")


def test_criterion_5_action_groupoid_validity():
    pool = ruth_pool()
    count = 0
    for r in FIXTURE_RUTHS + pool:
        w = wrep_from_ruth(r, validate=False)
        assert validate_vb(action_groupoid_bundle(w)).passed
        count += 1
    _line(5, True, f"action groupoids of {count} weak representations pass "
                   "the exhaustive fiberwise sweeps")


def test_criterion_6_essential_surjectivity():
    rng = random.Random(SEED + 6)
    pool = ruth_pool()
    count = 0
    for i in range(TRIALS):
        r = pool[i % len(pool)]
        v, _, _ = gen.scramble_vb(rng, semidirect(r, validate=False))
        res = vb_to_wrep(v, validate=False)  # validates wrep, VB map, invertibility
        assert vb_map_is_isomorphism(res.iso)
        count += 1
    # two distinct connections on one instance, linked by a validated witness
    v, _, _ = gen.scramble_vb(rng, semidirect(z2_ruth(1), validate=False))
    first = find_unital_connection(v)
    sigma2 = dict(first.sigma)
    g = v.base
    for a in g.arrows:
        if g.is_unit(a):
            continue
        ker = kernel_basis(v.stilde[a])
        K = LinearMap.from_columns(list(ker), v.arrdim[a])
        R = gen.rand_matrix(rng, K.cols, v.objdim[g.src[a]])
        while R.is_zero():
            R = gen.rand_matrix(rng, K.cols, v.objdim[g.src[a]])
        sigma2[a] = first.sigma[a] + compose(K, R)
    second = Connection(v, sigma2, rule="perturbed")
    assert connection_report(second).passed
    assert second.sigma != first.sigma
    witness = connection_change_witness(v, first, second)
    assert validate_equivariant(witness).passed
    _line(6, True, f"{count} scrambled VB-groupoids realized as action "
                   "groupoids with verified isomorphisms; connection "
                   "independence witnessed")


def test_criterion_7_full_faithfulness():
    rng = random.Random(SEED + 7)
    pool = ruth_pool()
    count = 0
    while count < TRIALS:
        r = pool[count % len(pool)]
        m = gen.random_ruth_morphism(rng, r)
        e = wrep_from_ruth_morphism(m, validate=False)
        phi = act_on_morphism(e, validate=False)
        back = reconstruct_equivariant(phi, e.source, e.target)
        assert back == e
        assert act_on_morphism(back, validate=False) == phi
        count += 1
    _line(7, True, f"reconstruct . act = id and act . reconstruct = id on "
                   f"{count} equivariant maps, exact table equality")


def test_criterion_8_triangle():
    pool = ruth_pool()
    count = 0
    for r in FIXTURE_RUTHS + pool:
        triangle_witness(r, validate=False)
        count += 1
    _line(8, True, f"action groupoid of the induced weak representation "
                   f"identified with the semi-direct product on {count} instances")


def test_criterion_9_mutation_kill_rate():
    rng = random.Random(SEED + 9)
    report, killed, controls = run_fuzz(rng, trials=800)
    escapes = [e for e in report.entries if e.check == "mutation-escape"]
    assert not escapes, f"{len(escapes)} mutation(s) escaped the validators"
    assert report.passed
    assert killed >= 500, f"only {killed} mutations applied; need at least 500"
    _line(9, True, f"{killed} structural mutations all flagged "
                   f"({controls} no-op controls stayed valid)")
