"""Two-term complexes, their 2-category, and the equivalence with linear
groupoid bundles."""

import random
from fractions import Fraction

import pytest

from ruthvb import linalg, twoterm
from ruthvb.errors import CompositionError, NotInducedError, StructureError
from ruthvb.groupoid import trivial_groupoid
from ruthvb.harness import generators as gen
from ruthvb.harness.fixtures import pair_strict_ruth, z2_ruth
from ruthvb.harness.generators import random_chain_map, random_complex, random_homotopy_from
from ruthvb.linalg import LinearMap
from ruthvb.ruth import identity_morphism
from ruthvb.semidirect import psi_morphism, semidirect
from ruthvb.twoterm import (ChainHomotopy, ChainMap, TwoTermComplex,
                            check_interchange, compose_chain_maps,
                            extract_chain_map, extract_homotopy, hcompose,
                            identity_chain_map, phi_object, phi_onemorphism,
                            phi_twomorphism, split_bundle, vcompose, zero_homotopy)
from ruthvb.vb import (BundleTransformation, VBGroupoid, VBMap, compose_vb_maps,
                       identity_vb_map, validate_vb, validate_vb_map)


def random_interchange_square(rng, max_dim: int = 2):
    """Four homotopies pasting as two vertical pairs over two horizontal
    legs, for interchange checks."""
    base = ["p"]
    c = random_complex(rng, base, max_dim)
    d = random_complex(rng, base, max_dim)
    e = random_complex(rng, base, max_dim)
    f = random_chain_map(rng, c, d)
    phi = random_homotopy_from(rng, f)
    x = random_homotopy_from(rng, phi.to_map)
    k = random_chain_map(rng, d, e)
    psi = random_homotopy_from(rng, k)
    om = random_homotopy_from(rng, psi.to_map)
    return phi, x, psi, om


def point_complex(d0, d1, diff_rows):
    return TwoTermComplex(["p"], {"p": d0}, {"p": d1},
                          {"p": LinearMap.from_rows(diff_rows) if diff_rows
                           else LinearMap.zero(d1, d0)})


def scalar_map(c, d, f0, f1):
    return ChainMap(c, d, {"p": LinearMap.from_rows([[f0]])},
                    {"p": LinearMap.from_rows([[f1]])})


def zero_complex(base):
    return TwoTermComplex(base, {x: 0 for x in base}, {x: 0 for x in base},
                          {x: LinearMap.zero(0, 0) for x in base})


LINE = point_complex(1, 1, [[0]])


def test_chain_map_square_enforced():
    c = point_complex(1, 1, [[1]])
    with pytest.raises(StructureError):
        scalar_map(c, c, 1, 2)  # 2*1 != 1*1
    scalar_map(c, c, 2, 2)      # equal scalars commute with diff


def test_homotopy_invariant_enforced():
    f = scalar_map(LINE, LINE, 1, 1)
    g = scalar_map(LINE, LINE, 1, 2)
    # diff = 0 so a homotopy cannot change the chain map
    with pytest.raises(StructureError):
        ChainHomotopy(f, g, {"p": LinearMap.from_rows([[1]])})
    zero_homotopy(f)


def test_vcompose_examples():
    f = scalar_map(LINE, LINE, 1, 1)
    a = ChainHomotopy(f, f, {"p": LinearMap.from_rows([[1]])})
    b = ChainHomotopy(f, f, {"p": LinearMap.from_rows([[2]])})
    assert vcompose(a, b).omega["p"] == LinearMap.from_rows([[3]])
    assert vcompose(a, zero_homotopy(f)) == a
    neg = ChainHomotopy(f, f, {"p": LinearMap.from_rows([[-1]])})
    assert vcompose(a, neg) == zero_homotopy(f)


def test_vcompose_boundary_mismatch():
    f = scalar_map(LINE, LINE, 1, 1)
    g = scalar_map(LINE, LINE, 2, 2)
    a = zero_homotopy(f)
    b = zero_homotopy(g)
    with pytest.raises(CompositionError):
        vcompose(a, b)


def test_hcompose_whiskering_values():
    # psi between f,g: LINE -> LINE with components 3; omega with k0 = 2,
    # omega = 5, over g1 = 7: expect 2*3 + 5*7 = 41
    f = scalar_map(LINE, LINE, 7, 7)
    psi = ChainHomotopy(f, f, {"p": LinearMap.from_rows([[3]])})
    k = scalar_map(LINE, LINE, 2, 2)
    omega = ChainHomotopy(k, k, {"p": LinearMap.from_rows([[5]])})
    out = hcompose(psi, omega)
    assert out.omega["p"] == LinearMap.from_rows([[41]])
    # one-sided whiskering: psi = 0 gives omega . g1
    zpsi = zero_homotopy(f)
    assert hcompose(zpsi, omega).omega["p"] == LinearMap.from_rows([[35]])
    # both zero
    assert hcompose(zpsi, zero_homotopy(k)).omega["p"].is_zero()


def test_interchange_trivial_and_random():
    rng = random.Random(2)
    f = scalar_map(LINE, LINE, 1, 1)
    k = scalar_map(LINE, LINE, 1, 1)
    z = zero_homotopy(f)
    zk = zero_homotopy(k)
    assert check_interchange(z, z, zk, zk)
    for _ in range(50):
        quad = random_interchange_square(rng, max_dim=2)
        assert check_interchange(*quad)


def test_interchange_refuses_unpastable():
    f = scalar_map(LINE, LINE, 1, 1)
    g = scalar_map(LINE, LINE, 2, 2)
    with pytest.raises(CompositionError):
        check_interchange(zero_homotopy(f), zero_homotopy(g),
                          zero_homotopy(f), zero_homotopy(f))


def test_phi_object_zero_complex():
    v = phi_object(zero_complex(["p"]))
    assert v.objdim["p"] == 0 and v.arrdim["p"] == 0
    assert validate_vb(v).passed


def test_phi_object_line_delta_zero():
    v = phi_object(LINE)
    assert v.arrdim["p"] == 2
    # delta = 0: every arrow is an endomorphism
    assert v.stilde["p"] == v.ttilde["p"]
    assert validate_vb(v).passed


def test_phi_object_identity_delta():
    c = point_complex(1, 1, [[1]])
    v = phi_object(c)
    assert validate_vb(v).passed
    arrow = (Fraction(1), Fraction(0))
    assert v.stilde["p"].apply(arrow) == (Fraction(0),)
    assert v.ttilde["p"].apply(arrow) == (Fraction(1),)


def test_phi_onemorphism_examples():
    ident = phi_onemorphism(identity_chain_map(LINE))
    assert all(m.is_identity() for m in ident.arr_maps.values())
    f = scalar_map(LINE, LINE, 2, 3)
    F = phi_onemorphism(f)
    assert F.arr_maps["p"].apply((Fraction(1), Fraction(1))) == \
        (Fraction(2), Fraction(3))
    assert validate_vb_map(F).passed


def test_phi_twomorphism_component_blocks():
    f = scalar_map(LINE, LINE, 3, 3)
    h = ChainHomotopy(f, f, {"p": LinearMap.from_rows([[5]])})
    t = phi_twomorphism(h)
    # block order (degree 0, degree 1): component c -> (5c, 3c)
    assert t.comp["p"].apply((Fraction(1),)) == (Fraction(5), Fraction(3))
    z = phi_twomorphism(zero_homotopy(f))
    # unit-section transformation
    assert z.comp["p"].apply((Fraction(1),)) == (Fraction(0), Fraction(3))


def test_phi_twomorphism_builds_each_sum_groupoid_once(monkeypatch):
    """Operation count: both bundle functors of a homotopy run between the
    sum groupoids of its two complexes, built once each."""
    built = []
    plain = twoterm.phi_object

    def counting(c):
        built.append(c)
        return plain(c)

    monkeypatch.setattr(twoterm, "phi_object", counting)
    rng = random.Random(5)
    c, d = gen.random_complex(rng, ["p", "q"], 2), gen.random_complex(rng, ["p", "q"], 2)
    h = gen.random_homotopy_from(rng, gen.random_chain_map(rng, c, d))
    assert extract_homotopy(phi_twomorphism(h)) == h
    assert built == [c, d]


def test_split_bundle_round_trip_identity():
    rng = random.Random(3)
    for _ in range(10):
        c = gen.random_complex(rng, max_dim=3)
        c2, iso = split_bundle(phi_object(c))
        assert c2 == c
        assert all(m.is_identity() for m in iso.arr_maps.values())


def test_split_bundle_scrambled():
    rng = random.Random(4)
    c = point_complex(1, 1, [[2]])
    v, _, _ = gen.scramble_vb(rng, phi_object(c))
    c2, iso = split_bundle(v)
    assert validate_vb_map(iso).passed
    assert not all(m.is_identity() for m in iso.arr_maps.values())
    assert c2.dim0 == c.dim0 and c2.dim1 == c.dim1


def test_split_zero_bundle():
    c2, _ = split_bundle(phi_object(zero_complex(["p", "q"])))
    assert all(d == 0 for d in c2.dim0.values())
    assert all(d == 0 for d in c2.dim1.values())


def test_extract_chain_map_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        c = gen.random_complex(rng, max_dim=2)
        d = gen.random_complex(rng, c.base, max_dim=2)
        f = gen.random_chain_map(rng, c, d)
        assert extract_chain_map(phi_onemorphism(f)) == f
    ident = identity_chain_map(LINE)
    assert extract_chain_map(phi_onemorphism(ident)) == ident


def test_extract_chain_map_rejects_bad_blocks():
    v = phi_object(LINE)
    bad = VBMap(v, v, {"p": LinearMap.identity(1)},
                {"p": LinearMap.from_rows([[1, 0], [1, 1]])})  # nonzero x-block
    with pytest.raises(NotInducedError):
        extract_chain_map(bad)
    assert not validate_vb_map(bad).passed  # fails multiplicativity independently


def test_extract_homotopy_round_trip_and_rejection():
    rng = random.Random(6)
    for _ in range(20):
        c = gen.random_complex(rng, max_dim=2)
        d = gen.random_complex(rng, c.base, max_dim=2)
        f = gen.random_chain_map(rng, c, d)
        h = gen.random_homotopy_from(rng, f)
        assert extract_homotopy(phi_twomorphism(h)) == h
    f = scalar_map(LINE, LINE, 3, 3)
    t = phi_twomorphism(zero_homotopy(f))
    bad = BundleTransformation(t.from_map, t.to_map,
                               {"p": LinearMap.from_rows([[0], [7]])})
    with pytest.raises(NotInducedError):
        extract_homotopy(bad)


@pytest.mark.parametrize("ruth", [z2_ruth(1), pair_strict_ruth()], ids=["z2", "pair"])
def test_extraction_refuses_a_map_of_bundles_that_are_not_linear(ruth):
    """Psi of a representation over a base with non-unit arrows is no bundle
    functor of chain data; both extractions raise their documented error,
    not a KeyError on a base point named like no arrow."""
    f = psi_morphism(identity_morphism(ruth))
    with pytest.raises(NotInducedError, match="not linear"):
        extract_chain_map(f)
    with pytest.raises(NotInducedError, match="not linear"):
        extract_homotopy(BundleTransformation(f, f, dict(f.target.utilde)))


TWO_POINTS = TwoTermComplex(["a", "b"], {"a": 1, "b": 1}, {"a": 1, "b": 1},
                            {"a": LinearMap.from_rows([[2]]), "b": LinearMap.from_rows([[2]])})


def test_chain_map_across_base_sets_is_refused():
    """Chain maps cover the identity of one base set; a map from a complex
    over {a, b} to one over {p} has no representation."""
    one = {x: LinearMap.identity(1) for x in ("a", "b")}
    with pytest.raises(StructureError, match="different base sets"):
        ChainMap(TWO_POINTS, point_complex(1, 1, [[2]]), one, one)


def test_vb_map_across_groupoids_is_refused():
    """Maps of VB-groupoids cover the identity of one base groupoid."""
    v, w = phi_object(TWO_POINTS), phi_object(point_complex(1, 1, [[2]]))
    with pytest.raises(StructureError, match="different groupoids"):
        VBMap(v, w, {x: LinearMap.identity(1) for x in ("a", "b")},
              {x: LinearMap.identity(2) for x in ("a", "b")})


def test_maps_and_transformations_with_other_endpoints_are_refused():
    """Two maps compose only end to end, and a transformation runs between
    two maps with the same source and the same target."""
    f = identity_vb_map(phi_object(LINE))
    g = identity_vb_map(phi_object(point_complex(1, 1, [[2]])))
    with pytest.raises(CompositionError, match="boundaries do not match"):
        compose_vb_maps(g, f)
    with pytest.raises(StructureError, match="endpoints differ"):
        BundleTransformation(f, g, {"p": LinearMap.zero(2, 1)})


def test_split_bundle_refuses_a_source_map_that_is_not_onto():
    """A bundle whose object fiber Q at p sits under the arrow fiber 0."""
    zero = LinearMap.zero
    v = VBGroupoid(trivial_groupoid(["p"]), {"p": 1}, {"p": 0}, {"p": zero(1, 0)},
                   {"p": zero(1, 0)}, {"p": zero(0, 1)}, {"p": zero(0, 0)},
                   {("p", "p"): zero(0, 0)})
    with pytest.raises(StructureError, match="source map at p is not surjective"):
        split_bundle(v)



def test_pastings_with_mismatched_boundaries_are_refused():
    f = scalar_map(LINE, LINE, 1, 1)
    g = identity_chain_map(point_complex(1, 1, [[2]]))
    with pytest.raises(CompositionError, match="chain map boundaries do not match"):
        compose_chain_maps(g, f)
    with pytest.raises(StructureError, match="not parallel"):
        ChainHomotopy(f, g, {"p": LinearMap.zero(1, 1)})
    with pytest.raises(CompositionError, match="horizontal boundaries do not match"):
        hcompose(zero_homotopy(f), zero_homotopy(g))
    with pytest.raises(CompositionError, match="does not paste horizontally"):
        check_interchange(zero_homotopy(f), zero_homotopy(f), zero_homotopy(g), zero_homotopy(g))


def test_homotopy_equation_in_degree_0_is_enforced():
    """Over LINE, whose differential is zero, the degree-1 equation holds
    between maps with equal degree-1 parts, and the degree-0 one does not
    when their degree-0 parts differ."""
    with pytest.raises(StructureError, match=r"\(degree 0\) fails at p"):
        ChainHomotopy(scalar_map(LINE, LINE, 1, 1), scalar_map(LINE, LINE, 2, 1),
                      {"p": LinearMap.from_rows([[1]])})


def test_split_bundle_refuses_a_bundle_that_is_not_linear():
    with pytest.raises(StructureError, match="unit groupoid of its points"):
        split_bundle(semidirect(z2_ruth(1)))


def test_extraction_refuses_a_linear_bundle_not_in_sum_groupoid_form():
    v, _, _ = gen.scramble_vb(random.Random(4), phi_object(point_complex(1, 1, [[2]])))
    with pytest.raises(StructureError, match="not in sum-groupoid form"):
        extract_chain_map(identity_vb_map(v))


def test_extraction_reraises_a_refused_chain_map_or_homotopy_as_not_induced():
    """Blocks of the right form whose chain data break the chain square, or
    the homotopy equation, come from no chain map or homotopy."""
    v, w = phi_object(LINE), phi_object(point_complex(1, 1, [[1]]))
    f = VBMap(v, w, {"p": LinearMap.identity(1)}, {"p": LinearMap.identity(2)})
    with pytest.raises(NotInducedError, match="chain square fails at p"):
        extract_chain_map(f)
    ident = identity_vb_map(w)
    t = BundleTransformation(ident, ident, {"p": LinearMap.from_rows([[1], [1]])})
    with pytest.raises(NotInducedError, match=r"\(degree 1\) fails at p"):
        extract_homotopy(t)


def test_hcompose_output_is_valid_homotopy():
    rng = random.Random(7)
    for _ in range(10):
        c = gen.random_complex(rng, ["p"], max_dim=2)
        d = gen.random_complex(rng, ["p"], max_dim=2)
        e = gen.random_complex(rng, ["p"], max_dim=2)
        f = gen.random_chain_map(rng, c, d)
        psi = gen.random_homotopy_from(rng, f)
        k = gen.random_chain_map(rng, d, e)
        om = gen.random_homotopy_from(rng, k)
        out = hcompose(psi, om)  # constructor re-verifies the two equations
        assert out.from_map == compose_chain_maps(k, f)
