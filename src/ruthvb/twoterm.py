"""The 2-category of 2-term complexes and its equivalence with linear
groupoid bundles.

Objects are two-term complexes of rational vector spaces over a finite base
set.  1-morphisms are chain maps between complexes over the same base set,
point by point (they cover its identity), and 2-morphisms are chain
homotopies; homotopies compose vertically by sum and horizontally by the
whiskering formula ``k0 . psi + omega . g1``.

The equivalence sends a complex to its sum groupoid (objects the degree-1
fibers, arrows the direct sum, source the projection, target ``diff + proj``),
a chain map to the blockwise bundle functor, and a homotopy to the bundle
transformation whose component at c is the arrow with degree-0 part
``omega(c)`` and degree-1 part ``f1(c)``.  Arrow fibers are always ordered
(degree-0 block, degree-1 block).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import CompositionError, NotInducedError, StructureError
from .groupoid import trivial_groupoid
from .linalg import LinearMap, kernel_chart
from .vb import (BundleTransformation, VBGroupoid, VBMap, validate_bundle_transformation,
                 validate_vb_map)


@dataclass(repr=False)
class TwoTermComplex:
    """Per-point two-term complex: diff maps the degree-0 fiber to the
    degree-1 fiber over the same point."""

    base: tuple[str, ...]
    dim0: dict[str, int]
    dim1: dict[str, int]
    diff: dict[str, LinearMap]

    def __post_init__(self):
        self.base = tuple(sorted(self.base))
        for x, y in zip(self.base, self.base[1:]):
            if x == y:
                raise StructureError(f"base point {x} is repeated")
        self.dim0 = linalg.check_keys("fiber dimensions", self.dim0, self.base)
        self.dim1 = linalg.check_keys("fiber dimensions", self.dim1, self.base)
        self.diff = linalg.check_table("differential", self.diff,
                                       {x: (self.dim1[x], self.dim0[x]) for x in self.base})


@dataclass(repr=False)
class ChainMap:
    """Chain map between complexes over one base set, point by point; the
    chain square is enforced at construction."""

    source: TwoTermComplex
    target: TwoTermComplex
    f0: dict[str, LinearMap]
    f1: dict[str, LinearMap]

    def __post_init__(self):
        source, target = self.source, self.target
        if source.base != target.base:
            raise StructureError("chain map between complexes over different base sets")
        self.f0 = linalg.check_table(
            "degree-0 component", self.f0,
            {x: (target.dim0[x], source.dim0[x]) for x in source.base})
        self.f1 = linalg.check_table(
            "degree-1 component", self.f1,
            {x: (target.dim1[x], source.dim1[x]) for x in source.base})
        for x in source.base:
            if (linalg.compose(self.f1[x], source.diff[x])
                    != linalg.compose(target.diff[x], self.f0[x])):
                raise StructureError(f"chain square fails at {x}")


def identity_chain_map(c: TwoTermComplex) -> ChainMap:
    return ChainMap(c, c,
                    {x: LinearMap.identity(c.dim0[x]) for x in c.base},
                    {x: LinearMap.identity(c.dim1[x]) for x in c.base})


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    if f.target != g.source:
        raise CompositionError("chain map boundaries do not match")
    return ChainMap(
        f.source, g.target,
        {x: linalg.compose(g.f0[x], f.f0[x]) for x in f.source.base},
        {x: linalg.compose(g.f1[x], f.f1[x]) for x in f.source.base})


@dataclass(repr=False)
class ChainHomotopy:
    """Homotopy between two parallel chain maps; both defining equations
    are enforced at construction, so invalid homotopies cannot be built."""

    from_map: ChainMap
    to_map: ChainMap
    omega: dict[str, LinearMap]

    def __post_init__(self):
        from_map, to_map = self.from_map, self.to_map
        if from_map.source != to_map.source or from_map.target != to_map.target:
            raise StructureError("homotopy endpoints are not parallel")
        src, tgt = from_map.source, from_map.target
        self.omega = linalg.check_table(
            "homotopy component", self.omega,
            {x: (tgt.dim0[x], src.dim1[x]) for x in src.base})
        for x in src.base:
            w = self.omega[x]
            if linalg.compose(tgt.diff[x], w) != to_map.f1[x] - from_map.f1[x]:
                raise StructureError(f"homotopy equation (degree 1) fails at {x}")
            if linalg.compose(w, src.diff[x]) != to_map.f0[x] - from_map.f0[x]:
                raise StructureError(f"homotopy equation (degree 0) fails at {x}")


def zero_homotopy(f: ChainMap) -> ChainHomotopy:
    return ChainHomotopy(f, f, {x: LinearMap.zero(f.target.dim0[x], f.source.dim1[x])
                                for x in f.source.base})


def vcompose(a: ChainHomotopy, b: ChainHomotopy) -> ChainHomotopy:
    """Vertical composite (sum): a then b, for a.to_map == b.from_map."""
    if a.to_map != b.from_map:
        raise CompositionError("vertical boundaries do not match")
    return ChainHomotopy(a.from_map, b.to_map,
                         {x: a.omega[x] + b.omega[x] for x in a.omega})


def hcompose(psi: ChainHomotopy, omega: ChainHomotopy) -> ChainHomotopy:
    """Horizontal composite of psi: f => g (into the middle complex) with
    omega: k => l (out of it): a homotopy k.f => l.g with component
    ``k0 . psi + omega . g1`` over each point."""
    if psi.from_map.target != omega.from_map.source:
        raise CompositionError("horizontal boundaries do not match")
    f, g = psi.from_map, psi.to_map
    k, l = omega.from_map, omega.to_map
    comp = {x: linalg.compose(k.f0[x], psi.omega[x]) + linalg.compose(omega.omega[x], g.f1[x])
            for x in f.source.base}
    return ChainHomotopy(compose_chain_maps(k, f), compose_chain_maps(l, g), comp)


def check_interchange(phi: ChainHomotopy, x: ChainHomotopy,
                      psi: ChainHomotopy, omega: ChainHomotopy) -> bool:
    """Exact interchange: pasting phi: f=>g, x: g=>h on the left with
    psi: k=>l, omega: l=>m on the right, compare
    (phi * psi) then (x * omega) against (phi + x) * (psi + omega)."""
    if phi.to_map != x.from_map or psi.to_map != omega.from_map:
        raise CompositionError("diagram does not paste vertically")
    if phi.from_map.target != psi.from_map.source:
        raise CompositionError("diagram does not paste horizontally")
    left = vcompose(hcompose(phi, psi), hcompose(x, omega))
    right = hcompose(vcompose(phi, x), vcompose(psi, omega))
    return left == right


# -- the equivalence with linear groupoid bundles --------------------------------


def phi_object(c: TwoTermComplex) -> VBGroupoid:
    """Sum groupoid of a complex: per point, objects the degree-1 fiber and
    arrows the direct sum with source the projection and target diff + proj."""
    base = trivial_groupoid(c.base)
    objdim, arrdim, stilde, ttilde, utilde, inv_map, sums = {}, {}, {}, {}, {}, {}, {}
    for p in c.base:
        d0, d1 = c.dim0[p], c.dim1[p]
        objdim[p] = d1
        arrdim[p] = d0 + d1
        stilde[p] = linalg.hstack(LinearMap.zero(d1, d0), LinearMap.identity(d1))
        ttilde[p] = linalg.hstack(c.diff[p], LinearMap.identity(d1))
        utilde[p] = linalg.vstack(LinearMap.zero(d0, d1), LinearMap.identity(d1))
        inv_map[p] = linalg.vstack(
            linalg.hstack(-LinearMap.identity(d0), LinearMap.zero(d0, d1)),
            linalg.hstack(c.diff[p], LinearMap.identity(d1)))
        # (a0, a1).(b0, b1) = (a0 + b0, b1), on the stacked pair
        sums[p] = linalg.hstack(linalg.vstack(LinearMap.identity(d0), LinearMap.zero(d1, d0)),
                                LinearMap.zero(d0 + d1, d1), LinearMap.identity(d0 + d1))

    def product(p, _, a, b):
        return sums[p].split_product(a, b, cut=sums[p].rows)[0]

    return VBGroupoid(base, objdim, arrdim, stilde, ttilde, utilde, inv_map, product)


def phi_onemorphism(f: ChainMap) -> VBMap:
    """Bundle functor of a chain map: f1 on objects, f0 + f1 blockwise on
    arrows.  Functoriality is re-verified before returning."""
    return _bundle_functor(f, phi_object(f.source), phi_object(f.target))


def _bundle_functor(f: ChainMap, sv: VBGroupoid, tv: VBGroupoid) -> VBMap:
    """:func:`phi_onemorphism` between the given sum groupoids of f's
    source and target."""
    out = VBMap(sv, tv,
                {x: f.f1[x] for x in f.source.base},
                {x: linalg.direct_sum(f.f0[x], f.f1[x]) for x in f.source.base})
    validate_vb_map(out).require(StructureError,
                                 "bundle functor of a chain map failed verification")
    return out


def phi_twomorphism(h: ChainHomotopy) -> BundleTransformation:
    """Bundle transformation of a homotopy: the component at a degree-1
    vector c is the arrow with degree-0 part omega(c) and degree-1 part
    f1(c).  Both bundle functors run between the same two sum groupoids,
    built once.  Naturality is verified before returning."""
    f = h.from_map
    sv, tv = phi_object(f.source), phi_object(f.target)
    out = BundleTransformation(
        _bundle_functor(f, sv, tv), _bundle_functor(h.to_map, sv, tv),
        {x: linalg.vstack(h.omega[x], f.f1[x]) for x in f.source.base})
    validate_bundle_transformation(out).require(
        StructureError, "bundle transformation of a homotopy failed verification")
    return out


def split_bundle(v: VBGroupoid) -> tuple[TwoTermComplex, VBMap]:
    """Split a linear groupoid bundle into a complex plus the identification
    with the sum groupoid of that complex.

    The degree-1 fibers are the object fibers, the degree-0 fibers are the
    kernels of the source map in the canonical kernel basis, and the
    differential is the target map restricted to them.  The returned map
    sends (c0, c1) to ``J c0 + unit(c1)`` and is verified invertible."""
    if not v.is_linear_bundle():
        raise StructureError("split_bundle needs a bundle over the unit groupoid of its points")
    points = list(v.base.objects)
    dim0, dim1, diff, inj = {}, {}, {}, {}
    for p in points:
        j = kernel_chart(v.stilde[p]).basis_map
        if j.cols + v.objdim[p] != v.arrdim[p]:
            raise StructureError(f"source map at {p} is not surjective")
        dim0[p] = j.cols
        dim1[p] = v.objdim[p]
        diff[p] = linalg.compose(v.ttilde[p], j)
        inj[p] = j
    c = TwoTermComplex(points, dim0, dim1, diff)
    model = phi_object(c)
    iso = VBMap(model, v,
                {p: LinearMap.identity(v.objdim[p]) for p in points},
                {p: linalg.hstack(inj[p], v.utilde[p]) for p in points})
    validate_vb_map(iso).require(StructureError, "bundle splitting failed verification")
    for p in points:
        if not linalg.is_invertible(iso.arr_maps[p]):
            raise StructureError(f"bundle splitting is not invertible at {p}")
    return c, iso


def _phi_image_complex(v: VBGroupoid) -> TwoTermComplex:
    """Read the complex off a sum-groupoid-shaped bundle, insisting on the
    canonical block form (source map = [0 | id])."""
    points = list(v.base.objects)
    dim0, dim1, diff = {}, {}, {}
    for p in points:
        d1 = v.objdim[p]
        d0 = v.arrdim[p] - d1
        want = linalg.hstack(LinearMap.zero(d1, d0), LinearMap.identity(d1))
        if v.stilde[p] != want:
            raise StructureError(f"bundle at {p} is not in sum-groupoid form")
        dim0[p], dim1[p] = d0, d1
        diff[p] = v.ttilde[p].block(0, d1, 0, d0)
    return TwoTermComplex(points, dim0, dim1, diff)


def chain_block(m: LinearMap, d0_target: int, d0_source: int, one: LinearMap,
                where: str) -> LinearMap:
    """The degree-0 block of a map between sum-groupoid fibers (degree-0
    block first on both sides) that is blockwise over ``one``.  Raises
    NotInducedError when an off-diagonal block is nonzero or the degree-1
    block is not ``one``."""
    if (not m.block(d0_target, m.rows, 0, d0_source).is_zero()
            or not m.block(0, d0_target, d0_source, m.cols).is_zero()):
        raise NotInducedError(f"{where} has nonzero off-diagonal blocks")
    if m.block(d0_target, m.rows, d0_source, m.cols) != one:
        raise NotInducedError(f"{where} has the wrong degree-1 block")
    return m.block(0, d0_target, 0, d0_source)


def cell_block(m: LinearMap, d0_target: int, one: LinearMap, where: str) -> LinearMap:
    """The degree-0 part of a map into a sum-groupoid fiber whose degree-1
    part is ``one``.  Raises NotInducedError when it is not."""
    zero_part, one_part = m.split(d0_target)
    if one_part != one:
        raise NotInducedError(f"{where} has the wrong degree-1 part")
    return zero_part


def extract_chain_map(F: VBMap) -> ChainMap:
    """Invert the bundle-functor construction.

    The off-diagonal blocks of each arrow map must vanish and its degree-1
    block must agree with the object map, otherwise the functor does not
    come from a chain map and NotInducedError is raised."""
    cs, ct = _phi_image_complex(F.source), _phi_image_complex(F.target)
    f0 = {p: chain_block(F.arr_maps[p], ct.dim0[p], cs.dim0[p], F.obj_maps[p],
                         f"arrow map at {p}")
          for p in cs.base}
    try:
        return ChainMap(cs, ct, f0, F.obj_maps)
    except StructureError as exc:
        raise NotInducedError(str(exc)) from exc


def extract_homotopy(alpha: BundleTransformation) -> ChainHomotopy:
    """Invert the bundle-transformation construction.

    The degree-1 part of each component must equal the degree-1 component of
    the source functor; the degree-0 part is the homotopy, re-verified via
    the ChainHomotopy constructor."""
    f, g = extract_chain_map(alpha.from_map), extract_chain_map(alpha.to_map)
    omega = {p: cell_block(alpha.comp[p], f.target.dim0[p], f.f1[p],
                           f"component at {p}")
             for p in f.source.base}
    try:
        return ChainHomotopy(f, g, omega)
    except StructureError as exc:
        raise NotInducedError(str(exc)) from exc
