"""VB-groupoids over a finite groupoid: fiberwise-linear groupoid structures.

A VB-groupoid assigns a rational vector space to every object and arrow of
the base groupoid, with linear structure maps covering the base structure
maps.  Multiplication is stored per composable pair of base arrows as one
linear map on the fibered-product subspace, whose canonical basis is the
deterministic kernel basis of ``[stilde_g | -ttilde_h]``.  Each pair reads
the kernel chart of that constraint, row-reduced once for all pairs with
the same two maps: a pair (v, w) is composable when
``stilde_g v = ttilde_h w``, and its coordinates are then its entries at
the chart's free columns, so a product needs no row reduction.  Next to
the chart each pair keeps its pair operator, the constraint stacked on the
multiplication read at the free columns: applied to (v, w) it gives the
composability residual and then the product.  ``multiply`` applies it to
a block of pairs in integers, one pair per column, in one fused product
that never builds the stacked pairs, and ``product`` also insists that
each column compose: the product path of the validators and the
conversions for pairs given as fiber vectors.  Where a block's chart
coordinates are already known, its products are the stored table applied
to them: the associativity sweep reads a triple basis's two inner
products that way, since the basis composes in both pairs by
construction.

A linear groupoid bundle is the special case whose base is the unit
groupoid of its points, in which the arrow at point x is named x; the same
class covers both.  Maps of VB-groupoids and transformations between them
cover the identity of one base groupoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .errors import CompositionError, StructureError
from .groupoid import FiniteGroupoid, trivial_groupoid, validate_groupoid
# kernel_basis is re-exported: callers reach it as ruthvb.vb.kernel_basis.
from .linalg import KernelChart, LinearMap, Vector, kernel_basis, kernel_chart  # noqa: F401
from .reports import ColumnCheck, Report


@dataclass(repr=False)
class VBGroupoid:
    """Fiberwise-linear groupoid over ``base``.

    Shape consistency is enforced here; the groupoid axioms are checked by
    :func:`validate_vb` so corrupted instances can be represented.  ``mult``
    is given either as a stored table, one matrix per composable pair acting
    on that pair's chart coordinates, or as a product rule
    ``mult(g1, g2, left, right) -> LinearMap`` on blocks of composable
    fiber vectors, one pair per column, which is applied at construction
    once per composable pair, to that pair's chart basis.
    """

    base: FiniteGroupoid
    objdim: dict[str, int]
    arrdim: dict[str, int]
    stilde: dict[str, LinearMap]
    ttilde: dict[str, LinearMap]
    utilde: dict[str, LinearMap]
    inv_map: dict[str, LinearMap]
    mult: dict[tuple[str, str], LinearMap]
    _pair_charts: dict[tuple[LinearMap, LinearMap], KernelChart] = field(
        default_factory=dict, init=False, compare=False)
    _pair_operators: dict[tuple[str, str], LinearMap] = field(
        default_factory=dict, init=False, compare=False)

    def __post_init__(self):
        g = self.base
        od = self.objdim = linalg.check_keys("object fiber dimension", self.objdim, g.objects)
        ad = self.arrdim = linalg.check_keys("arrow fiber dimension", self.arrdim, g.arrows)
        self.stilde = linalg.check_table("stilde", self.stilde,
                                         {a: (od[g.src[a]], ad[a]) for a in g.arrows})
        self.ttilde = linalg.check_table("ttilde", self.ttilde,
                                         {a: (od[g.tgt[a]], ad[a]) for a in g.arrows})
        self.inv_map = linalg.check_table("inverse map", self.inv_map,
                                          {a: (ad[g.inv[a]], ad[a]) for a in g.arrows})
        self.utilde = linalg.check_table("utilde", self.utilde,
                                         {x: (ad[g.unit[x]], od[x]) for x in g.objects})
        mult = self.mult
        if callable(mult):
            mult = {(g1, g2): mult(g1, g2, *self.pair_chart(g1, g2).basis_map.split(ad[g1]))
                    for g1, g2 in g.comp}
        self.mult = linalg.check_table("multiplication", mult,
                                       {pair: (ad[g12], len(self.pair_chart(*pair).free))
                                        for pair, g12 in g.comp.items()})

    # -- fibered products -----------------------------------------------------

    def pair_chart(self, g1: str, g2: str) -> KernelChart:
        """The kernel chart of ``[stilde_g1 | -ttilde_g2]``, cached by the two
        maps, so pairs with equal maps share one row reduction."""
        if self.base.src[g1] != self.base.tgt[g2]:
            raise CompositionError(f"{g1}, {g2} not composable in the base")
        key = (self.stilde[g1], self.ttilde[g2])
        chart = self._pair_charts.get(key)
        if chart is None:
            chart = self._pair_charts[key] = kernel_chart(linalg.hstack(key[0], -key[1]))
        return chart

    def pair_basis(self, g1: str, g2: str) -> tuple[Vector, ...]:
        """Canonical basis of {(v,w) : stilde(v) = ttilde(w)} in V1(g1)+V1(g2)."""
        return self.pair_chart(g1, g2).basis

    def pair_operator(self, g1: str, g2: str) -> LinearMap:
        """The constraint ``[stilde_g1 | -ttilde_g2]`` stacked on the pair's
        multiplication read at its chart's free columns, cached.
        Applied to a pair (v, w), its first ``objdim[src g1]`` rows give the
        composability residual and the rest the product."""
        key = (g1, g2)
        if key not in self._pair_operators:
            chart = self.pair_chart(g1, g2)
            self._pair_operators[key] = linalg.vstack(
                chart.constraint, self.mult[key] @ chart.coordinates)
        return self._pair_operators[key]

    def multiply(self, g1: str, g2: str, left: LinearMap,
                 right: LinearMap) -> tuple[LinearMap, LinearMap]:
        """Column k of the result is the composability residual and the
        product of column k of ``left`` over g1 with column k of ``right``
        over g2, from one fused integer product: the pair operator times
        ``left`` stacked on ``right``, split after the residual rows
        (:meth:`LinearMap.split_product`).  The column is composable exactly
        when its residual is zero."""
        return self.pair_operator(g1, g2).split_product(
            left, right, cut=self.objdim[self.base.src[g1]])

    def product(self, g1: str, g2: str, left: LinearMap,
                right: LinearMap) -> LinearMap:
        """The products of :meth:`multiply`, which must all be composable."""
        residual, out = self.multiply(g1, g2, left, right)
        if any(residual.nums):
            raise CompositionError(f"vectors over ({g1},{g2}) are not composable")
        return out

    def is_linear_bundle(self) -> bool:
        """True when the base is the unit groupoid of its objects, whose
        arrow at x is named x."""
        return self.base == trivial_groupoid(self.base.objects)


def validate_vb(v: VBGroupoid) -> Report:
    """The base groupoid's axioms, then the fiberwise groupoid axiom sweep on
    canonical bases, one entry per failure.  The fiberwise axioms are only
    evaluated over a base that is a groupoid."""
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
        b = g.inv[a]
        si = linalg.compose(v.stilde[b], v.inv_map[a])
        ti = linalg.compose(v.ttilde[b], v.inv_map[a])
        if si != v.ttilde[a]:
            rep.add("inverse-source", a, "ttilde", repr(si))
        if ti != v.stilde[a]:
            rep.add("inverse-target", a, "stilde", repr(ti))
    charts = {pair: v.pair_chart(*pair) for pair in g.comp}
    # the structure maps on each composable pair's chart basis: the basis
    # vector k has coordinates e_k, so its product is column k of mult
    for (g1, g2), m in v.mult.items():
        g12 = g.comp[(g1, g2)]
        vv, ww = charts[(g1, g2)].basis_map.split(v.arrdim[g1])
        rep.expect_columns(f"({g1},{g2})", [
            ColumnCheck("product-source", v.stilde[g2] @ ww, v.stilde[g12] @ m),
            ColumnCheck("product-target", v.ttilde[g1] @ vv, v.ttilde[g12] @ m)])
    # unit laws and inverse laws on arrow fiber bases
    for a in g.arrows:
        s, t, b = g.src[a], g.tgt[a], g.inv[a]
        vec = LinearMap.identity(v.arrdim[a])
        ut = v.utilde[t] @ v.ttilde[a]
        us = v.utilde[s] @ v.stilde[a]
        iv = v.inv_map[a]
        r_lu, left_unit = v.multiply(g.unit[t], a, ut, vec)
        r_ru, right_unit = v.multiply(a, g.unit[s], vec, us)
        r_ri, right_inverse = v.multiply(a, b, vec, iv)
        r_li, left_inverse = v.multiply(b, a, iv, vec)
        rep.expect_columns(a, [
            ColumnCheck("left-unit-law", vec, left_unit, (r_lu,)),
            ColumnCheck("right-unit-law", vec, right_unit, (r_ru,)),
            ColumnCheck("right-inverse-law", ut, right_inverse, (r_ri,), "unit"),
            ColumnCheck("left-inverse-law", us, left_inverse, (r_li,), "unit")])
    # associativity on a basis (a1; a2; a3) of each composable-triple
    # subspace: the kernel of [C12 | 0; 0 | C23] for the pair constraints C12
    # and C23, which share the columns of the middle arrow, row-reduced once
    # for each distinct two pair charts.  Each basis vector lies in the kernel
    # of both, so (a1; a2) and (a2; a3) compose and their chart coordinates
    # are their rows at the free columns: the inner products are the pair
    # tables on those rows, and only the two outer products can fail to
    # compose.
    triples: dict[tuple[KernelChart, KernelChart], tuple[LinearMap, ...]] = {}
    for (g1, g2, g3) in g.nerve_tuples(3):
        c12, c23 = charts[(g1, g2)], charts[(g2, g3)]
        blocks = triples.get((c12, c23))
        if blocks is None:
            d1, d2 = v.arrdim[g1], v.arrdim[g2]
            a = kernel_chart(linalg.direct_sum(c12.constraint, c23.constraint,
                                               overlap=d2)).basis_map
            blocks = triples[(c12, c23)] = (
                a.split(d1)[0], a.split(d1 + d2)[1],
                a.take_rows(c12.free), a.take_rows([d1 + j for j in c23.free]))
        a1, a3, x12, x23 = blocks
        r_left, left = v.multiply(g.comp[(g1, g2)], g3, v.mult[(g1, g2)] @ x12, a3)
        r_right, right = v.multiply(g1, g.comp[(g2, g3)], a1, v.mult[(g2, g3)] @ x23)
        rep.expect_columns(f"({g1},{g2},{g3})", [
            ColumnCheck("associativity", left, right, (r_left, r_right),
                        "composable products")])
    return rep


# -- maps of VB-groupoids ------------------------------------------------------


@dataclass(repr=False)
class VBMap:
    """Map of VB-groupoids over one base groupoid, covering its identity.

    Only shapes are checked here; see :func:`validate_vb_map`.
    """

    source: VBGroupoid
    target: VBGroupoid
    obj_maps: dict[str, LinearMap]
    arr_maps: dict[str, LinearMap]

    def __post_init__(self):
        source, target = self.source, self.target
        if source.base != target.base:
            raise StructureError("VB map between VB-groupoids over different groupoids")
        g = source.base
        self.obj_maps = linalg.check_table(
            "object map", self.obj_maps,
            {x: (target.objdim[x], source.objdim[x]) for x in g.objects})
        self.arr_maps = linalg.check_table(
            "arrow map", self.arr_maps,
            {a: (target.arrdim[a], source.arrdim[a]) for a in g.arrows})


def identity_vb_map(v: VBGroupoid) -> VBMap:
    return VBMap(v, v,
                 {x: LinearMap.identity(v.objdim[x]) for x in v.base.objects},
                 {a: LinearMap.identity(v.arrdim[a]) for a in v.base.arrows})


def compose_vb_maps(m2: VBMap, m1: VBMap) -> VBMap:
    if m1.target != m2.source:
        raise CompositionError("VB map boundaries do not match")
    return VBMap(
        m1.source, m2.target,
        {x: linalg.compose(m2.obj_maps[x], m1.obj_maps[x]) for x in m1.source.base.objects},
        {a: linalg.compose(m2.arr_maps[a], m1.arr_maps[a]) for a in m1.source.base.arrows})


def validate_vb_map(m: VBMap) -> Report:
    """Check that the pair of fiber maps is a functor of VB-groupoids."""
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
    f = m.arr_maps
    for (g1, g2), g12 in gb.comp.items():
        vv, ww = src.pair_chart(g1, g2).basis_map.split(src.arrdim[g1])
        residual, images = tgt.multiply(g1, g2, f[g1] @ vv, f[g2] @ ww)
        rep.expect_columns(f"({g1},{g2})", [
            ColumnCheck("multiplicativity", images, f[g12] @ src.mult[(g1, g2)],
                        (residual,), "composable images")])
    return rep


def vb_map_is_isomorphism(m: VBMap) -> bool:
    """Fiberwise invertibility on objects and arrows."""
    return (all(linalg.is_invertible(f) for f in m.obj_maps.values())
            and all(linalg.is_invertible(f) for f in m.arr_maps.values()))


# -- natural transformations between bundle maps -------------------------------


@dataclass(repr=False)
class BundleTransformation:
    """Natural transformation between two maps of linear groupoid bundles.

    Stored as one linear map per base point from object fibers of the source
    to arrow fibers of the target.
    """

    from_map: VBMap
    to_map: VBMap
    comp: dict[str, LinearMap]

    def __post_init__(self):
        from_map, to_map = self.from_map, self.to_map
        if from_map.source != to_map.source or from_map.target != to_map.target:
            raise StructureError("transformation endpoints differ")
        src, tgt = from_map.source, from_map.target
        self.comp = linalg.check_table(
            "transformation component", self.comp,
            {x: (tgt.arrdim[tgt.base.unit[x]], src.objdim[x]) for x in src.base.objects})


def validate_bundle_transformation(t: BundleTransformation) -> Report:
    """Source/target typing plus the naturality square on every basis arrow."""
    rep = Report("bundle-transformation")
    src, tgt = t.from_map.source, t.from_map.target
    unit = src.base.unit
    for x in src.base.objects:
        rep.expect("component-source", f"object {x}",
                   t.from_map.obj_maps[x], linalg.compose(tgt.stilde[unit[x]], t.comp[x]))
        rep.expect("component-target", f"object {x}",
                   t.to_map.obj_maps[x], linalg.compose(tgt.ttilde[unit[x]], t.comp[x]))
    for x in src.base.objects:
        u, comp = unit[x], t.comp[x]
        r_want, want = tgt.multiply(u, u, t.to_map.arr_maps[u], comp @ src.stilde[u])
        r_got, got = tgt.multiply(u, u, comp @ src.ttilde[u], t.from_map.arr_maps[u])
        rep.expect_columns(x, [ColumnCheck("naturality", want, got, (r_want, r_got),
                                           "composable")])
    return rep


# -- connections ---------------------------------------------------------------


@dataclass(repr=False)
class Connection:
    """Fiberwise-linear splitting of the source map, unital over unit arrows.
    ``rule`` says how sigma was chosen; the CLI writes it into the metadata
    of a converted file."""

    vb: VBGroupoid
    sigma: dict[str, LinearMap]
    rule: str

    def __post_init__(self):
        v = self.vb
        self.sigma = linalg.check_table(
            "connection component", self.sigma,
            {a: (v.arrdim[a], v.objdim[v.base.src[a]]) for a in v.base.arrows})


def connection_report(c: Connection) -> Report:
    rep = Report("connection")
    v = c.vb
    for a in v.base.arrows:
        comp = linalg.compose(v.stilde[a], c.sigma[a])
        if not comp.is_identity():
            rep.add("splits-source", a, "identity", repr(comp))
    for x in v.base.objects:
        if c.sigma[v.base.unit[x]] != v.utilde[x]:
            rep.add("unital", f"object {x}", "unit section", repr(c.sigma[v.base.unit[x]]))
    return rep


def find_unital_connection(v: VBGroupoid) -> Connection:
    """Deterministic unital connection: the unit section over units, the
    leftmost-pivot right inverse of the source map elsewhere."""
    sigma = {a: v.utilde[v.base.src[a]] if v.base.is_unit(a)
             else linalg.right_inverse_on_image(v.stilde[a]) for a in v.base.arrows}
    c = Connection(v, sigma, rule="unit-section at units, leftmost pivot elsewhere")
    connection_report(c).require(StructureError, "found connection failed verification")
    return c


def kernel_groupoid(v: VBGroupoid) -> VBGroupoid:
    """Restriction of the arrow fibers to the unit arrows of the base: a
    linear groupoid bundle over the trivial groupoid on the base objects,
    whose unit arrows carry the ids of their objects."""
    g = v.base
    points = list(g.objects)
    unit = g.unit
    return VBGroupoid(
        trivial_groupoid(points),
        {x: v.objdim[x] for x in points},
        {x: v.arrdim[unit[x]] for x in points},
        {x: v.stilde[unit[x]] for x in points},
        {x: v.ttilde[unit[x]] for x in points},
        {x: v.utilde[x] for x in points},
        {x: v.inv_map[unit[x]] for x in points},
        {(x, x): v.mult[(unit[x], unit[x])] for x in points})
