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
construction.  The source map is fiberwise onto (``validate_vb`` reports
each arrow where it is not), and then every column of the middle arrow is
free in the first pair chart of a composable triple, so the triple basis
is the pullback of its two pair charts, read off them by block products
with no row reduction (:func:`triple_blocks`).  The sweep builds each
block where its inputs change (:func:`associativity_blocks`): the layout
blocks of the basis once per second pair chart, the second inner product
and the first chart's rows stacked on its pair table once per pair, and
per triple only three fused products, one for the first outer block and
the first inner product and one for each outer product.

A linear groupoid bundle is the special case whose base is the unit
groupoid of its points, in which the arrow at point x is named x; the same
class covers both.  Maps of VB-groupoids and transformations between them
cover the identity of one base groupoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

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
        when its residual is zero.  The cached pair operator is read
        directly, and built by :meth:`pair_operator` on the pair's first use."""
        operator = self._pair_operators.get((g1, g2))
        if operator is None:
            operator = self.pair_operator(g1, g2)
        return operator.split_product(left, right, cut=self.objdim[self.base.src[g1]])

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
        su = v.stilde[u] @ v.utilde[x]
        tu = v.ttilde[u] @ v.utilde[x]
        if not su.is_identity():
            rep.add("unit-source", f"object {x}", "identity", repr(su))
        if not tu.is_identity():
            rep.add("unit-target", f"object {x}", "identity", repr(tu))
    ranks: dict[LinearMap, int] = {}
    for a in g.arrows:
        s, od = v.stilde[a], v.objdim[g.src[a]]
        if s not in ranks:
            ranks[s] = linalg.rank(s)
        if ranks[s] != od:
            rep.add("source-onto", a, f"rank {od}", f"rank {ranks[s]}")
    for a in g.arrows:
        b = g.inv[a]
        si = v.stilde[b] @ v.inv_map[a]
        ti = v.ttilde[b] @ v.inv_map[a]
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
    # associativity on the basis (a1; a2; a3) of each composable-triple
    # subspace.  Each basis vector lies in the kernel of both pair
    # constraints, so (a1; a2) and (a2; a3) compose, the inner products m12
    # and m23 are the pair tables on their chart coordinates, and only the
    # two outer products can fail to compose.  associativity_blocks builds
    # the layout blocks per second chart, m23 and a stack per pair, and a1
    # with m12 per triple in one fused product on that stack.
    for triple, a1, a3, m12, m23 in associativity_blocks(v, charts):
        g1, g2, g3 = triple
        r_left, left = v.multiply(g.comp[(g1, g2)], g3, m12, a3)
        r_right, right = v.multiply(g1, g.comp[(g2, g3)], a1, m23)
        rep.expect_columns(f"({g1},{g2},{g3})", [
            ColumnCheck("associativity", left, right, (r_left, r_right),
                        "composable products")])
    return rep


def _pullback_width(c12: KernelChart, d1: int, d2: int) -> int | None:
    """f1, the number of free columns of the pair chart ``c12`` in its first
    arrow's d1 columns, when all d2 columns of the middle arrow after them
    are free; None when one is a pivot."""
    f1 = len(c12.free) - d2
    return f1 if c12.free[f1:] == tuple(range(d1, d1 + d2)) else None


def outer_blocks(c23: KernelChart, f1: int, d2: int) -> tuple[LinearMap, ...]:
    """The blocks ``(x12, a3, x23)`` of a pullback triple basis, which depend
    only on its second pair chart ``c23`` and on f1: with ``c23.basis_map =
    [b2; b3]`` split after the d2 middle rows, x12 is ``diag(I_f1, b2)``,
    a3 is ``[0 | b3]`` and x23 is ``[0 | I]``."""
    b2, b3 = c23.basis_map.split(d2)
    return (linalg.direct_sum(LinearMap.identity(f1), b2),
            linalg.hstack(LinearMap.zero(b3.rows, f1), b3),
            linalg.hstack(LinearMap.zero(b2.cols, f1), LinearMap.identity(b2.cols)))


def first_arrow_stack(c12: KernelChart, d1: int, m: LinearMap) -> LinearMap:
    """The first-arrow rows of ``c12``'s basis stacked on the pair table
    ``m``: times x12 and split after d1 rows (:meth:`LinearMap.split_product`)
    it gives a1 and ``m @ x12`` in one fused product."""
    return linalg.vstack(c12.basis_map.split(d1)[0], m)


def associativity_blocks(v: VBGroupoid,
                         charts: dict[tuple[str, str], KernelChart]):
    """For each composable triple (g1, g2, g3) of ``v``, whose pair charts
    ``charts`` holds, in nerve order, ``(g1, g2, g3), a1, a3, m12, m23``:
    the outer blocks of :func:`triple_blocks` and the inner products ``m12
    = mult[(g1, g2)] @ x12`` and ``m23 = mult[(g2, g3)] @ x23``.

    x12, a3 and x23 are built once per second chart and f1
    (:func:`outer_blocks`), m23 once per pair (g2, g3) and f1, and the
    stack of :func:`first_arrow_stack` once per pair (g1, g2), so a triple
    costs one fused product.  A first chart with a pivot among the middle
    arrow's columns takes the row reduction of :func:`triple_blocks`, once
    per two charts, and two products per triple."""
    g, ad, mult = v.base, v.arrdim, v.mult
    outer: dict[tuple[KernelChart, int], tuple[LinearMap, ...]] = {}
    inner: dict[tuple[str, str, int], tuple[LinearMap, ...]] = {}
    reduced: dict[tuple[KernelChart, KernelChart], tuple[LinearMap, ...]] = {}
    # the nerve lists the triples of one pair (g1, g2) together
    for (g1, g2), triples in groupby(g.nerve_tuples(3), itemgetter(0, 1)):
        c12, d1, d2 = charts[(g1, g2)], ad[g1], ad[g2]
        f1 = _pullback_width(c12, d1, d2)
        stack = None if f1 is None else first_arrow_stack(c12, d1, mult[(g1, g2)])
        for triple in triples:
            g3 = triple[2]
            if stack is None:
                pair_charts = c12, charts[(g2, g3)]
                blocks = reduced.get(pair_charts)
                if blocks is None:
                    blocks = reduced[pair_charts] = triple_blocks(*pair_charts, d1, d2)
                a1, a3, x12, x23 = blocks
                yield triple, a1, a3, mult[(g1, g2)] @ x12, mult[(g2, g3)] @ x23
                continue
            blocks = inner.get((g2, g3, f1))
            if blocks is None:
                c23 = charts[(g2, g3)]
                outside = outer.get((c23, f1))
                if outside is None:
                    outside = outer[(c23, f1)] = outer_blocks(c23, f1, d2)
                x12, a3, x23 = outside
                blocks = inner[(g2, g3, f1)] = (x12, a3, mult[(g2, g3)] @ x23)
            x12, a3, m23 = blocks
            a1, m12 = stack.split_product(x12, cut=d1)
            yield triple, a1, a3, m12, m23


def triple_blocks(c12: KernelChart, c23: KernelChart, d1: int,
                  d2: int) -> tuple[LinearMap, ...]:
    """The blocks ``(a1, a3, x12, x23)`` of the canonical basis (a1; a2; a3)
    of a composable-triple subspace, the kernel of ``[C12 | 0; 0 | C23]``
    for the constraints of the pair charts ``c12`` and ``c23``, which share
    the ``d2`` columns of the middle arrow after the ``d1`` of the first:
    the outer blocks a1 and a3, and the chart coordinates x12 of (a1; a2)
    in c12 and x23 of (a2; a3) in c23.

    When all d2 middle columns are free in c12, as they are when the first
    arrow's source map is onto, the basis is the pullback of the two charts,
    read off them by block products: x12, a3 and x23 are those of
    :func:`outer_blocks`, and a1 is c12's first-arrow rows times x12.  Each
    column lies in the kernel, has entry 1 at its own free column and
    support ending there, so the free columns of c12 in the first arrow and
    those of c23 shifted by d1 are the leftmost-pivot free columns of the
    triple constraint, and the blocks are those of its :func:`kernel_chart`,
    the one kernel basis that is the identity there.  Otherwise that
    constraint is row-reduced."""
    f1 = _pullback_width(c12, d1, d2)
    if f1 is not None:
        x12, a3, x23 = outer_blocks(c23, f1, d2)
        return c12.basis_map.split(d1)[0] @ x12, a3, x12, x23
    a = kernel_chart(linalg.direct_sum(c12.constraint, c23.constraint, overlap=d2)).basis_map
    return (a.split(d1)[0], a.split(d1 + d2)[1],
            a.take_rows(c12.free), a.take_rows([d1 + j for j in c23.free]))


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
        {x: m2.obj_maps[x] @ m1.obj_maps[x] for x in m1.source.base.objects},
        {a: m2.arr_maps[a] @ m1.arr_maps[a] for a in m1.source.base.arrows})


def validate_vb_map(m: VBMap) -> Report:
    """Check that the pair of fiber maps is a functor of VB-groupoids."""
    rep = Report("vb-map")
    src, tgt = m.source, m.target
    gb = src.base
    for a in gb.arrows:
        rep.expect("source-compatibility", a,
                   m.obj_maps[gb.src[a]] @ src.stilde[a],
                   tgt.stilde[a] @ m.arr_maps[a])
        rep.expect("target-compatibility", a,
                   m.obj_maps[gb.tgt[a]] @ src.ttilde[a],
                   tgt.ttilde[a] @ m.arr_maps[a])
    for x in gb.objects:
        rep.expect("unit-compatibility", f"object {x}",
                   tgt.utilde[x] @ m.obj_maps[x],
                   m.arr_maps[gb.unit[x]] @ src.utilde[x])
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
                   t.from_map.obj_maps[x], tgt.stilde[unit[x]] @ t.comp[x])
        rep.expect("component-target", f"object {x}",
                   t.to_map.obj_maps[x], tgt.ttilde[unit[x]] @ t.comp[x])
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
        comp = v.stilde[a] @ c.sigma[a]
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
