"""VB-groupoids over a finite groupoid: fiberwise-linear groupoid structures.

A VB-groupoid assigns a rational vector space to every object and arrow of
the base groupoid, with linear structure maps covering the base structure
maps.  Multiplication is stored per composable pair of base arrows as one
linear map on the fibered-product subspace, whose canonical basis is the
deterministic kernel basis of ``[stilde_g | -ttilde_h]``.  Each pair keeps
the kernel chart of that constraint: a pair (v, w) is composable when
``stilde_g v = ttilde_h w``, and its coordinates are then its entries at
the chart's free columns, so a product needs no row reduction.  Next to
the chart each pair keeps its pair operator, the constraint stacked on the
multiplication read at the free columns: applied to (v, w) it gives the
composability residual and then the product.  ``multiply`` applies it to
a block of pairs in integers, one pair per column, and ``product`` also
insists that each column compose: the one product path, for the
validators and the conversions alike.

A linear groupoid bundle is the special case whose base is a trivial
(unit) groupoid; the same class covers both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import linalg
from .errors import CompositionError, StructureError
from .groupoid import FiniteGroupoid, trivial_groupoid, validate_groupoid
# kernel_basis is re-exported: callers reach it as ruthvb.vb.kernel_basis.
from .linalg import (IntegerForm, KernelChart, LinearMap, Vector, kernel_basis,  # noqa: F401
                     kernel_chart)
from .reports import ColumnCheck, Report


@dataclass(repr=False)
class VBGroupoid:
    """Fiberwise-linear groupoid over ``base``.

    Shape consistency is enforced here; the groupoid axioms are checked by
    :func:`validate_vb` so corrupted instances can be represented.  ``mult``
    is given either as a stored table, one matrix per composable pair acting
    on that pair's chart coordinates, or as a product rule
    ``mult(g1, g2, left, right) -> IntegerForm`` on blocks of composable
    fiber vectors, one pair per column, which is tabulated at construction
    by one call per pair on that pair's chart basis.
    """

    base: FiniteGroupoid
    objdim: dict[str, int]
    arrdim: dict[str, int]
    stilde: dict[str, LinearMap]
    ttilde: dict[str, LinearMap]
    utilde: dict[str, LinearMap]
    inv_map: dict[str, LinearMap]
    mult: dict[tuple[str, str], LinearMap]
    _pair_charts: dict[tuple[str, str], KernelChart] = field(
        default_factory=dict, init=False, compare=False)
    _pair_operators: dict[tuple[str, str], IntegerForm] = field(
        default_factory=dict, init=False, compare=False)

    def __post_init__(self):
        self.objdim = dict(self.objdim)
        self.arrdim = dict(self.arrdim)
        self.stilde = dict(self.stilde)
        self.ttilde = dict(self.ttilde)
        self.utilde = dict(self.utilde)
        self.inv_map = dict(self.inv_map)
        g, od, ad = self.base, self.objdim, self.arrdim
        linalg.check_keys("object fiber dimension", od, g.objects)
        linalg.check_keys("arrow fiber dimension", ad, g.arrows)
        linalg.check_table("stilde", self.stilde, {a: (od[g.src[a]], ad[a]) for a in g.arrows})
        linalg.check_table("ttilde", self.ttilde, {a: (od[g.tgt[a]], ad[a]) for a in g.arrows})
        linalg.check_table("inverse map", self.inv_map,
                           {a: (ad[g.inv[a]], ad[a]) for a in g.arrows})
        linalg.check_table("utilde", self.utilde, {x: (ad[g.unit[x]], od[x]) for x in g.objects})
        self.mult = self._tabulate(self.mult) if callable(self.mult) else dict(self.mult)
        linalg.check_table("multiplication", self.mult,
                           {pair: (ad[g12], len(self.pair_chart(*pair).free))
                            for pair, g12 in g.comp.items()})

    def _tabulate(self, product) -> dict[tuple[str, str], LinearMap]:
        mult = {}
        for g1, g2 in self.base.comp:
            d1 = self.arrdim[g1]
            mult[(g1, g2)] = linalg.tabulate(lambda pairs: product(g1, g2, *pairs.split(d1)),
                                             self.pair_chart(g1, g2).basis_form)
        return mult

    # -- fibered products -----------------------------------------------------

    def pair_chart(self, g1: str, g2: str) -> KernelChart:
        """The kernel chart of ``[stilde_g1 | -ttilde_g2]``, cached."""
        key = (g1, g2)
        if key not in self._pair_charts:
            if self.base.src[g1] != self.base.tgt[g2]:
                raise CompositionError(f"{g1}, {g2} not composable in the base")
            constraint = linalg.hstack(self.stilde[g1], -self.ttilde[g2])
            self._pair_charts[key] = kernel_chart(constraint)
        return self._pair_charts[key]

    def pair_basis(self, g1: str, g2: str) -> tuple[Vector, ...]:
        """Canonical basis of {(v,w) : stilde(v) = ttilde(w)} in V1(g1)+V1(g2)."""
        return self.pair_chart(g1, g2).basis

    def pair_operator(self, g1: str, g2: str) -> IntegerForm:
        """The constraint ``[stilde_g1 | -ttilde_g2]`` stacked on the pair's
        multiplication read at its chart's free columns, in integers, cached.
        Applied to a pair (v, w), its first ``objdim[src g1]`` rows give the
        composability residual and the rest the product."""
        key = (g1, g2)
        if key not in self._pair_operators:
            chart = self.pair_chart(g1, g2)
            self._pair_operators[key] = IntegerForm.stack(
                chart.constraint.integer, self.mult[key].integer @ chart.coordinates)
        return self._pair_operators[key]

    def multiply(self, g1: str, g2: str, left: IntegerForm,
                 right: IntegerForm) -> tuple[IntegerForm, IntegerForm]:
        """Column k of the result is the composability residual and the
        product of column k of ``left`` over g1 with column k of ``right``
        over g2, from one integer product.  The column is composable exactly
        when its residual is zero."""
        out = self.pair_operator(g1, g2) @ IntegerForm.stack(left, right)
        return out.split(self.objdim[self.base.src[g1]])

    def product(self, g1: str, g2: str, left: IntegerForm,
                right: IntegerForm) -> IntegerForm:
        """The products of :meth:`multiply`, which must all be composable."""
        residual, out = self.multiply(g1, g2, left, right)
        if any(residual.nums):
            raise CompositionError(f"vectors over ({g1},{g2}) are not composable")
        return out

    def is_linear_bundle(self) -> bool:
        """True when the base is a trivial groupoid (all arrows units)."""
        return all(self.base.is_unit(a) for a in self.base.arrows)


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
    # the structure maps on each composable pair's chart basis: the basis
    # vector k has coordinates e_k, so its product is column k of mult
    for (g1, g2), m in v.mult.items():
        g12 = g.comp[(g1, g2)]
        vv, ww = v.pair_chart(g1, g2).basis_form.split(v.arrdim[g1])
        rep.expect_columns(f"({g1},{g2})", [
            ColumnCheck("product-source", v.stilde[g2].integer @ ww,
                        v.stilde[g12].integer @ m.integer),
            ColumnCheck("product-target", v.ttilde[g1].integer @ vv,
                        v.ttilde[g12].integer @ m.integer)])
    # unit laws and inverse laws on arrow fiber bases
    for a in g.arrows:
        s, t, b = g.src[a], g.tgt[a], g.inv[a]
        vec = IntegerForm.identity(v.arrdim[a])
        ut = v.utilde[t].integer @ v.ttilde[a].integer
        us = v.utilde[s].integer @ v.stilde[a].integer
        iv = v.inv_map[a].integer
        r_lu, left_unit = v.multiply(g.unit[t], a, ut, vec)
        r_ru, right_unit = v.multiply(a, g.unit[s], vec, us)
        r_ri, right_inverse = v.multiply(a, b, vec, iv)
        r_li, left_inverse = v.multiply(b, a, iv, vec)
        rep.expect_columns(a, [
            ColumnCheck("left-unit-law", vec, left_unit, (r_lu,)),
            ColumnCheck("right-unit-law", vec, right_unit, (r_ru,)),
            ColumnCheck("right-inverse-law", ut, right_inverse, (r_ri,), "unit"),
            ColumnCheck("left-inverse-law", us, left_inverse, (r_li,), "unit")])
    # associativity on a basis of each composable-triple subspace
    for (g1, g2, g3) in g.nerve_tuples(3):
        d1, d2, d3 = v.arrdim[g1], v.arrdim[g2], v.arrdim[g3]
        c1 = linalg.hstack(v.stilde[g1], -v.ttilde[g2], LinearMap.zero(v.objdim[g.src[g1]], d3))
        c2 = linalg.hstack(LinearMap.zero(v.objdim[g.src[g2]], d1), v.stilde[g2], -v.ttilde[g3])
        a1, a23 = kernel_chart(linalg.vstack(c1, c2)).basis_form.split(d1)
        a2, a3 = a23.split(d2)
        r12, p12 = v.multiply(g1, g2, a1, a2)
        r_left, left = v.multiply(g.comp[(g1, g2)], g3, p12, a3)
        r23, p23 = v.multiply(g2, g3, a2, a3)
        r_right, right = v.multiply(g1, g.comp[(g2, g3)], a1, p23)
        rep.expect_columns(f"({g1},{g2},{g3})", [
            ColumnCheck("associativity", left, right, (r12, r_left, r23, r_right),
                        "composable products")])
    return rep


# -- maps of VB-groupoids ------------------------------------------------------


@dataclass(repr=False)
class VBMap:
    """Map of VB-groupoids covering a map of base groupoids.

    ``base_obj``/``base_arr`` send base objects/arrows of the source to the
    target; for maps of VB-groupoids over one fixed groupoid both are
    identities.  Only shapes are checked here; see :func:`validate_vb_map`.
    """

    source: VBGroupoid
    target: VBGroupoid
    obj_maps: dict[str, LinearMap]
    arr_maps: dict[str, LinearMap]
    base_obj: Optional[dict[str, str]] = None
    base_arr: Optional[dict[str, str]] = None

    def __post_init__(self):
        source, target = self.source, self.target
        self.base_obj = (dict(self.base_obj) if self.base_obj is not None
                         else {x: x for x in source.base.objects})
        self.base_arr = (dict(self.base_arr) if self.base_arr is not None
                         else {a: a for a in source.base.arrows})
        self.obj_maps = dict(self.obj_maps)
        self.arr_maps = dict(self.arr_maps)
        objects, arrows = source.base.objects, source.base.arrows
        for x in objects:
            if self.base_obj.get(x) not in target.objdim:
                raise StructureError(f"base object map undefined or unknown at {x}")
        for a in arrows:
            if self.base_arr.get(a) not in target.arrdim:
                raise StructureError(f"base arrow map undefined or unknown at {a}")
        linalg.check_table("object map", self.obj_maps,
                           {x: (target.objdim[self.base_obj[x]], source.objdim[x])
                            for x in objects})
        linalg.check_table("arrow map", self.arr_maps,
                           {a: (target.arrdim[self.base_arr[a]], source.arrdim[a])
                            for a in arrows})

    def covers_identity(self) -> bool:
        return (all(x == y for x, y in self.base_obj.items())
                and all(a == b for a, b in self.base_arr.items()))


def identity_vb_map(v: VBGroupoid) -> VBMap:
    return VBMap(v, v,
                 {x: LinearMap.identity(v.objdim[x]) for x in v.base.objects},
                 {a: LinearMap.identity(v.arrdim[a]) for a in v.base.arrows})


def compose_vb_maps(m2: VBMap, m1: VBMap) -> VBMap:
    if m1.target != m2.source:
        raise CompositionError("VB map boundaries do not match")
    return VBMap(
        m1.source, m2.target,
        {x: linalg.compose(m2.obj_maps[m1.base_obj[x]], m1.obj_maps[x])
         for x in m1.source.base.objects},
        {a: linalg.compose(m2.arr_maps[m1.base_arr[a]], m1.arr_maps[a])
         for a in m1.source.base.arrows},
        {x: m2.base_obj[m1.base_obj[x]] for x in m1.source.base.objects},
        {a: m2.base_arr[m1.base_arr[a]] for a in m1.source.base.arrows},
    )


def validate_vb_map(m: VBMap) -> Report:
    """Check that the pair of fiber maps is a functor of VB-groupoids."""
    rep = Report("vb-map")
    src, tgt = m.source, m.target
    gb = src.base
    for a in gb.arrows:
        b = m.base_arr[a]
        if tgt.base.src[b] != m.base_obj[gb.src[a]] or tgt.base.tgt[b] != m.base_obj[gb.tgt[a]]:
            rep.add("base-compatibility", a, "arrow over matching endpoints", b)
            continue
        rep.expect("source-compatibility", a,
                   linalg.compose(m.obj_maps[gb.src[a]], src.stilde[a]),
                   linalg.compose(tgt.stilde[b], m.arr_maps[a]))
        rep.expect("target-compatibility", a,
                   linalg.compose(m.obj_maps[gb.tgt[a]], src.ttilde[a]),
                   linalg.compose(tgt.ttilde[b], m.arr_maps[a]))
    for x in gb.objects:
        rep.expect("unit-compatibility", f"object {x}",
                   linalg.compose(tgt.utilde[m.base_obj[x]], m.obj_maps[x]),
                   linalg.compose(m.arr_maps[gb.unit[x]], src.utilde[x]))
    f = {a: m.arr_maps[a].integer for a in gb.arrows}
    for (g1, g2), g12 in gb.comp.items():
        vv, ww = src.pair_chart(g1, g2).basis_form.split(src.arrdim[g1])
        where = f"({g1},{g2})"
        try:
            residual, images = tgt.multiply(m.base_arr[g1], m.base_arr[g2],
                                            f[g1] @ vv, f[g2] @ ww)
        except CompositionError:
            for k in range(vv.cols):
                rep.add("multiplicativity", f"{where} basis {k}", "composable images",
                        "not composable")
            continue
        rep.expect_columns(where, [
            ColumnCheck("multiplicativity", images, f[g12] @ src.mult[(g1, g2)].integer,
                        (residual,), "composable images")])
    return rep


def vb_map_is_isomorphism(m: VBMap) -> bool:
    """Fiberwise invertibility on objects and arrows (base maps bijective)."""
    if sorted(m.base_obj.values()) != sorted(m.target.base.objects):
        return False
    if sorted(m.base_arr.values()) != sorted(m.target.base.arrows):
        return False
    return (all(linalg.is_invertible(f) for f in m.obj_maps.values())
            and all(linalg.is_invertible(f) for f in m.arr_maps.values()))


# -- natural transformations between bundle maps -------------------------------


@dataclass(repr=False)
class BundleTransformation:
    """Natural transformation between two maps of linear groupoid bundles.

    Stored as one linear map per base point from object fibers of the source
    to arrow fibers of the target, over the shared base map.
    """

    from_map: VBMap
    to_map: VBMap
    comp: dict[str, LinearMap]

    def __post_init__(self):
        from_map, to_map = self.from_map, self.to_map
        if from_map.source != to_map.source or from_map.target != to_map.target:
            raise StructureError("transformation endpoints differ")
        if from_map.base_obj != to_map.base_obj:
            raise StructureError("transformation between maps over different base maps")
        self.comp = dict(self.comp)
        src, tgt = from_map.source, from_map.target
        linalg.check_table("transformation component", self.comp,
                           {x: (tgt.arrdim[tgt.base.unit[from_map.base_obj[x]]], src.objdim[x])
                            for x in src.base.objects})


def validate_bundle_transformation(t: BundleTransformation) -> Report:
    """Source/target typing plus the naturality square on every basis arrow."""
    rep = Report("bundle-transformation")
    src, tgt = t.from_map.source, t.from_map.target
    for x in src.base.objects:
        y = t.from_map.base_obj[x]
        uy = tgt.base.unit[y]
        rep.expect("component-source", f"object {x}",
                   t.from_map.obj_maps[x], linalg.compose(tgt.stilde[uy], t.comp[x]))
        rep.expect("component-target", f"object {x}",
                   t.to_map.obj_maps[x], linalg.compose(tgt.ttilde[uy], t.comp[x]))
    for x in src.base.objects:
        ux = src.base.unit[x]
        uy = tgt.base.unit[t.from_map.base_obj[x]]
        comp = t.comp[x].integer
        r_want, want = tgt.multiply(uy, uy, t.to_map.arr_maps[ux].integer,
                                    comp @ src.stilde[ux].integer)
        r_got, got = tgt.multiply(uy, uy, comp @ src.ttilde[ux].integer,
                                  t.from_map.arr_maps[ux].integer)
        rep.expect_columns(x, [ColumnCheck("naturality", want, got, (r_want, r_got),
                                           "composable")])
    return rep


# -- connections ---------------------------------------------------------------


@dataclass(frozen=True)
class Connection:
    """Fiberwise-linear splitting of the source map, unital over unit arrows."""

    vb: VBGroupoid
    sigma: dict[str, LinearMap] = field(compare=False)
    rule: str

    def __post_init__(self):
        v = self.vb
        linalg.check_table("connection component", self.sigma,
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
    sigma = {}
    for a in v.base.arrows:
        if v.base.is_unit(a):
            x = v.base.src[a]
            if not linalg.compose(v.stilde[a], v.utilde[x]).is_identity():
                raise StructureError(f"unit section at {x} does not split the source map")
            sigma[a] = v.utilde[x]
        else:
            sigma[a] = linalg.right_inverse_on_image(v.stilde[a])
    return Connection(v, sigma, rule="unit-section at units, leftmost pivot elsewhere")


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
