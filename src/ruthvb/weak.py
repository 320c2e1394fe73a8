"""Weak representations of a finite groupoid on linear groupoid bundles,
equivariant maps, and action groupoids.

A weak representation is a unital, fiberwise-linear weak action: an action
functor A and an associator cell alpha(g,k,-) relating acting-by-g-then-k
with acting-by-gk (pentagon-coherent).  All its data is matrices, and all
its coherences are exact matrix identities checked on canonical bases.

The action groupoid of a weak representation is a VB-groupoid whose arrow
fibers over g are charted on the subspace {(x, k) : ttilde(k) = A0(g) x}
with the deterministic basis (object-fiber basis lifted through the pivot
section of ttilde, then the kernel basis of ttilde).  A weak representation
builds that chart and its action groupoid once, on first use, and keeps
them; the conversions that meet it again read them there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

from . import linalg
from .errors import CompositionError, StructureError, ValidationError
from .groupoid import (FiniteGroupoid, third_arrow_rows, trivial_groupoid,
                       validate_groupoid)
from .linalg import LinearMap
from .reports import ColumnCheck, Report
from .vb import VBGroupoid, VBMap, validate_vb, validate_vb_map


# -- weak representations ---------------------------------------------------------


@dataclass(repr=False)
class WeakRepresentation:
    """Unital weak action on a linear groupoid bundle over the acting
    groupoid's objects, whose arrow at point x is named x; every piece of
    data is a fiberwise linear map."""

    groupoid: FiniteGroupoid
    bundle: VBGroupoid
    a0: dict[str, LinearMap]
    a1: dict[str, LinearMap]
    alpha: dict[tuple[str, str], LinearMap]

    def __post_init__(self):
        if self.bundle.base != trivial_groupoid(self.groupoid.objects):
            raise StructureError("the bundle must be the unit groupoid of the acting"
                                 " groupoid's objects, with arrow x at point x")
        g, od, ad = self.groupoid, self.bundle.objdim, self.bundle.arrdim
        self.a0 = linalg.check_table("action object map", self.a0,
                                     {a: (od[g.tgt[a]], od[g.src[a]]) for a in g.arrows})
        self.a1 = linalg.check_table("action arrow map", self.a1,
                                     {a: (ad[g.tgt[a]], ad[g.src[a]]) for a in g.arrows})
        self.alpha = linalg.check_table(
            "associator cell", self.alpha,
            {(g1, g2): (ad[g.tgt[g1]], od[g.src[g2]]) for (g1, g2) in g.comp})

    @cached_property
    def chart(self) -> "ActionChart":
        """The coordinates of this representation's action groupoid, built
        on first use and kept with the instance (not compared by ``==``)."""
        return ActionChart(self)

    @cached_property
    def action_groupoid(self) -> VBGroupoid:
        """:func:`action_groupoid_bundle` of this representation, built on
        first use and kept with the instance (not compared by ``==``)."""
        return action_groupoid_bundle(self)

    def fiber_unit(self, x: str) -> LinearMap:
        """``self.bundle.utilde[x]``.  Nothing in the package calls this; it is
        kept only because the benchmark's convert-desk workload still does."""
        return self.bundle.utilde[x]


def validate_weak_representation(w: WeakRepresentation) -> Report:
    """Per-condition sweep: the acting groupoid's axioms, then the bundle's,
    action functoriality, unitality, associator typing, naturality,
    pentagon, and the unit coherences, all on canonical fiber bases.  The
    action is only checked over an acting groupoid that is a groupoid.
    The pentagon is checked once per composable pair (g1, g2), on one
    block whose columns run over the object fiber bases at src g3 for
    every g3 after the pair in the nerve
    (:func:`~ruthvb.groupoid.third_arrow_rows`), in two products of the
    bundle; each failing column is reported at its own triple, in nerve
    order (the ``blocks`` of :meth:`~ruthvb.reports.Report.expect_columns`)."""
    g = w.groupoid
    rep = Report("weak-representation")
    rep.extend(validate_groupoid(g), prefix="groupoid: ")
    if not rep.passed:
        return rep
    rep.extend(validate_vb(w.bundle), prefix="bundle: ")
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        rep.expect("action-source", a, w.a0[a] @ w.bundle.stilde[s],
                   w.bundle.stilde[t] @ w.a1[a])
        rep.expect("action-target", a, w.a0[a] @ w.bundle.ttilde[s],
                   w.bundle.ttilde[t] @ w.a1[a])
        rep.expect("action-units", a, w.bundle.utilde[t] @ w.a0[a],
                   w.a1[a] @ w.bundle.utilde[s])
        # on the chart basis of (s, s): basis vector k multiplies to column k of mult
        a1 = w.a1[a]
        v1, v2 = w.bundle.pair_chart(s, s).basis_map.split(w.bundle.arrdim[s])
        residual, images = w.bundle.multiply(t, t, a1 @ v1, a1 @ v2)
        rep.expect_columns(a, [
            ColumnCheck("action-multiplicative", images, a1 @ w.bundle.mult[(s, s)],
                        (residual,), "composable images")])
    for x in g.objects:
        u = g.unit[x]
        if not w.a0[u].is_identity():
            rep.add("unital-objects", f"unit {u}", "identity", repr(w.a0[u]))
        if not w.a1[u].is_identity():
            rep.add("unital-arrows", f"unit {u}", "identity", repr(w.a1[u]))
    for (g1, g2), cell in w.alpha.items():
        t1, s2, g12 = g.tgt[g1], g.src[g2], g.comp[(g1, g2)]
        loc = f"({g1},{g2})"
        rep.expect("associator-source", loc, w.a0[g1] @ w.a0[g2],
                   w.bundle.stilde[t1] @ cell)
        rep.expect("associator-target", loc, w.a0[g12], w.bundle.ttilde[t1] @ cell)
        # naturality on the basis arrows of the fiber at src(g2)
        r_want, want = w.bundle.multiply(t1, t1, w.a1[g12], cell @ w.bundle.stilde[s2])
        r_got, got = w.bundle.multiply(t1, t1, cell @ w.bundle.ttilde[s2], w.a1[g1] @ w.a1[g2])
        rep.expect_columns(loc, [ColumnCheck("associator-naturality", want, got,
                                             (r_want, r_got), "composable cells")])
    # the pentagon on the bases of the object fibers at src(g3), side by side
    # over every g3 after the composable pair (g1, g2) in the nerve: the rows
    # of alpha at an arrow and of A0 at an object are built once, the middle
    # row once per pair.  A failing column is reported at its own triple.
    alphas, actions = third_arrow_rows(g, w.alpha, w.a0)
    for (g1, g2), triples in groupby(g.nerve_tuples(3), itemgetter(0, 1)):
        g3s = [t[2] for t in triples]
        t1 = g.tgt[g1]
        r_want, want = w.bundle.multiply(t1, t1, alphas[g.comp[(g1, g2)]],
                                         w.alpha[(g1, g2)] @ actions[g.src[g2]])
        r_got, got = w.bundle.multiply(
            t1, t1, linalg.hstack(*(w.alpha[(g1, g.comp[(g2, g3)])] for g3 in g3s)),
            w.a1[g1] @ alphas[g2])
        rep.expect_columns(f"({g1},{g2})", [
            ColumnCheck("pentagon", want, got, (r_want, r_got), "composable cells")],
            ((f"({g1},{g2},{g3})", w.bundle.objdim[g.src[g3]]) for g3 in g3s))
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        rep.expect("unit-coherence-right", a, w.a1[a] @ w.bundle.utilde[s],
                   w.alpha[(a, g.unit[s])])
        rep.expect("unit-coherence-left", a, w.bundle.utilde[t] @ w.a0[a],
                   w.alpha[(g.unit[t], a)])
    return rep


# -- the action-groupoid chart for weak representations ----------------------------


class ActionChart:
    """Deterministic coordinates on the action groupoid of a weak
    representation.

    The arrow fiber over g is {(x, k) : ttilde(k) = A0(g) x}; its basis is
    the object-fiber basis lifted through the leftmost-pivot section tau of
    ttilde at tgt(g), followed by the kernel-chart basis of that ttilde.
    Each arrow keeps two matrices: its decoder sends coordinates to
    (x, k), and its encoder sends (x, k) to the residual
    ``ttilde(k - tau A0 x)`` stacked on the coordinates, which are x and the
    entries of ``k - tau A0 x`` at the kernel chart's free columns.  The
    chart keeps no reference to w, which holds it."""

    def __init__(self, w: WeakRepresentation):
        g = w.groupoid
        self.tau = {x: linalg.right_inverse_on_image(w.bundle.ttilde[x]) for x in g.objects}
        self.ker = {x: linalg.kernel_chart(w.bundle.ttilde[x]) for x in g.objects}
        self.encoder: dict[str, LinearMap] = {}
        self.decoder: dict[str, LinearMap] = {}
        self.residual_rows: dict[str, int] = {}
        self.object_rows: dict[str, int] = {}
        for a in g.arrows:
            n, t = w.bundle.objdim[g.src[a]], g.tgt[a]
            self.residual_rows[a], self.object_rows[a] = w.bundle.objdim[t], n
            ker, m = self.ker[t], w.bundle.arrdim[t]
            lift = self.tau[t] @ w.a0[a]
            rem = linalg.hstack(-lift, LinearMap.identity(m))  # (x, k) -> k - tau A0 x
            self.encoder[a] = linalg.vstack(
                ker.constraint @ rem,
                linalg.hstack(LinearMap.identity(n), LinearMap.zero(n, m)),
                ker.coordinates @ rem)
            self.decoder[a] = linalg.vstack(
                linalg.hstack(LinearMap.identity(n), LinearMap.zero(n, len(ker.free))),
                linalg.hstack(lift, ker.basis_map))

    def encode(self, g_arrow: str, x: LinearMap, k: LinearMap) -> LinearMap:
        """Coordinates of a block of pairs in the chart basis, one per column:
        the encoder times ``x`` stacked on ``k``, split after the residual
        rows, from one fused product (:meth:`LinearMap.split_product`);
        raises ``CompositionError`` when a residual is nonzero."""
        residual, coords = self.encoder[g_arrow].split_product(
            x, k, cut=self.residual_rows[g_arrow])
        if any(residual.nums):
            raise CompositionError(f"pair over {g_arrow} violates the fiber constraint")
        return coords

    def decode(self, g_arrow: str, coords: LinearMap) -> tuple[LinearMap, LinearMap]:
        """The pairs (x, k) with the coordinates of each column, from one
        fused product split after the x rows."""
        return self.decoder[g_arrow].split_product(coords, cut=self.object_rows[g_arrow])


def action_groupoid_bundle(w: WeakRepresentation) -> VBGroupoid:
    """Action groupoid of a weak representation, as a VB-groupoid over the
    acting groupoid in the coordinates of ``w.chart``.  The basis pairs
    (x, k) of an arrow fiber are the two row blocks of its decoder, and each
    table is a chain of block products on them; ``w.action_groupoid`` keeps
    the result."""
    g, chart = w.groupoid, w.chart
    objdim = {x: w.bundle.objdim[x] for x in g.objects}
    arrdim = {a: chart.decoder[a].cols for a in g.arrows}
    stilde, ttilde, inv_map = {}, {}, {}
    utilde = {x: chart.encode(g.unit[x], LinearMap.identity(objdim[x]), w.bundle.utilde[x])
              for x in g.objects}
    for a in g.arrows:
        s, t, b = g.src[a], g.tgt[a], g.inv[a]
        # the source of (x, k) is x, its target the source of k
        x, k = chart.decoder[a].split(chart.object_rows[a])
        stilde[a], ttilde[a] = x, w.bundle.stilde[t] @ k
        inv = w.bundle.inv_map[s]
        arrow = w.bundle.product(s, s, inv @ w.a1[b] @ k, inv @ w.alpha[(b, a)] @ x)
        inv_map[a] = chart.encode(b, ttilde[a], arrow)

    def product(g1, g2, left, right):
        t1 = g.tgt[g1]
        _, k1 = chart.decode(g1, left)
        x2, k2 = chart.decode(g2, right)
        inner = w.bundle.product(t1, t1, w.alpha[(g1, g2)] @ x2, w.a1[g1] @ k2)
        return chart.encode(g.comp[(g1, g2)], x2, w.bundle.product(t1, t1, inner, k1))

    return VBGroupoid(g, objdim, arrdim, stilde, ttilde, utilde, inv_map, product)


# -- equivariant maps ---------------------------------------------------------------


@dataclass(repr=False)
class EquivariantMap:
    """Map of weak representations: a bundle functor over the identity base
    together with the per-arrow equivariance cell delta(g, -) from object
    fibers at src(g) to arrow fibers at tgt(g)."""

    source: WeakRepresentation
    target: WeakRepresentation
    f0: dict[str, LinearMap]
    f1: dict[str, LinearMap]
    delta: dict[str, LinearMap]

    def __post_init__(self):
        source, target = self.source, self.target
        if source.groupoid != target.groupoid:
            raise StructureError("equivariant map across different acting groupoids")
        g, sb, tb = source.groupoid, source.bundle, target.bundle
        self.f0 = linalg.check_table("object component", self.f0,
                                     {x: (tb.objdim[x], sb.objdim[x]) for x in g.objects})
        self.f1 = linalg.check_table("arrow component", self.f1,
                                     {x: (tb.arrdim[x], sb.arrdim[x]) for x in g.objects})
        self.delta = linalg.check_table("equivariance cell", self.delta,
                                        {a: (tb.arrdim[g.tgt[a]], sb.objdim[g.src[a]])
                                         for a in g.arrows})

    def bundle_map(self) -> VBMap:
        return VBMap(self.source.bundle, self.target.bundle, self.f0, self.f1)


def validate_equivariant(e: EquivariantMap) -> Report:
    """Bundle functoriality, cell typing, cell naturality, the two-cell
    hexagon, and the unit triangle."""
    rep = Report("equivariant-map")
    rep.extend(validate_vb_map(e.bundle_map()), prefix="functor: ")
    g = e.source.groupoid
    v, w = e.source, e.target
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        rep.expect("cell-source", a, e.f0[t] @ v.a0[a],
                   w.bundle.stilde[t] @ e.delta[a])
        rep.expect("cell-target", a, w.a0[a] @ e.f0[s],
                   w.bundle.ttilde[t] @ e.delta[a])
        delta = e.delta[a]
        r_want, want = w.bundle.multiply(t, t, w.a1[a] @ e.f1[s], delta @ v.bundle.stilde[s])
        r_got, got = w.bundle.multiply(t, t, delta @ v.bundle.ttilde[s], e.f1[t] @ v.a1[a])
        rep.expect_columns(a, [ColumnCheck("cell-naturality", want, got, (r_want, r_got),
                                           "composable cells")])
    for (g1, g2), g12 in g.comp.items():
        t1, s2 = g.tgt[g1], g.src[g2]
        r_want, want = w.bundle.multiply(t1, t1, e.delta[g12], e.f1[t1] @ v.alpha[(g1, g2)])
        r_inner, inner = w.bundle.multiply(t1, t1, w.alpha[(g1, g2)] @ e.f0[s2],
                                           w.a1[g1] @ e.delta[g2])
        r_got, got = w.bundle.multiply(t1, t1, inner, e.delta[g1] @ v.a0[g2])
        rep.expect_columns(f"({g1},{g2})", [
            ColumnCheck("hexagon", want, got, (r_want, r_inner, r_got), "composable cells")])
    for x in g.objects:
        rep.expect("unit-triangle", f"object {x}",
                   w.bundle.utilde[x] @ e.f0[x], e.delta[g.unit[x]])
    return rep


def identity_equivariant(w: WeakRepresentation) -> EquivariantMap:
    g = w.groupoid
    return EquivariantMap(
        w, w,
        {x: LinearMap.identity(w.bundle.objdim[x]) for x in g.objects},
        {x: LinearMap.identity(w.bundle.arrdim[x]) for x in g.objects},
        {a: w.bundle.utilde[g.tgt[a]] @ w.a0[a] for a in g.arrows})


def compose_equivariant(e2: EquivariantMap, e1: EquivariantMap) -> EquivariantMap:
    """Composite functor with the pasted cell
    delta(g, x) = delta2(g, F1(x)) . F2(delta1(g, x))."""
    if e1.target != e2.source:
        raise CompositionError("equivariant map boundaries do not match")
    g = e1.source.groupoid
    x_rep = e2.target
    delta = {a: x_rep.bundle.product(g.tgt[a], g.tgt[a], e2.delta[a] @ e1.f0[g.src[a]],
                                     e2.f1[g.tgt[a]] @ e1.delta[a])
             for a in g.arrows}
    return EquivariantMap(
        e1.source, e2.target,
        {x: e2.f0[x] @ e1.f0[x] for x in g.objects},
        {x: e2.f1[x] @ e1.f1[x] for x in g.objects},
        delta)


def act_on_morphism(e: EquivariantMap, validate: bool = True) -> VBMap:
    """The action-groupoid functor on morphisms:
    objects through f0, arrows (g, x, k) -> (g, f0(x), delta(g,x) . f1(k))."""
    if validate:
        validate_equivariant(e).require(ValidationError,
                                        "act_on_morphism needs a valid equivariant map")
    g = e.source.groupoid
    src_chart, tgt_chart = e.source.chart, e.target.chart
    src_ag, tgt_ag = e.source.action_groupoid, e.target.action_groupoid
    arr = {}
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        x, k = src_chart.decoder[a].split(src_chart.object_rows[a])
        arrow = e.target.bundle.product(t, t, e.delta[a] @ x, e.f1[t] @ k)
        arr[a] = tgt_chart.encode(a, e.f0[s] @ x, arrow)
    return VBMap(src_ag, tgt_ag, {x: e.f0[x] for x in g.objects}, arr)
