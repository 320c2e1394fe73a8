"""Two-term representations up to homotopy over a finite groupoid.

The data is a two-term coefficient complex over the objects
(:class:`TwoTermComplex`, also the objects of :mod:`ruthvb.twoterm`), unital
quasi-actions on both layers, and a normalized transformation cochain
assigning to each composable pair a map from the degree-1 fiber at the
pair's source to the degree-0 fiber at its target.  Validity is the four
structure identities; they are equivalent to the square-zero property of
the total degree-one operator below.

Total operator sign convention (fixed once, used everywhere):

    D(w0, w1) = ( D_l0(w0) + Omega^(w1),  delta_(w0) - D_l1(w1) )

where elements of total degree n are pairs (w0 in C^n(G;E0),
w1 in C^(n-1)(G;E1)), D_l is the twisted differential of the layer
quasi-action, delta_ post-composes the fiber differential, and
Omega^(w1)(g1,...,g_{k+2}) = Omega[g1,g2](w1(g3,...)).  With these signs
D reduces to the scalar coboundary in the trivial degenerate case,
satisfies the graded Leibniz rule D(w*f) = (Dw)*f + (-1)^|w| w*(df)
on the nose, and squares to zero exactly when the four identities hold.
The basis of total degree n lists the layer-0 part first, then the
layer-1 part, each in nerve order, then fiber order.  ``operator_columns``
builds D_n in that basis as sparse integer columns scaled by one common
denominator, each block at integer offsets read through the groupoid's
face tables; ``total_operator`` applies it to a cochain's coordinates, and
``square_is_zero`` multiplies D_{n+1} by D_n into dense integer columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Optional

from . import linalg
from .cochains import ScalarCochain, SectionCochain, coboundary, star
from .cochains import twisted_differential  # noqa: F401  (the benchmark's tracer wraps it here)
from .errors import (CompositionError, DegreeError, NotInvertibleError,
                     StructureError)
from .groupoid import FiniteGroupoid, validate_groupoid
from .linalg import ZERO, LinearMap
from .reports import Report


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
class Ruth:
    """A two-term representation up to homotopy; shapes checked here,
    the structure identities by :func:`validate_ruth`."""

    groupoid: FiniteGroupoid
    complex: TwoTermComplex
    lambda0: dict[str, LinearMap]
    lambda1: dict[str, LinearMap]
    omega: dict[tuple[str, str], LinearMap]

    def __post_init__(self):
        g, c = self.groupoid, self.complex
        if tuple(c.base) != tuple(g.objects):
            raise StructureError("coefficient complex must live over the groupoid objects")
        self.lambda0 = linalg.check_table(
            "layer-0 quasi-action", self.lambda0,
            {a: (c.dim0[g.tgt[a]], c.dim0[g.src[a]]) for a in g.arrows})
        self.lambda1 = linalg.check_table(
            "layer-1 quasi-action", self.lambda1,
            {a: (c.dim1[g.tgt[a]], c.dim1[g.src[a]]) for a in g.arrows})
        self.omega = linalg.check_table(
            "transformation cochain", self.omega,
            {(g1, g2): (c.dim0[g.tgt[g1]], c.dim1[g.src[g2]]) for (g1, g2) in g.comp})


def validate_ruth(r: Ruth) -> Report:
    """The base groupoid's axioms, then unitality, normalization, and the
    four structure identities, with one report entry per violating arrow,
    pair, or triple.  The identities are only evaluated over a base that
    is a groupoid."""
    g, c = r.groupoid, r.complex
    rep = Report("ruth")
    rep.extend(validate_groupoid(g), prefix="groupoid: ")
    if not rep.passed:
        return rep
    for x in g.objects:
        u = g.unit[x]
        if not r.lambda0[u].is_identity():
            rep.add("unitality-layer0", f"unit {u}", "identity", repr(r.lambda0[u]))
        if not r.lambda1[u].is_identity():
            rep.add("unitality-layer1", f"unit {u}", "identity", repr(r.lambda1[u]))
    for (g1, g2), om in r.omega.items():
        if (g.is_unit(g1) or g.is_unit(g2)) and not om.is_zero():
            rep.add("normalization", f"({g1},{g2})", "zero", repr(om))
    for a in g.arrows:
        rep.expect("identity-1", a, linalg.compose(r.lambda1[a], c.diff[g.src[a]]),
                   linalg.compose(c.diff[g.tgt[a]], r.lambda0[a]))
    for (g1, g2), g12 in g.comp.items():
        loc = f"({g1},{g2})"
        rep.expect("identity-2", loc, linalg.compose(r.omega[(g1, g2)], c.diff[g.src[g2]]),
                   r.lambda0[g12] - linalg.compose(r.lambda0[g1], r.lambda0[g2]))
        rep.expect("identity-3", loc, linalg.compose(c.diff[g.tgt[g1]], r.omega[(g1, g2)]),
                   r.lambda1[g12] - linalg.compose(r.lambda1[g1], r.lambda1[g2]))
    for (g1, g2, g3) in g.nerve_tuples(3):
        total = (linalg.compose(r.lambda0[g1], r.omega[(g2, g3)])
                 - r.omega[(g.comp[(g1, g2)], g3)]
                 + r.omega[(g1, g.comp[(g2, g3)])]
                 - linalg.compose(r.omega[(g1, g2)], r.lambda1[g3]))
        if not total.is_zero():
            rep.add("identity-4", f"({g1},{g2},{g3})", "zero", repr(total))
    return rep


@dataclass(repr=False)
class RuthMorphism:
    """Morphism between representations up to homotopy over one groupoid:
    a chain map (phi0, phi1) covering the identity and a per-arrow homotopy
    operator mu, vanishing at units."""

    source: Ruth
    target: Ruth
    phi0: dict[str, LinearMap]
    phi1: dict[str, LinearMap]
    mu: dict[str, LinearMap]

    def __post_init__(self):
        if self.source.groupoid != self.target.groupoid:
            raise StructureError("morphism endpoints live over different groupoids")
        g = self.source.groupoid
        cs, ct = self.source.complex, self.target.complex
        self.phi0 = linalg.check_table("degree-0 component", self.phi0,
                                       {x: (ct.dim0[x], cs.dim0[x]) for x in g.objects})
        self.phi1 = linalg.check_table("degree-1 component", self.phi1,
                                       {x: (ct.dim1[x], cs.dim1[x]) for x in g.objects})
        self.mu = linalg.check_table("homotopy operator", self.mu,
                                     {a: (ct.dim0[g.tgt[a]], cs.dim1[g.src[a]]) for a in g.arrows})


def validate_morphism(m: RuthMorphism) -> Report:
    rep = Report("ruth-morphism")
    g = m.source.groupoid
    cs, ct = m.source.complex, m.target.complex
    r, rq = m.source, m.target
    for x in g.objects:
        rep.expect("morphism-identity-1", f"object {x}",
                   linalg.compose(ct.diff[x], m.phi0[x]), linalg.compose(m.phi1[x], cs.diff[x]))
    for a in g.arrows:
        if g.is_unit(a) and not m.mu[a].is_zero():
            rep.add("mu-normalization", a, "zero", repr(m.mu[a]))
        s, t = g.src[a], g.tgt[a]
        rep.expect("morphism-identity-2", a, linalg.compose(m.mu[a], cs.diff[s]),
                   linalg.compose(m.phi0[t], r.lambda0[a])
                   - linalg.compose(rq.lambda0[a], m.phi0[s]))
        rep.expect("morphism-identity-3", a, linalg.compose(ct.diff[t], m.mu[a]),
                   linalg.compose(m.phi1[t], r.lambda1[a])
                   - linalg.compose(rq.lambda1[a], m.phi1[s]))
    for (g1, g2), g12 in g.comp.items():
        rep.expect("morphism-identity-4", f"({g1},{g2})",
                   m.mu[g12] + linalg.compose(rq.omega[(g1, g2)], m.phi1[g.src[g2]]),
                   linalg.compose(m.phi0[g.tgt[g1]], r.omega[(g1, g2)])
                   + linalg.compose(m.mu[g1], r.lambda1[g2])
                   + linalg.compose(rq.lambda0[g1], m.mu[g2]))
    return rep


def identity_morphism(r: Ruth) -> RuthMorphism:
    g, c = r.groupoid, r.complex
    return RuthMorphism(
        r, r,
        {x: LinearMap.identity(c.dim0[x]) for x in g.objects},
        {x: LinearMap.identity(c.dim1[x]) for x in g.objects},
        {a: LinearMap.zero(c.dim0[g.tgt[a]], c.dim1[g.src[a]]) for a in g.arrows})


def compose_morphisms(m2: RuthMorphism, m1: RuthMorphism) -> RuthMorphism:
    """Componentwise composite; the homotopy operator pastes by
    whiskering, mu = phi0' . mu1 + mu2 . phi1."""
    if m1.target != m2.source:
        raise CompositionError("morphism boundaries do not match")
    g = m1.source.groupoid
    return RuthMorphism(
        m1.source, m2.target,
        {x: linalg.compose(m2.phi0[x], m1.phi0[x]) for x in g.objects},
        {x: linalg.compose(m2.phi1[x], m1.phi1[x]) for x in g.objects},
        {a: linalg.compose(m2.phi0[g.tgt[a]], m1.mu[a])
            + linalg.compose(m2.mu[a], m1.phi1[g.src[a]])
         for a in g.arrows})


def gauge_transport(target: Ruth, phi0, phi1, mu) -> tuple[Ruth, RuthMorphism]:
    """Pull a valid representation back along invertible per-object maps and
    a unit-vanishing per-arrow operator.

    The source structure is solved from the morphism identities, so the
    returned (phi0, phi1, mu) is an isomorphism onto ``target`` by
    construction; both the new structure and the witness re-validate.
    """
    g = target.groupoid
    ct = target.complex
    phi0, phi1, mu = dict(phi0), dict(phi1), dict(mu)
    inv0, inv1 = {}, {}
    for x in g.objects:
        try:
            inv0[x] = linalg.inverse(phi0[x])
            inv1[x] = linalg.inverse(phi1[x])
        except NotInvertibleError as exc:
            raise NotInvertibleError(f"gauge components at {x} are singular") from exc
    for a in g.arrows:
        if g.is_unit(a) and not mu[a].is_zero():
            raise StructureError("gauge operator must vanish at unit arrows")
    diff = {x: linalg.compose(inv1[x], linalg.compose(ct.diff[x], phi0[x]))
            for x in g.objects}
    source_complex = TwoTermComplex(g.objects, ct.dim0, ct.dim1, diff)
    lambda0, lambda1 = {}, {}
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        lambda0[a] = linalg.compose(
            inv0[t],
            linalg.compose(target.lambda0[a], phi0[s]) + linalg.compose(mu[a], diff[s]))
        lambda1[a] = linalg.compose(
            inv1[t],
            linalg.compose(target.lambda1[a], phi1[s])
            + linalg.compose(ct.diff[t], mu[a]))
    omega = {}
    for (g1, g2) in g.comp:
        g12 = g.comp[(g1, g2)]
        t1, s2 = g.tgt[g1], g.src[g2]
        omega[(g1, g2)] = linalg.compose(
            inv0[t1],
            mu[g12]
            + linalg.compose(target.omega[(g1, g2)], phi1[s2])
            - linalg.compose(mu[g1], lambda1[g2])
            - linalg.compose(target.lambda0[g1], mu[g2]))
    source = Ruth(g, source_complex, lambda0, lambda1, omega)
    witness = RuthMorphism(source, target, phi0, phi1, mu)
    return source, witness


# -- the total operator --------------------------------------------------------


class TotalCochain:
    """Element of total degree n: a degree-n layer-0 part and a degree-(n-1)
    layer-1 part (absent at n = 0)."""

    def __init__(self, part0: SectionCochain, part1: Optional[SectionCochain]):
        if part0.layer != 0:
            raise StructureError("part0 must be valued in layer 0")
        if part1 is not None:
            if part1.layer != 1:
                raise StructureError("part1 must be valued in layer 1")
            if part1.degree != part0.degree - 1:
                raise StructureError("total cochain parts have incompatible degrees")
            if part1.coeffs != part0.coeffs or part1.groupoid != part0.groupoid:
                raise StructureError("total cochain parts disagree on coefficients")
        elif part0.degree != 0:
            raise StructureError("part1 may be omitted only in total degree 0")
        self.part0 = part0
        self.part1 = part1

    @property
    def degree(self) -> int:
        return self.part0.degree

    def __eq__(self, other):
        if not isinstance(other, TotalCochain):
            return NotImplemented
        return self.part0 == other.part0 and self.part1 == other.part1


def _layout(r: Ruth, n: int) -> tuple[list[int], list[int], int]:
    """The basis of total degree n: the offsets of the layer-0 blocks over the
    degree-n nerve, then of the layer-1 blocks over the degree-(n-1) nerve,
    as lists in nerve order, each block in fiber order; and the dimension."""
    g, c = r.groupoid, r.complex
    parts, size = [], 0
    for k, dims in ((n, c.dim0), (n - 1, c.dim1)):
        offsets = []
        for tup in g.nerve_tuples(k) if k >= 0 else ():
            offsets.append(size)
            size += dims[g.tuple_target(tup, k)]
        parts.append(offsets)
    return parts[0], parts[1], size


def common_denominator(r: Ruth) -> int:
    """den: the lcm of the denominators of lambda0, lambda1, omega and diff,
    the least integer that makes den * D integral."""
    maps = (*r.lambda0.values(), *r.lambda1.values(), *r.omega.values(),
            *r.complex.diff.values())
    return math.lcm(*(m.canonical[1] for m in maps))


def _scaled_tables(r: Ruth) -> tuple[int, tuple[dict, ...]]:
    """den, the :func:`common_denominator`, and den times lambda0, -lambda1,
    omega and diff, each map as its nonzero (column, row, entry) triples."""
    den = common_denominator(r)

    def scaled(table, sign=1):
        return {key: [(k % m.cols, k // m.cols, x * sign * den // m.canonical[1])
                      for k, x in enumerate(m.canonical[0]) if x] for key, m in table.items()}

    return den, (scaled(r.lambda0), scaled(r.lambda1, -1), scaled(r.omega),
                 scaled(r.complex.diff))


def operator_columns(r: Ruth, n: int) -> list[dict[int, int]]:
    """den * D_n, from total degree n to n + 1, as sparse integer columns,
    den the :func:`common_denominator`: column i maps row indices to
    entries, in the basis order of the module docstring.

    Each output block reads a few input blocks at integer offsets of the
    nerve, through the groupoid's face tables: lambda at face 0 and the
    signed identity at the other faces, omega at the first two arguments
    with its input at face 0 of face 0, and diff on the layer-1 rows."""
    return _operator_columns(r, n, *_scaled_tables(r), partial(_layout, r))


def _operator_columns(r: Ruth, n: int, den: int, tables: tuple[dict, ...],
                      layout) -> list[dict[int, int]]:
    """:func:`operator_columns` from the :func:`_scaled_tables` of r and
    ``layout(k)``, the :func:`_layout` of r in total degree k."""
    g, c = r.groupoid, r.complex
    if n + 1 > g.max_degree:
        raise DegreeError(f"total degree {n + 1} exceeds the nerve bound {g.max_degree}")
    lambda0, lambda1, omega, diff = tables
    in0, in1, size = layout(n)
    out0, out1, _ = layout(n + 1)
    columns: list[dict[int, int]] = [{} for _ in range(size)]

    def put(block, row, col):
        for q, i, x in block:
            column = columns[col + q]
            column[row + i] = column.get(row + i, 0) + x

    def twisted(lam, dims, k, rows, inputs, sign):
        for tup, row, ((first, _), *rest) in zip(g.nerve_tuples(k), rows, g.face_table(k)):
            put(lam[tup[0]], row, inputs[first])
            for q, i in enumerate(range(row, row + dims[g.tgt[tup[0]]])):
                for j, s in rest:
                    column = columns[inputs[j] + q]
                    column[i] = column.get(i, 0) + s * sign * den

    twisted(lambda0, c.dim0, n + 1, out0, in0, 1)
    for tup, row, col in zip(g.nerve_tuples(n), out1, in0):
        put(diff[g.tuple_target(tup, n)], row, col)
    if n > 0:
        inner = g.face_table(n)
        for tup, row, faces in zip(g.nerve_tuples(n + 1), out0, g.face_table(n + 1)):
            put(omega[tup[:2]], row, in1[inner[faces[0][0]][0][0]])
        twisted(lambda1, c.dim1, n, out1, in1, -1)
    return columns


def total_operator(r: Ruth, c: TotalCochain) -> TotalCochain:
    """One application of the degree-one operator, under the documented
    sign convention (see the module docstring): D_n of
    :func:`operator_columns` applied to the cochain's coordinates."""
    g, co = r.groupoid, r.complex
    n = c.degree
    columns = operator_columns(r, n)
    den = common_denominator(r)
    coords = [e for part in (c.part0, c.part1) if part is not None
              for v in part.values.values() for e in v]
    out0, out1, size = _layout(r, n + 1)
    acc = [ZERO] * size
    for x, column in zip(coords, columns):
        if x:
            for j, y in column.items():
                acc[j] += y * x

    def part(layer, k, offsets):
        dims = co.dim0 if layer == 0 else co.dim1
        return SectionCochain(g, co, layer, k, {
            tup: tuple(e / den for e in acc[o:o + dims[g.tuple_target(tup, k)]])
            for tup, o in zip(g.nerve_tuples(k), offsets)})

    return TotalCochain(part(0, n + 1, out0), part(1, n, out1))


def square_is_zero(r: Ruth) -> Report:
    """Multiply den * D_{n+1} by den * D_n, one column of D_n at a time into
    a dense integer accumulator, for each total degree n = 0..2; basis
    element i of total degree n squares to nonzero exactly when column i of
    the product is nonzero.  Such i are reported in ascending order.  Only
    D_n and D_{n+1} are held at once."""
    rep = Report("square-zero")
    # D_{n+1} D_n reads composable (n + 2)-tuples.  n = 1 already reaches the
    # triples of identity-4; n = 2 reaches nerve degree 4, a groupoid's
    # default max_degree.  The scaled tables and each degree's layout are
    # built once for the four operators.
    den, tables = _scaled_tables(r)
    layout = cache(partial(_layout, r))
    current = _operator_columns(r, 0, den, tables, layout)
    for n in range(3):
        following = _operator_columns(r, n + 1, den, tables, layout)
        size = layout(n + 2)[2]
        for i, column in enumerate(current):
            acc = [0] * size
            for k, x in column.items():
                for j, y in following[k].items():
                    acc[j] += x * y
            if any(acc):
                rep.add("square-zero", f"total degree {n}, basis {i}", "zero", "nonzero")
        current = following
    return rep


def star_total(c: TotalCochain, f: ScalarCochain) -> TotalCochain:
    part0 = star(c.part0, f)
    part1 = star(c.part1, f) if c.part1 is not None else None
    if part1 is None and part0.degree > 0:
        part1 = SectionCochain.zero(c.part0.groupoid, c.part0.coeffs, 1,
                                    part0.degree - 1)
    return TotalCochain(part0, part1)


def check_leibniz(r: Ruth, samples) -> Report:
    """Verify D(w * f) = (Dw) * f + (-1)^|w| w * (df) on the given
    (TotalCochain, ScalarCochain) pairs, exactly."""
    rep = Report("leibniz")
    for idx, (w, f) in enumerate(samples):
        lhs = total_operator(r, star_total(w, f))
        first = star_total(total_operator(r, w), f)
        second = star_total(w, coboundary(f))
        sign = 1 if w.degree % 2 == 0 else -1
        # Both sides have total degree at least 1, so both carry a part1.
        rhs0 = first.part0 + second.part0 if sign > 0 else first.part0 - second.part0
        rhs1 = first.part1 + second.part1 if sign > 0 else first.part1 - second.part1
        rhs = TotalCochain(rhs0, rhs1)
        if lhs != rhs:
            rep.add("leibniz", f"sample {idx}, |w|={w.degree}, |f|={f.degree}",
                    "equal sides", "mismatch")
    return rep
