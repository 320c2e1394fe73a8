"""The semi-direct product: from a representation up to homotopy to a
VB-groupoid, and its action on morphisms.

:func:`semidirect` is the one construction of the semi-direct
VB-groupoid; the sum groupoid of a two-term complex
(:func:`ruthvb.twoterm.phi_object`) is its case over the unit groupoid.
"""

from __future__ import annotations

from . import linalg
from .errors import ValidationError
from .linalg import LinearMap
from .ruth import Ruth, RuthMorphism, validate_morphism, validate_ruth
from .vb import VBGroupoid, VBMap


def semidirect(r: Ruth, validate: bool = True) -> VBGroupoid:
    """Semi-direct product VB-groupoid of a valid representation; with
    ``validate=False`` the representation is not checked.

    Arrow fibers over g are ordered (degree-0 block at tgt g, degree-1 block
    at src g): the triple (g, e0, e1) is stored as the column (e0; e1).
    Source picks e1, target is diff(e0) + lambda1(e1), multiplication twists
    by the transformation cochain, and inverses follow the closed formula,
    all exactly.  The multiplication is stored as a table on each pair
    chart's coordinates, written down without a product."""
    if validate:
        validate_ruth(r).require(ValidationError, "semidirect needs a valid representation")
    g, c, lambda0, lambda1, omega = r.groupoid, r.complex, r.lambda0, r.lambda1, r.omega
    objdim = {x: c.dim1[x] for x in g.objects}
    arrdim = {a: c.dim0[g.tgt[a]] + c.dim1[g.src[a]] for a in g.arrows}
    stilde, ttilde, utilde, inv_map = {}, {}, {}, {}
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        d0t, d1s = c.dim0[t], c.dim1[s]
        stilde[a] = linalg.hstack(LinearMap.zero(c.dim1[s], d0t), LinearMap.identity(d1s))
        ttilde[a] = linalg.hstack(c.diff[t], lambda1[a])
        b = g.inv[a]
        # (g,e0,e1)^{-1} = (g^{-1}, -l0_{g^{-1}} e0 + Omega_{g^{-1},g} e1,
        #                   diff e0 + l1_g e1)
        inv_map[a] = linalg.vstack(
            linalg.hstack(-lambda0[b], omega[(b, a)]),
            linalg.hstack(c.diff[t], lambda1[a]))
    for x in g.objects:
        utilde[x] = linalg.vstack(LinearMap.zero(c.dim0[x], c.dim1[x]),
                                  LinearMap.identity(c.dim1[x]))

    # (g1, e0, e1).(g2, f0, f1) = (g1 g2, e0 + l0_{g1} f0 - Omega_{g1,g2} f1, f1).
    # The pair constraint [stilde_g1 | -ttilde_g2] is [0 | id | -diff | -l1_{g2}]
    # on (e0, e1, f0, f1), whatever diff and l1 are, so the leftmost-pivot
    # reduction pivots on e1 and the chart's free columns are (e0, f0, f1),
    # in that order: the product is a table on those coordinates.
    mult = {}
    for (g1, g2) in g.comp:
        d0t, d0m, d1s2 = c.dim0[g.tgt[g1]], c.dim0[g.src[g1]], c.dim1[g.src[g2]]
        mult[(g1, g2)] = linalg.vstack(
            linalg.hstack(LinearMap.identity(d0t), lambda0[g1], -omega[(g1, g2)]),
            linalg.hstack(LinearMap.zero(d1s2, d0t + d0m), LinearMap.identity(d1s2)))
    return VBGroupoid(g, objdim, arrdim, stilde, ttilde, utilde, inv_map, mult)


def psi_morphism(m: RuthMorphism) -> VBMap:
    """VB-groupoid map of the semi-direct products:
    phi1 on objects, (e0, e1) -> (phi0 e0 + mu e1, phi1 e1) over each arrow."""
    validate_morphism(m).require(ValidationError, "psi_morphism needs a valid morphism")
    g = m.source.groupoid
    sv = semidirect(m.source, validate=False)
    tv = semidirect(m.target, validate=False)
    arr = {}
    for a in g.arrows:
        s, t = g.src[a], g.tgt[a]
        arr[a] = linalg.vstack(
            linalg.hstack(m.phi0[t], m.mu[a]),
            linalg.hstack(LinearMap.zero(m.target.complex.dim1[s],
                                         m.source.complex.dim0[t]),
                          m.phi1[s]))
    return VBMap(sv, tv, {x: m.phi1[x] for x in g.objects}, arr)
