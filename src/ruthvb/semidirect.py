"""The semi-direct product: from a representation up to homotopy to a
VB-groupoid, and its action on morphisms.

The tables are built by :func:`ruthvb.twoterm.semidirect_bundle`, which
also builds the sum groupoid of a complex.
"""

from __future__ import annotations

from . import linalg
from .errors import ValidationError
from .linalg import LinearMap
from .ruth import Ruth, RuthMorphism, validate_morphism, validate_ruth
from .twoterm import semidirect_bundle
from .vb import VBGroupoid, VBMap


def semidirect(r: Ruth, validate: bool = True) -> VBGroupoid:
    """Semi-direct product VB-groupoid of a valid representation."""
    if validate:
        validate_ruth(r).require(ValidationError, "semidirect needs a valid representation")
    return semidirect_bundle(r.groupoid, r.complex, r.lambda0, r.lambda1, r.omega)


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
