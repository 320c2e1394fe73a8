"""Groupoid cochains: scalar functions on nerve tuples and sections of a
graded coefficient layer, with the coboundary, the right-module product,
and the twisted differential of a quasi-action.

Values at a degree-k tuple live in the fiber over the target of the tuple
(the object itself at degree 0).  Keys are exactly the nerve tuples of the
groupoid, degree 0 using singleton object tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DegreeError, StructureError
from .groupoid import FiniteGroupoid
from .linalg import ZERO, LinearMap, Vector, rat, vec_add, vec_scale, vec_sub, vec_zero
from .twoterm import TwoTermComplex

Key = tuple[str, ...]


def _check_degree(g: FiniteGroupoid, degree: int):
    if degree > g.max_degree:
        raise DegreeError(f"degree {degree} exceeds the nerve bound {g.max_degree}")
    if degree < 0:
        raise DegreeError("negative cochain degree")


@dataclass(repr=False)
class ScalarCochain:
    """Rational-valued function on the degree-k nerve."""

    groupoid: FiniteGroupoid
    degree: int
    values: dict[Key, Fraction]

    def __post_init__(self):
        _check_degree(self.groupoid, self.degree)
        keys = self.groupoid.nerve_tuples(self.degree)
        vals = {k: rat(self.values[k]) for k in self.values}
        if set(vals) != set(keys):
            raise StructureError("scalar cochain keys do not match the nerve")
        self.values = {k: vals[k] for k in keys}

    @staticmethod
    def constant(g: FiniteGroupoid, degree: int, value) -> "ScalarCochain":
        return ScalarCochain(g, degree, {k: rat(value) for k in g.nerve_tuples(degree)})


@dataclass(repr=False)
class SectionCochain:
    """Cochain valued in one layer (0 or 1) of a two-term coefficient complex
    over the groupoid's objects."""

    groupoid: FiniteGroupoid
    coeffs: TwoTermComplex
    layer: int
    degree: int
    values: dict[Key, Vector]

    def __post_init__(self):
        groupoid, coeffs, degree, values = self.groupoid, self.coeffs, self.degree, self.values
        _check_degree(groupoid, degree)
        if self.layer not in (0, 1):
            raise StructureError("layer must be 0 or 1")
        if tuple(coeffs.base) != tuple(groupoid.objects):
            raise StructureError("coefficient complex lives over a different object set")
        dims = coeffs.dim0 if self.layer == 0 else coeffs.dim1
        keys = groupoid.nerve_tuples(degree)
        if set(values) != set(keys):
            raise StructureError("section cochain keys do not match the nerve")
        self.values = {}
        for k in keys:
            fib = groupoid.tuple_target(k, degree)
            v = tuple(values[k])
            if len(v) != dims[fib]:
                raise StructureError(f"value at {k} has length {len(v)}, "
                                     f"fiber over {fib} has dimension {dims[fib]}")
            self.values[k] = v

    def fiber_dim(self, obj: str) -> int:
        dims = self.coeffs.dim0 if self.layer == 0 else self.coeffs.dim1
        return dims[obj]

    def is_zero(self) -> bool:
        return all(all(e == 0 for e in v) for v in self.values.values())

    def __add__(self, other: "SectionCochain") -> "SectionCochain":
        if (self.degree, self.layer) != (other.degree, other.layer):
            raise StructureError("cochain sum across different bidegrees")
        return SectionCochain(self.groupoid, self.coeffs, self.layer, self.degree,
                              {k: vec_add(v, other.values[k]) for k, v in self.values.items()})

    def __sub__(self, other: "SectionCochain") -> "SectionCochain":
        if (self.degree, self.layer) != (other.degree, other.layer):
            raise StructureError("cochain difference across different bidegrees")
        return SectionCochain(self.groupoid, self.coeffs, self.layer, self.degree,
                              {k: vec_sub(v, other.values[k]) for k, v in self.values.items()})

    @staticmethod
    def zero(g: FiniteGroupoid, coeffs: TwoTermComplex, layer: int,
             degree: int) -> "SectionCochain":
        dims = coeffs.dim0 if layer == 0 else coeffs.dim1
        return SectionCochain(g, coeffs, layer, degree,
                              {k: vec_zero(dims[g.tuple_target(k, degree)])
                               for k in g.nerve_tuples(degree)})

    @staticmethod
    def basis(g: FiniteGroupoid, coeffs: TwoTermComplex, layer: int, degree: int,
              key: Key, index: int) -> "SectionCochain":
        z = SectionCochain.zero(g, coeffs, layer, degree)
        fib = g.tuple_target(key, degree)
        dim = z.fiber_dim(fib)
        vals = dict(z.values)
        vals[key] = tuple(Fraction(1) if i == index else Fraction(0) for i in range(dim))
        return SectionCochain(g, coeffs, layer, degree, vals)


def is_normalized(w) -> bool:
    """A cochain is normalized when it vanishes on every tuple containing a
    unit arrow."""
    if w.degree == 0:
        return True
    g = w.groupoid
    for k, v in w.values.items():
        if any(g.is_unit(a) for a in k):
            if isinstance(v, tuple):
                if any(e != 0 for e in v):
                    return False
            elif v != 0:
                return False
    return True


def faces(g: FiniteGroupoid, tup: Key) -> list[tuple[Key, int]]:
    """The faces of a composable (k+1)-tuple as degree-k keys, each with its
    sign in the coboundary: face 0 drops the first arrow (+1), face i
    composes arrows i-1 and i ((-1)^i), and face k+1 drops the last
    ((-1)^(k+1)).  The faces of one arrow are its source and its target
    object.  This is the one statement of the simplicial sign convention."""
    k = len(tup) - 1
    if k == 0:
        return [((g.src[tup[0]],), 1), ((g.tgt[tup[0]],), -1)]
    inner = [(tup[:i - 1] + (g.compose(tup[i - 1], tup[i]),) + tup[i + 1:], -1 if i % 2 else 1)
             for i in range(1, k + 1)]
    return [(tup[1:], 1), *inner, (tup[:-1], -1 if k % 2 == 0 else 1)]


def coboundary(f: ScalarCochain) -> ScalarCochain:
    """Simplicial coboundary of scalar cochains: the signed sum of the
    values at the faces (:func:`faces`).  Degree 0 gives
    (df)(g) = f(src g) - f(tgt g)."""
    g = f.groupoid
    n = f.degree
    _check_degree(g, n + 1)
    out = {}
    for tup in g.nerve_tuples(n + 1):
        total = ZERO
        for key, sign in faces(g, tup):
            total = total + f.values[key] if sign > 0 else total - f.values[key]
        out[tup] = total
    return ScalarCochain(g, n + 1, out)


def star(w: SectionCochain, f: ScalarCochain) -> SectionCochain:
    """Right module structure: (w * f)(g_1..g_{p+q}) scales the fiber value
    w(g_1..g_p) by the scalar f(g_{p+1}..g_{p+q})."""
    if w.groupoid is not f.groupoid and w.groupoid != f.groupoid:
        raise StructureError("cochains over different groupoids")
    g = w.groupoid
    p, q = w.degree, f.degree
    _check_degree(g, p + q)
    out = {}
    for tup in g.nerve_tuples(p + q):
        wkey = tup if p + q == 0 else tup[:p]
        fkey = tup[p:]
        if p == 0:
            wv = w.values[(g.tuple_target(tup, p + q),)]
        else:
            wv = w.values[wkey]
        if q == 0:
            fv = f.values[(g.tuple_source(tup, p + q),)]
        else:
            fv = f.values[fkey]
        out[tup] = vec_scale(fv, wv)
    return SectionCochain(g, w.coeffs, w.layer, p + q, out)


def twisted_differential(lam: Mapping[str, LinearMap], w: SectionCochain) -> SectionCochain:
    """Degree-one operator of a quasi-action on the coefficient layer: the
    coboundary's signed sum over :func:`faces`, with the value at face 0
    acted on by lam at the first argument."""
    g = w.groupoid
    k = w.degree
    _check_degree(g, k + 1)
    dims_ok = all(a in lam for a in g.arrows)
    if not dims_ok:
        raise StructureError("quasi-action table missing arrows")
    out = {}
    for tup in g.nerve_tuples(k + 1):
        (first, _), *rest = faces(g, tup)
        total = lam[tup[0]].apply(w.values[first])
        for key, sign in rest:
            total = vec_add(total, w.values[key]) if sign > 0 else vec_sub(total, w.values[key])
        out[tup] = total
    return SectionCochain(g, w.coeffs, w.layer, k + 1, out)
