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
from .linalg import LinearMap, Vector, rat, vec_add, vec_scale, vec_sub, vec_zero
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

    def value_over(self, prefix_dropped_key: Key, obj: str) -> Vector:
        """Value at a possibly-empty key; degree-0 lookups go through the
        carrying object."""
        if self.degree == 0:
            return self.values[(obj,)]
        return self.values[prefix_dropped_key]

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


def coboundary(f: ScalarCochain) -> ScalarCochain:
    """Simplicial coboundary of scalar cochains.

    Degree 0: (df)(g) = f(src g) - f(tgt g).  Higher degrees alternate the
    drop-first, contract, drop-last terms with sign (-1)^i and the final
    (-1)^(n+1)."""
    g = f.groupoid
    n = f.degree
    _check_degree(g, n + 1)
    out = {}
    if n == 0:
        for (a,) in g.nerve_tuples(1):
            out[(a,)] = f.values[(g.src[a],)] - f.values[(g.tgt[a],)]
        return ScalarCochain(g, 1, out)
    for tup in g.nerve_tuples(n + 1):
        total = f.values[tup[1:]]
        for i in range(1, n + 1):
            contracted = tup[:i - 1] + (g.compose(tup[i - 1], tup[i]),) + tup[i + 1:]
            term = f.values[contracted]
            total = total + term if i % 2 == 0 else total - term
        last = f.values[tup[:-1]]
        total = total + last if (n + 1) % 2 == 0 else total - last
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
    """Degree-one operator of a quasi-action on the coefficient layer:
    the first argument acts through lam, interior arguments contract with
    alternating signs, and the last argument is dropped with sign
    (-1)^(k+1)."""
    g = w.groupoid
    k = w.degree
    _check_degree(g, k + 1)
    dims_ok = all(a in lam for a in g.arrows)
    if not dims_ok:
        raise StructureError("quasi-action table missing arrows")
    out = {}
    for tup in g.nerve_tuples(k + 1):
        first = lam[tup[0]].apply(w.value_over(tup[1:], g.src[tup[0]]))
        total = first
        for i in range(1, k + 1):
            contracted = tup[:i - 1] + (g.compose(tup[i - 1], tup[i]),) + tup[i + 1:]
            term = w.values[contracted]
            total = vec_add(total, term) if i % 2 == 0 else vec_sub(total, term)
        last = w.value_over(tup[:-1], g.tgt[tup[0]])
        total = vec_add(total, last) if (k + 1) % 2 == 0 else vec_sub(total, last)
        out[tup] = total
    return SectionCochain(g, w.coeffs, w.layer, k + 1, out)
