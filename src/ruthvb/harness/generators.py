"""Seeded random instance generation and structural mutation.

Valid instances come from two constructions that are valid by design:
strict representations (genuine actions with an equivariant differential)
pulled back along random invertible gauges, and semi-direct products with
all fibers conjugated by random invertible changes of basis.

A mutation family bumps one entry of one map in a few named tables of an
instance: :func:`sites` lists the instance's nonempty maps there, from its
own tables, and :func:`bumped` is the one rebuild, for the families and the
tests alike.  Rigid families hit a cell that some validator reads directly,
so a non-identical bump is always flagged; free families hit any cell of
their tables, and the caller decides validity through the validator.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from operator import attrgetter

from .. import linalg
from ..errors import StructureError
from ..groupoid import (FiniteGroupoid, cyclic_groupoid, disjoint_union,
                        pair_groupoid, transitive_groupoid, z2_groupoid)
from ..linalg import LinearMap
from ..ruth import Ruth, RuthMorphism, TwoTermComplex, gauge_transport
from ..semidirect import semidirect
from ..twoterm import ChainHomotopy, ChainMap
from ..vb import VBGroupoid
from ..weak import EquivariantMap, WeakRepresentation
from ..equivalences import wrep_from_ruth, wrep_from_ruth_morphism


def rand_fraction(rng: random.Random, span: int = 2) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.choice((1, 1, 2))
    return Fraction(num, den)


def rand_matrix(rng, rows, cols, span=2) -> LinearMap:
    return LinearMap.from_entries(rows, cols,
                                  [rand_fraction(rng, span) for _ in range(rows * cols)])


def rand_invertible(rng, n, span=2) -> LinearMap:
    if n == 0:
        return LinearMap.zero(0, 0)
    while True:
        m = rand_matrix(rng, n, n, span)
        if linalg.is_invertible(m):
            return m


# -- groupoids ---------------------------------------------------------------


def random_groupoid(rng: random.Random, max_objects: int = 4,
                    max_arrows: int = 12) -> FiniteGroupoid:
    """A valid groupoid within the size bounds: disjoint unions of connected
    groupoids with cyclic isotropy."""
    choices = []
    if max_arrows >= 2:
        choices += [lambda: z2_groupoid(),
                    lambda: cyclic_groupoid(rng.randint(2, min(3, max_arrows)))]
    if max_objects >= 2 and max_arrows >= 4:
        choices.append(lambda: pair_groupoid(["x", "y"]))
    if max_objects >= 2 and max_arrows >= 8:
        choices.append(lambda: transitive_groupoid(["x", "y"], 2))
    if max_objects >= 3 and max_arrows >= 9:
        choices.append(lambda: transitive_groupoid(["x", "y", "z"], 1))
    if max_objects >= 2 and max_arrows >= 4:
        choices.append(lambda: disjoint_union(z2_groupoid(), z2_groupoid()))
    if max_objects >= 3 and max_arrows >= 6:
        choices.append(lambda: disjoint_union(z2_groupoid(), pair_groupoid(["x", "y"])))
    if not choices:
        choices = [lambda: cyclic_groupoid(1)]
    return rng.choice(choices)()


def _components(g: FiniteGroupoid) -> list[set[str]]:
    """The orbits of g, in order of their least object: in a groupoid, the
    component of x is the set of targets of the arrows out of x."""
    comps: list[set[str]] = []
    for x in g.objects:
        if not any(x in comp for comp in comps):
            comps.append({g.tgt[a] for a in g.arrows if g.src[a] == x})
    return comps


# -- representations up to homotopy -------------------------------------------


def random_strict_ruth(rng, g: FiniteGroupoid, max_dim: int = 2) -> Ruth:
    """Strict representation: trivial quasi-actions per connected component
    with a constant equivariant differential and vanishing transformation
    cochain.  Dimensions are constant on components so identity actions
    typecheck."""
    dim0, dim1, diff = {}, {}, {}
    for comp in _components(g):
        d0 = rng.randint(0, max_dim)
        d1 = rng.randint(0, max_dim)
        d = rand_matrix(rng, d1, d0)
        for x in comp:
            dim0[x], dim1[x], diff[x] = d0, d1, d
    complex_ = TwoTermComplex(g.objects, dim0, dim1, diff)
    lambda0 = {a: LinearMap.identity(dim0[g.src[a]]) for a in g.arrows}
    lambda1 = {a: LinearMap.identity(dim1[g.src[a]]) for a in g.arrows}
    omega = {pair: LinearMap.zero(dim0[g.tgt[pair[0]]], dim1[g.src[pair[1]]])
             for pair in g.comp}
    return Ruth(g, complex_, lambda0, lambda1, omega)


def random_gauge(rng, target: Ruth):
    """Random invertible per-object gauge and unit-vanishing operator."""
    g = target.groupoid
    c = target.complex
    phi0 = {x: rand_invertible(rng, c.dim0[x]) for x in g.objects}
    phi1 = {x: rand_invertible(rng, c.dim1[x]) for x in g.objects}
    mu = {}
    for a in g.arrows:
        shape = (c.dim0[g.tgt[a]], c.dim1[g.src[a]])
        mu[a] = (LinearMap.zero(*shape) if g.is_unit(a)
                 else rand_matrix(rng, *shape))
    return phi0, phi1, mu


def random_ruth(rng, g: FiniteGroupoid | None = None, max_dim: int = 2) -> Ruth:
    """Valid, generally non-strict representation: a strict seed pulled back
    along a random gauge."""
    if g is None:
        g = random_groupoid(rng)
    r = random_strict_ruth(rng, g, max_dim)
    return gauge_transport(r, *random_gauge(rng, r))[0]


def random_ruth_morphism(rng, target: Ruth) -> RuthMorphism:
    """Isomorphism onto the given representation, via gauge transport."""
    _, witness = gauge_transport(target, *random_gauge(rng, target))
    return witness


# -- chain complexes, maps, homotopies ------------------------------------------


def random_complex(rng, base=None, max_dim: int = 2,
                   max_points: int = 2) -> TwoTermComplex:
    """A complex over ``base``, or over 1 to min(2, max_points) drawn points."""
    if base is None:
        base = ["p", "q"][:rng.randint(1, min(2, max_points))]
    dim0 = {x: rng.randint(0, max_dim) for x in base}
    dim1 = {x: rng.randint(0, max_dim) for x in base}
    diff = {x: rand_matrix(rng, dim1[x], dim0[x]) for x in base}
    return TwoTermComplex(base, dim0, dim1, diff)


def random_chain_map(rng, c: TwoTermComplex, d: TwoTermComplex) -> ChainMap:
    """Uniform-ish sample of the solution space of the chain square,
    per point."""
    if tuple(c.base) != tuple(d.base):
        raise ValueError("random chain maps are generated over a shared base")
    f0, f1 = {}, {}
    for x in c.base:
        a0, b0 = d.dim0[x], c.dim0[x]
        a1, b1 = d.dim1[x], c.dim1[x]
        n0, n1 = a0 * b0, a1 * b1

        def square(k):
            """The chain square f1 . diff_c - diff_d . f0, row-major, at the
            k-th basis vector of the row-major entries of (f0, f1)."""
            e = tuple(int(i == k) for i in range(n0 + n1))
            s = LinearMap(a1, b1, e[n0:]) @ c.diff[x] - d.diff[x] @ LinearMap(a0, b0, e[:n0])
            return LinearMap(a1 * b0, 1, s.nums, s.den)

        # the empty first block keeps the row count when (f0, f1) has no entries
        chart = linalg.kernel_chart(linalg.hstack(LinearMap.zero(a1 * b0, 0),
                                                  *(square(k) for k in range(n0 + n1))))
        draws = LinearMap.from_columns([[rand_fraction(rng) for _ in chart.free]], len(chart.free))
        sol0, sol1 = chart.basis_map.split_product(draws, cut=n0)
        f0[x] = LinearMap(a0, b0, sol0.nums, sol0.den)
        f1[x] = LinearMap(a1, b1, sol1.nums, sol1.den)
    return ChainMap(c, d, f0, f1)


def random_homotopy_from(rng, f: ChainMap) -> ChainHomotopy:
    """Homotopy with the given source: a random operator determines the
    target chain map."""
    c, d = f.source, f.target
    omega = {x: rand_matrix(rng, d.dim0[x], c.dim1[x]) for x in c.base}
    g0 = {x: f.f0[x] + omega[x] @ c.diff[x] for x in c.base}
    g1 = {x: f.f1[x] + d.diff[x] @ omega[x] for x in c.base}
    g = ChainMap(c, d, g0, g1)
    return ChainHomotopy(f, g, omega)


# -- VB-groupoids ----------------------------------------------------------------


def scramble_vb(rng, v: VBGroupoid):
    """Conjugate every fiber by a random invertible map; returns the new
    VB-groupoid together with the change-of-basis tables."""
    g = v.base
    t_obj = {x: rand_invertible(rng, v.objdim[x], 1) for x in g.objects}
    t_arr = {a: rand_invertible(rng, v.arrdim[a], 1) for a in g.arrows}
    t_obj_inv = {x: linalg.inverse(t_obj[x]) for x in g.objects}
    t_arr_inv = {a: linalg.inverse(t_arr[a]) for a in g.arrows}
    stilde = {a: t_obj[g.src[a]] @ (v.stilde[a] @ t_arr_inv[a]) for a in g.arrows}
    ttilde = {a: t_obj[g.tgt[a]] @ (v.ttilde[a] @ t_arr_inv[a]) for a in g.arrows}
    utilde = {x: t_arr[g.unit[x]] @ (v.utilde[x] @ t_obj_inv[x]) for x in g.objects}
    inv_map = {a: t_arr[g.inv[a]] @ (v.inv_map[a] @ t_arr_inv[a]) for a in g.arrows}

    def product(g1, g2, vv, ww):
        prod = v.product(g1, g2, t_arr_inv[g1] @ vv, t_arr_inv[g2] @ ww)
        return t_arr[g.comp[(g1, g2)]] @ prod

    out = VBGroupoid(g, v.objdim, v.arrdim, stilde, ttilde, utilde, inv_map, product)
    return out, t_obj, t_arr


def random_vb(rng, g: FiniteGroupoid | None = None, max_dim: int = 2) -> VBGroupoid:
    """Valid VB-groupoid: semi-direct product of a random representation
    with all fibers scrambled."""
    r = random_ruth(rng, g, max_dim)
    v = semidirect(r, validate=False)
    out, _, _ = scramble_vb(rng, v)
    return out


# -- weak representations and equivariant maps ------------------------------------


def random_wrep(rng, g: FiniteGroupoid | None = None, max_dim: int = 2) -> WeakRepresentation:
    return wrep_from_ruth(random_ruth(rng, g, max_dim), validate=False)


def scramble_wrep(rng, w: WeakRepresentation):
    """Conjugate the underlying bundle by a random change of basis and carry
    the action data along; returns the new weak representation together with
    the strictly intertwining equivariant isomorphism from the original."""
    g = w.groupoid
    bundle, t_obj, t_arr = scramble_vb(rng, w.bundle)
    t_obj_inv = {x: linalg.inverse(t_obj[x]) for x in g.objects}
    t_arr_inv = {x: linalg.inverse(t_arr[x]) for x in g.objects}
    a0 = {a: t_obj[g.tgt[a]] @ (w.a0[a] @ t_obj_inv[g.src[a]]) for a in g.arrows}
    a1 = {a: t_arr[g.tgt[a]] @ (w.a1[a] @ t_arr_inv[g.src[a]]) for a in g.arrows}
    alpha = {pair: t_arr[g.tgt[pair[0]]] @ (w.alpha[pair] @ t_obj_inv[g.src[pair[1]]])
             for pair in g.comp}
    out = WeakRepresentation(g, bundle, a0, a1, alpha)
    witness = EquivariantMap(
        w, out,
        {x: t_obj[x] for x in g.objects},
        {x: t_arr[x] for x in g.objects},
        {a: bundle.utilde[g.tgt[a]] @ (a0[a] @ t_obj[g.src[a]]) for a in g.arrows})
    return out, witness


def random_equivariant(rng, g: FiniteGroupoid | None = None,
                       max_dim: int = 2) -> EquivariantMap:
    """Equivariant map between weak representations, as the image of a
    random gauge morphism."""
    r_target = random_ruth(rng, g, max_dim)
    m = random_ruth_morphism(rng, r_target)
    return wrep_from_ruth_morphism(m, validate=False)


# -- mutations ---------------------------------------------------------------------

def mutate_groupoid_comp(rng, g: FiniteGroupoid):
    pairs = sorted(g.comp)
    pair = pairs[rng.randrange(len(pairs))]
    old = g.comp[pair]
    others = [a for a in g.arrows if a != old]
    if not others:
        return None
    new_comp = dict(g.comp)
    new_comp[pair] = rng.choice(others)
    return replace(g, comp=new_comp), f"compose[{pair}] {old} -> {new_comp[pair]}"


def sites(obj, *groups, units: str | None = None) -> list[tuple[str, object]]:
    """The ``(path, key)`` of every nonempty map in the named tables of ``obj``.

    A path names a table field of ``obj`` or, dotted, of a record inside it.
    A group is a path, or a tuple of paths whose tables share keys, run key
    by key in the first table's own order.  With ``units``, the path of a
    groupoid, only keys that are a unit arrow, or a pair holding one, count."""
    g = attrgetter(units)(obj) if units else None
    out = []
    for group in groups:
        paths = (group,) if isinstance(group, str) else group
        tables = [attrgetter(path)(obj) for path in paths]
        for key in tables[0]:
            if g is None or any(map(g.is_unit, key if isinstance(key, tuple) else (key,))):
                out += [(p, key) for p, t in zip(paths, tables) if t[key].rows and t[key].cols]
    return out


def bumped(obj, path: str, key, i: int, j: int, delta):
    """``obj`` with ``delta`` added at entry (i, j) of the map at ``key`` of
    its table at ``path``.  Each record on the path is rebuilt by
    ``dataclasses.replace`` and runs its checks again, raising StructureError
    when the bump leaves it unrepresentable."""
    name, _, rest = path.partition(".")
    if rest:
        return replace(obj, **{name: bumped(getattr(obj, name), rest, key, i, j, delta)})
    table = getattr(obj, name)
    m = table[key]
    return replace(obj, **{name: {**table, key: m.with_entry(i, j, m.entry(i, j) + delta)}})


def _family(*groups, units: str | None = None):
    """The mutator that bumps one entry of one map at :func:`sites` by 1, -1
    or 2, labelled by the table's last name; None when no site is left, or
    when the bump leaves the structure unrepresentable."""
    def mutate(rng, obj):
        found = sites(obj, *groups, units=units)
        if not found:
            return None
        path, key = found[rng.randrange(len(found))]
        m = attrgetter(path)(obj)[key]
        i, j = rng.randrange(m.rows), rng.randrange(m.cols)
        delta = Fraction(rng.choice((1, -1, 2)))
        try:
            built = bumped(obj, path, key, i, j, delta)
        except StructureError:
            return None
        return built, f"{path.rpartition('.')[2]}[{key}] entry {(i, j, delta)}"
    return mutate


# Unitality and normalization read λ0 and λ1 at a unit, and ω at a pair holding one.
mutate_ruth_unit_cell = _family(("lambda0", "lambda1"), "omega", units="groupoid")

# Free: any quasi-action, ω or differential entry, for detector-equivalence runs.
mutate_ruth_entry = _family(("lambda0", "lambda1"), "omega", "complex.diff")

# The axiom sweep pins every multiplication matrix and unit section.
mutate_vb_cell = _family("mult", "utilde")

# Free: a source, target or inverse map; one that resizes a fibered product gives None.
mutate_vb_entry = _family(("stilde", "ttilde", "inv_map"))

# The unit coherences read the associator at a pair holding a unit directly.
mutate_wrep_alpha_unit = _family("alpha", units="groupoid")

# Free: the action on objects or arrows.
mutate_wrep_entry = _family(("a0", "a1"))

# Free: the object or arrow component.
mutate_equivariant_entry = _family(("f0", "f1"))

# The unit triangle reads the equivariance cell at a unit arrow directly.
mutate_equivariant_delta_unit = _family("delta", units="source.groupoid")
