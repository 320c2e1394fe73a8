"""Finite groupoids with explicit tables, their nerves, and the axiom checker.

Objects and arrows are opaque string identifiers.  Composition follows the
source/target convention ``comp(g1, g2)`` defined exactly when
``src(g1) == tgt(g2)``; the composite runs g2 first, so nerves list tuples
``(g1, ..., gp)`` with ``src(g_i) == tgt(g_{i+1})``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, groupby
from operator import itemgetter

from . import linalg
from .errors import StructureError
from .reports import Report


@dataclass(repr=False)
class FiniteGroupoid:
    """Explicit groupoid tables.  Well-formedness is enforced at construction;
    the algebraic axioms are checked separately by :func:`validate_groupoid`
    so that deliberately broken fixtures remain representable.  Equality
    compares the tables, not ``max_degree``."""

    objects: tuple[str, ...]
    arrows: tuple[str, ...]
    src: dict[str, str]
    tgt: dict[str, str]
    unit: dict[str, str]
    comp: dict[tuple[str, str], str]
    inv: dict[str, str]
    max_degree: int = field(default=4, compare=False)
    _nerves: dict[int, tuple[tuple[str, ...], ...]] = field(
        default_factory=dict, init=False, compare=False)
    _faces: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = field(
        default_factory=dict, init=False, compare=False)

    def __post_init__(self):
        self.objects = tuple(sorted(self.objects))
        self.arrows = tuple(sorted(self.arrows))
        self.src = dict(self.src)
        self.tgt = dict(self.tgt)
        self.unit = dict(self.unit)
        self.comp = dict(self.comp)
        self.inv = dict(self.inv)
        self._check_well_formed()
        self.unit_arrows = frozenset(self.unit.values())
        self._into = {x: [a for a in self.arrows if self.tgt[a] == x] for x in self.objects}

    def _check_well_formed(self):
        if self.max_degree < 0:
            raise StructureError(f"max_degree must be nonnegative, got {self.max_degree}")
        objs, arrs = set(self.objects), set(self.arrows)
        if len(objs) != len(self.objects) or len(arrs) != len(self.arrows):
            raise StructureError("duplicate identifiers")
        for a in self.arrows:
            if a not in self.src or a not in self.tgt:
                raise StructureError(f"arrow {a} missing src/tgt")
            if self.src[a] not in objs or self.tgt[a] not in objs:
                raise StructureError(f"arrow {a} has unknown endpoint")
            if self.inv.get(a) not in arrs:
                raise StructureError(f"arrow {a} missing or unknown inverse")
        for x in self.objects:
            if self.unit.get(x) not in arrs:
                raise StructureError(f"object {x} missing unit arrow")
        for (g1, g2), g12 in self.comp.items():
            if g1 not in arrs or g2 not in arrs or g12 not in arrs:
                raise StructureError(f"composition entry ({g1},{g2}) uses unknown arrows")
            if self.src[g1] != self.tgt[g2]:
                raise StructureError(f"composition entry ({g1},{g2}) is not composable")
        for g1 in self.arrows:
            for g2 in self.arrows:
                if self.src[g1] == self.tgt[g2] and (g1, g2) not in self.comp:
                    raise StructureError(f"missing composition entry ({g1},{g2})")

    # -- structure maps ------------------------------------------------------

    def is_unit(self, arrow: str) -> bool:
        return arrow in self.unit_arrows

    # -- nerve ---------------------------------------------------------------

    def nerve_tuples(self, p: int) -> tuple[tuple[str, ...], ...]:
        """All composable p-tuples in lexicographic arrow-id order.

        Degree 0 returns one singleton per object (the object id itself).
        """
        if p < 0:
            raise StructureError("nerve degree must be nonnegative")
        if p not in self._nerves:
            if p == 0:
                self._nerves[p] = tuple((x,) for x in self.objects)
            elif p == 1:
                self._nerves[p] = tuple((a,) for a in self.arrows)
            else:
                self._nerves[p] = tuple(tup + (a,) for tup in self.nerve_tuples(p - 1)
                                        for a in self._into[self.src[tup[-1]]])
        return self._nerves[p]

    def face_table(self, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row t: the faces of ``nerve_tuples(k)[t]``, k >= 1, as (index into
        ``nerve_tuples(k - 1)``, sign): face 0 drops the first arrow, face i
        composes arrows i - 1 and i (from 0), face k drops the last, and
        face i has sign (-1)^i; an arrow's faces are its source and target.
        This is the one statement of the simplicial sign convention.  Row
        s + (a,) reads row s: faces i <= k - 2 are those of s extended by a,
        face k - 1 is s[:-1] extended by s[-1] a, and face k is s; a
        composite with the wrong endpoints raises ``StructureError``."""
        if k not in self._faces:
            if k == 1:
                at = {x: j for j, x in enumerate(self.objects)}
                faces = [[at[self.src[a]] for a in self.arrows],
                         [at[self.tgt[a]] for a in self.arrows]]
            else:
                # nerve_tuples(k - 2)[j] + (a,) is nerve_tuples(k - 1)[start[j] + pos[a]]
                if k == 2:  # an object extended by an arrow is the arrow
                    pos, start = {a: i for i, a in enumerate(self.arrows)}, [0] * len(self.objects)
                    if any((self.src[c], self.tgt[c]) != (self.src[a], self.tgt[b])
                           for (b, a), c in self.comp.items()):
                        raise StructureError("a composite has the wrong endpoints")
                else:
                    pos = {a: i for into in self._into.values() for i, a in enumerate(into)}
                    start = [0, *accumulate(len(self._into[self.src[tup[-1]]])
                                            for tup in self.nerve_tuples(k - 2))]
                prev = self.face_table(k - 1)
                ext = [(s, tup[-1], a) for s, tup in enumerate(self.nerve_tuples(k - 1))
                       for a in self._into[self.src[tup[-1]]]]
                faces = [[start[prev[s][i][0]] + pos[a] for s, _, a in ext] for i in range(k - 1)]
                faces += [[start[prev[s][-1][0]] + pos[self.comp[(b, a)]] for s, b, a in ext],
                          [s for s, _, _ in ext]]
            # faces[i][t] is face i of row t; rows share their (index, sign) pairs
            signed = [[(j, sign) for j in range(len(self.nerve_tuples(k - 1)))] for sign in (1, -1)]
            self._faces[k] = tuple(zip(*(map(signed[i % 2].__getitem__, face)
                                         for i, face in enumerate(faces))))
        return self._faces[k]

    def tuple_target(self, tup: tuple[str, ...], degree: int) -> str:
        """t_p: the target of the full composite (the object for degree 0)."""
        return tup[0] if degree == 0 else self.tgt[tup[0]]

    def tuple_source(self, tup: tuple[str, ...], degree: int) -> str:
        return tup[0] if degree == 0 else self.src[tup[-1]]


def validate_groupoid(g: FiniteGroupoid) -> Report:
    """Exhaustive axiom sweep; every violated instance gets a report entry."""
    rep = Report("groupoid")
    for x in g.objects:
        u = g.unit[x]
        if g.src[u] != x or g.tgt[u] != x:
            rep.add("unit-endpoints", f"object {x}",
                    f"src=tgt={x}", f"src={g.src[u]}, tgt={g.tgt[u]}")
    for (g1, g2), g12 in g.comp.items():
        if g.src[g12] != g.src[g2] or g.tgt[g12] != g.tgt[g1]:
            rep.add("composite-endpoints", f"({g1},{g2})",
                    f"src={g.src[g2]}, tgt={g.tgt[g1]}",
                    f"src={g.src[g12]}, tgt={g.tgt[g12]}")
    for a in g.arrows:
        rep.expect("left-unit", a, a, g.comp.get((g.unit[g.tgt[a]], a)))
        rep.expect("right-unit", a, a, g.comp.get((a, g.unit[g.src[a]])))
        b = g.inv[a]
        if g.src[b] != g.tgt[a] or g.tgt[b] != g.src[a]:
            rep.add("inverse-endpoints", a,
                    f"src={g.tgt[a]}, tgt={g.src[a]}",
                    f"src={g.src[b]}, tgt={g.tgt[b]}")
            continue
        rep.expect("right-inverse", a, g.unit[g.tgt[a]], g.comp.get((a, b)))
        rep.expect("left-inverse", a, g.unit[g.src[a]], g.comp.get((b, a)))
    for (g1, g2, g3) in g.nerve_tuples(3):
        rep.expect("associativity", f"({g1},{g2},{g3})",
                   g.comp.get((g.comp[(g1, g2)], g3)), g.comp.get((g1, g.comp[(g2, g3)])))
    return rep


def third_arrow_rows(g: FiniteGroupoid, pair_table: dict,
                     arrow_table: dict) -> tuple[dict, dict]:
    """Row blocks whose columns run over the third arrows of composable
    triples, in nerve order: for each arrow h, the maps ``pair_table[(h,
    g3)]`` side by side over every g3 into src h, and for each object y,
    the maps ``arrow_table[g3]`` over every g3 into y.  A triple's g3 runs
    over the arrows into src g2 in the order ``nerve_tuples(3)`` lists them
    after (g1, g2), which is the order ``nerve_tuples(2)`` lists the pairs
    (g2, g3) in; so the triples of one pair (g1, g2) read one column block
    each of the rows at g2 and at src g2, in their own order."""
    by_arrow, by_object = {}, {}
    for h, pairs in groupby(g.nerve_tuples(2), itemgetter(0)):
        pairs = list(pairs)
        by_arrow[h] = linalg.hstack(*(pair_table[p] for p in pairs))
        y = g.src[h]
        if y not in by_object:
            by_object[y] = linalg.hstack(*(arrow_table[g3] for _, g3 in pairs))
    return by_arrow, by_object


# -- builders ----------------------------------------------------------------

def trivial_groupoid(objects) -> FiniteGroupoid:
    """Unit groupoid on a set: the only arrows are the identities,
    each named after its object."""
    objs = sorted(objects)
    return FiniteGroupoid(
        objects=objs,
        arrows=objs,
        src={x: x for x in objs},
        tgt={x: x for x in objs},
        unit={x: x for x in objs},
        comp={(x, x): x for x in objs},
        inv={x: x for x in objs},
    )


def cyclic_groupoid(n: int) -> FiniteGroupoid:
    """The cyclic group of order n as a groupoid on the one object "*":
    arrow rk is k steps round, r0 is the unit."""
    arrows = [f"r{k}" for k in range(n)]
    return FiniteGroupoid(
        objects=["*"],
        arrows=arrows,
        src={a: "*" for a in arrows},
        tgt={a: "*" for a in arrows},
        unit={"*": "r0"},
        comp={(f"r{i}", f"r{j}"): f"r{(i + j) % n}" for i in range(n) for j in range(n)},
        inv={f"r{i}": f"r{(n - i) % n}" for i in range(n)},
    )


def z2_groupoid() -> FiniteGroupoid:
    """The group Z2 as a one-object groupoid with arrows e, g."""
    return FiniteGroupoid(
        objects=["*"],
        arrows=["e", "g"],
        src={"e": "*", "g": "*"},
        tgt={"e": "*", "g": "*"},
        unit={"*": "e"},
        comp={("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        inv={"e": "e", "g": "g"},
    )


def transitive_groupoid(objects, isotropy: int, prefix: str = "a") -> FiniteGroupoid:
    """Connected groupoid on the given objects with cyclic isotropy.

    Arrow ``{prefix}:{x}>{y}:{k}`` runs x -> y; composition adds the cyclic
    labels.  With one object this is the cyclic group, with isotropy 1 the
    pair groupoid.
    """
    objs = sorted(objects)
    name = lambda x, y, k: f"{prefix}:{x}>{y}:{k}"
    arrows, src, tgt = [], {}, {}
    for x in objs:
        for y in objs:
            for k in range(isotropy):
                a = name(x, y, k)
                arrows.append(a)
                src[a] = x
                tgt[a] = y
    comp = {}
    for g1y in objs:
        for g1t in objs:
            for i in range(isotropy):
                g1 = name(g1y, g1t, i)      # g1: g1y -> g1t
                for g2s in objs:
                    for j in range(isotropy):
                        g2 = name(g2s, g1y, j)   # g2: g2s -> g1y, composable
                        comp[(g1, g2)] = name(g2s, g1t, (i + j) % isotropy)
    return FiniteGroupoid(
        objects=objs,
        arrows=arrows,
        src=src,
        tgt=tgt,
        unit={x: name(x, x, 0) for x in objs},
        comp=comp,
        inv={name(x, y, k): name(y, x, (isotropy - k) % isotropy)
             for x in objs for y in objs for k in range(isotropy)},
    )


def pair_groupoid(objects) -> FiniteGroupoid:
    return transitive_groupoid(objects, isotropy=1, prefix="p")


def disjoint_union(*groupoids: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union; identifiers are prefixed with the component index."""
    objects, arrows, src, tgt, unit, comp, inv = [], [], {}, {}, {}, {}, {}
    for idx, g in enumerate(groupoids):
        tag = lambda s: f"c{idx}.{s}"
        objects.extend(tag(x) for x in g.objects)
        arrows.extend(tag(a) for a in g.arrows)
        src.update({tag(a): tag(g.src[a]) for a in g.arrows})
        tgt.update({tag(a): tag(g.tgt[a]) for a in g.arrows})
        unit.update({tag(x): tag(g.unit[x]) for x in g.objects})
        comp.update({(tag(a), tag(b)): tag(c) for (a, b), c in g.comp.items()})
        inv.update({tag(a): tag(g.inv[a]) for a in g.arrows})
    return FiniteGroupoid(objects, arrows, src, tgt, unit, comp, inv)
