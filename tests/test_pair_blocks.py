"""Identity 4 and the pentagon, checked per composable pair, against the
per-triple loops they replace.

``validate_ruth`` checks identity 4 and ``validate_weak_representation``
the pentagon on one row block per composable pair (g1, g2), whose columns
run over every g3 after the pair in the nerve, and cut a failing block
back into its g3 column blocks.  The references below are the loops they
replace, one composable triple at a time.  The validators must report the
same entries (check, location, expected, actual) in the same order, on
the representation pool and its weak representations, on their mutants,
on instances with zero-dimensional fibers, and over groupoids whose
composition table is given out of nerve order.
"""

import random
from itertools import groupby
from operator import itemgetter

from ruthvb.equivalences import wrep_from_ruth
from ruthvb.groupoid import FiniteGroupoid, cyclic_groupoid, pair_groupoid
from ruthvb.harness import generators as gen
from ruthvb.reports import ColumnCheck, Report
from ruthvb.ruth import Ruth, validate_ruth
from ruthvb.weak import validate_weak_representation

from test_acceptance import ruth_pool


def reference_identity_4(r):
    """Identity 4 one composable triple at a time."""
    g, rep = r.groupoid, Report("ruth")
    for (g1, g2, g3) in g.nerve_tuples(3):
        total = (r.lambda0[g1] @ r.omega[(g2, g3)]
                 - r.omega[(g.comp[(g1, g2)], g3)]
                 + r.omega[(g1, g.comp[(g2, g3)])]
                 - r.omega[(g1, g2)] @ r.lambda1[g3])
        if not total.is_zero():
            rep.add("identity-4", f"({g1},{g2},{g3})", "zero", repr(total))
    return _entries(rep)


def reference_pentagon(w):
    """The pentagon one composable triple at a time."""
    g, rep = w.groupoid, Report("weak-representation")
    for (g1, g2, g3) in g.nerve_tuples(3):
        g12, g23 = g.comp[(g1, g2)], g.comp[(g2, g3)]
        t1 = g.tgt[g1]
        r_want, want = w.bundle.multiply(t1, t1, w.alpha[(g12, g3)], w.alpha[(g1, g2)] @ w.a0[g3])
        r_got, got = w.bundle.multiply(t1, t1, w.alpha[(g1, g23)], w.a1[g1] @ w.alpha[(g2, g3)])
        rep.expect_columns(f"({g1},{g2},{g3})", [
            ColumnCheck("pentagon", want, got, (r_want, r_got), "composable cells")])
    return _entries(rep)


def _entries(report):
    return [(e.check, e.location, e.expected, e.actual) for e in report.entries]


# The checks validate_weak_representation runs after the pentagon.
AFTER_PENTAGON = {"unit-coherence-right", "unit-coherence-left"}


def _compare(obj):
    """Assert that obj's report is its report with the per-triple family in
    the place the loop held: last for identity 4, before the unit
    coherences for the pentagon.  Returns the family's entries."""
    if isinstance(obj, Ruth):
        got = _entries(validate_ruth(obj))
        family = reference_identity_4(obj)
        want = [e for e in got if e[0] != "identity-4"] + family
    else:
        got = _entries(validate_weak_representation(obj))
        family = reference_pentagon(obj)
        want = ([e for e in got if e[0] not in AFTER_PENTAGON | {"pentagon"}] + family
                + [e for e in got if e[0] in AFTER_PENTAGON])
    assert got == want
    return family


def _mutants(rng, obj, mutators, draws=2):
    for mutate in mutators * draws:
        result = mutate(rng, obj)
        if result is not None:
            yield result[0]


def _reordered(g):
    """g with its composition table given in reverse nerve order."""
    pairs = g.nerve_tuples(2)
    return FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit,
                          {p: g.comp[p] for p in reversed(pairs)}, g.inv)


def _instances():
    """The pool, its weak representations, their mutants, instances with
    zero-dimensional fibers and instances over reordered composition tables;
    with the number of mutants."""
    rng = random.Random("pair-blocks")
    ruths = list(ruth_pool())
    for seed in range(12):
        base = (pair_groupoid(["x", "y", "z"]), cyclic_groupoid(4))[seed % 2]
        ruths.append(gen.random_ruth(rng, base, max_dim=1))
        ruths.append(gen.random_ruth(rng, _reordered(base), max_dim=2))
    mutants = 0
    for r in ruths:
        w = wrep_from_ruth(r, validate=False)
        yield r
        yield w
        for m in _mutants(rng, r, [gen.mutate_ruth_entry, gen.mutate_ruth_unit_cell]):
            mutants += 1
            yield m
            yield wrep_from_ruth(m, validate=False)
        for m in _mutants(rng, w, [gen.mutate_wrep_entry, gen.mutate_wrep_alpha_unit]):
            mutants += 1
            yield m
    assert mutants >= 300


def _has_empty_fiber(obj):
    if isinstance(obj, Ruth):
        return 0 in {*obj.complex.dim0.values(), *obj.complex.dim1.values()}
    return 0 in {*obj.bundle.objdim.values(), *obj.bundle.arrdim.values()}


def test_pair_blocks_report_as_the_per_triple_loops():
    """Equal reports on every instance; some fail identity 4 and some the
    pentagon at only part of a pair's triples, some pentagon columns are
    not composable, and some instances have an empty fiber or a composition
    table out of nerve order."""
    partial = {"identity-4": 0, "pentagon": 0}
    not_composable = empty = reordered = 0
    for obj in _instances():
        family = _compare(obj)
        locations = {e[1].split(" ")[0] for e in family}
        for (g1, g2), triples in groupby(obj.groupoid.nerve_tuples(3), itemgetter(0, 1)):
            hit = [f"({g1},{g2},{g3})" in locations for _, _, g3 in triples]
            if any(hit) and not all(hit):
                partial[family[0][0]] += 1
                break
        not_composable += any(e[3] == "not composable" for e in family)
        empty += _has_empty_fiber(obj)
        reordered += list(obj.groupoid.comp) != list(obj.groupoid.nerve_tuples(2))
    assert all(partial.values()) and not_composable and empty and reordered


def test_identity_4_and_pentagon_report_each_triple_of_a_failing_pair():
    """A bump of omega at one pair of C4 breaks identity 4 at more than one
    triple of the pair (r1, r2): each is reported at its own location with
    its own block, and a bump of alpha does the same for the pentagon."""
    r = gen.random_ruth(random.Random(9), cyclic_groupoid(4), max_dim=2)
    assert r.complex.dim0["*"] and r.complex.dim1["*"]
    w = wrep_from_ruth(r)
    for obj, path in ((r, "omega"), (w, "alpha")):
        family = _compare(gen.bumped(obj, path, ("r1", "r2"), 0, 0, 1))
        assert len({e[1].split(" ")[0] for e in family if e[1].startswith("(r1,r2,")}) > 1
