"""The fused block products against their unfused expressions.

``VBGroupoid.multiply``, ``ActionChart.encode`` and ``ActionChart.decode``
each make one ``LinearMap.split_product``: the operator times the two
stacked blocks, split after the residual rows, without building the stack.
Every call they get while the validators and conversions run on the
fixtures, on a seeded pool and on free mutants is run here a second time
through the unfused expression, ``operator @ vstack(...)`` then ``split``,
and the two must give the same numerators over the same denominators; for
``VBGroupoid.product`` and ``encode`` on pairs that do not compose, the
same ``CompositionError`` text.
"""

import random

import pytest

from ruthvb import linalg
from ruthvb.errors import CompositionError, RuthVBError
from ruthvb.harness import fixtures, generators as gen
from ruthvb.semidirect import semidirect
from ruthvb.vb import VBGroupoid, validate_vb
from ruthvb.weak import (ActionChart, WeakRepresentation, action_groupoid_bundle,
                         validate_weak_representation)
from ruthvb.equivalences import vb_to_wrep, wrep_from_ruth


def _unfused_multiply(v, g1, g2, left, right):
    out = v.pair_operator(g1, g2) @ linalg.vstack(left, right)
    return out.split(v.objdim[v.base.src[g1]])


def _unfused_product(v, g1, g2, left, right):
    residual, out = _unfused_multiply(v, g1, g2, left, right)
    if any(residual.nums):
        raise CompositionError(f"vectors over ({g1},{g2}) are not composable")
    return out


def _unfused_encode(chart, a, x, k):
    residual, coords = (chart.encoder[a] @ linalg.vstack(x, k)).split(chart.residual_rows[a])
    if any(residual.nums):
        raise CompositionError(f"pair over {a} violates the fiber constraint")
    return coords


def _unfused_decode(chart, a, coords):
    return (chart.decoder[a] @ coords).split(chart.object_rows[a])


UNFUSED = {(VBGroupoid, "multiply"): _unfused_multiply,
           (VBGroupoid, "product"): _unfused_product,
           (ActionChart, "encode"): _unfused_encode,
           (ActionChart, "decode"): _unfused_decode}


def _forms(out):
    return [(m.rows, m.cols, m.nums, m.den) for m in (out if isinstance(out, tuple) else (out,))]


@pytest.fixture
def calls(monkeypatch):
    """Each fused method, wrapped to log (name, arguments, its outcome, the
    unfused outcome) per call; an outcome is the forms of the maps returned
    or the text of the CompositionError raised."""
    log = []
    for (cls, name), unfused in UNFUSED.items():
        def both(self, *args, fused=getattr(cls, name), unfused=unfused, name=name):
            try:
                want = "returns", _forms(unfused(self, *args))
            except CompositionError as error:
                want = "raises", str(error)
            try:
                out = fused(self, *args)
            except CompositionError as error:
                log.append((name, args, ("raises", str(error)), want))
                raise
            log.append((name, args, ("returns", _forms(out)), want))
            return out

        monkeypatch.setattr(cls, name, both)
    return log


def _instances():
    """The fixtures, a seeded pool of representations as VB-groupoids and
    weak representations, scrambled VB-groupoids and weak representations,
    and a free single-entry mutant of each VB-groupoid and weak
    representation."""
    out = []
    for kind, build in fixtures.FIXTURES.values():
        obj = build()
        if kind == "ruth":
            out += [semidirect(obj, validate=False), wrep_from_ruth(obj, validate=False)]
        elif kind in ("vb", "wrep"):
            out.append(obj)
    rng = random.Random(2017)
    for i in range(12):
        g = gen.random_groupoid(rng, 3, 6)
        r = gen.random_ruth(rng, g, max_dim=2)
        out += [semidirect(r), wrep_from_ruth(r), gen.random_vb(rng, g, max_dim=2),
                gen.random_wrep(rng, g, max_dim=2)]
    for obj in list(out):
        mutate = gen.mutate_vb_entry if isinstance(obj, VBGroupoid) else gen.mutate_wrep_entry
        mutant = mutate(rng, obj)
        if mutant is not None:
            out.append(mutant[0])
    return out


def _run(obj):
    """The validator of obj and the conversion that builds on it, which on a
    mutant may stop at a pair that does not compose."""
    if isinstance(obj, WeakRepresentation):
        validate_weak_representation(obj)
        convert = action_groupoid_bundle
    else:
        validate_vb(obj)
        convert = lambda v: vb_to_wrep(v, validate=False)  # noqa: E731
    try:
        convert(obj)
    except RuthVBError:
        pass


def test_fused_products_equal_the_unfused_expressions(calls):
    instances = _instances()
    assert {type(o) for o in instances} == {VBGroupoid, WeakRepresentation}
    for obj in instances:
        _run(obj)
    for name, args, got, want in calls:
        assert got == want, (name, args[0])
    counts = {name: sum(c[0] == name for c in calls) for _, name in UNFUSED}
    assert min(counts.values()) > 0, counts
    # columns that do not compose, in multiply's residual and as raised errors
    assert any(name == "multiply" and any(got[1][0][2]) for name, _, got, _ in calls)
    raised = {name for name, _, got, _ in calls if got[0] == "raises"}
    assert raised == {"product", "encode"}
    # blocks over different denominators, which the kernel scales
    assert any(name == "multiply" and args[2].den != args[3].den
               for name, args, _, _ in calls)
