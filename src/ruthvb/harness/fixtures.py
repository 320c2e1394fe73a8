"""Canonical fixture set: the shared anchors used across tests and shipped
as JSON instance files."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

from ..groupoid import FiniteGroupoid, pair_groupoid, z2_groupoid
from ..linalg import LinearMap
from ..ruth import Ruth
from ..semidirect import semidirect
from ..twoterm import TwoTermComplex
from ..equivalences import wrep_from_ruth
from . import serialize
from .generators import scramble_vb


def pair_groupoid_xy() -> FiniteGroupoid:
    return pair_groupoid(["x", "y"])


def line_complex_over_point(delta=0) -> TwoTermComplex:
    return TwoTermComplex(["*"], {"*": 1}, {"*": 1}, {"*": LinearMap.from_rows([[delta]])})


def _z2_line_ruth(lambda0_g, lambda1_g, diff, omega_gg) -> Ruth:
    """Z2 on a line in each degree: g acts by ``lambda0_g`` and ``lambda1_g``
    on the two layers over the differential ``diff``, and the transformation
    cochain is ``omega_gg`` at (g, g) and zero elsewhere."""
    one, zero = LinearMap.identity(1), LinearMap.zero(1, 1)
    line = lambda c: LinearMap.from_rows([[c]])
    return Ruth(
        z2_groupoid(), line_complex_over_point(diff),
        lambda0={"e": one, "g": line(lambda0_g)},
        lambda1={"e": one, "g": line(lambda1_g)},
        omega={("e", "e"): zero, ("e", "g"): zero, ("g", "e"): zero,
               ("g", "g"): line(omega_gg)})


def z2_ruth(omega) -> Ruth:
    """One-dimensional representation of Z2 with both layers acting by -1,
    zero differential, and a free transformation parameter at (g, g).
    Valid for every rational value of the parameter."""
    return _z2_line_ruth(-1, -1, 0, omega)


def z2_ruth_broken4() -> Ruth:
    """Mutant of z2_ruth(1) with the layer-1 action flipped to +1: the
    fourth identity fails at (g, g, g) and nowhere else."""
    r = z2_ruth(1)
    return replace(r, lambda1={**r.lambda1, "g": LinearMap.identity(1)})


def sign_twisted_ruth() -> Ruth:
    """Valid representation of Z2 with layers acting by opposite signs and
    zero differential.  Here the transformation cochain is rigid (the
    fourth identity forces it to vanish), which makes this the right
    fixture for pentagon-breaking mutations."""
    return _z2_line_ruth(1, -1, 0, 0)


def stretched_line_ruth() -> Ruth:
    """Representation of Z2 with both layers acting by 2 and identity
    differential: the transformation cochain is forced to be -3 at (g, g),
    so sign flips in derived structures genuinely break validity."""
    return _z2_line_ruth(2, 2, 1, -3)


def pair_strict_ruth() -> Ruth:
    """Strict representation of the pair groupoid: identity actions with a
    constant differential, nonzero in both degrees."""
    g = pair_groupoid_xy()
    d = LinearMap.from_rows([[1], [2]])
    complex_ = TwoTermComplex(g.objects, {x: 1 for x in g.objects},
                              {x: 2 for x in g.objects},
                              {x: d for x in g.objects})
    return Ruth(
        g, complex_,
        lambda0={a: LinearMap.identity(1) for a in g.arrows},
        lambda1={a: LinearMap.identity(2) for a in g.arrows},
        omega={pair: LinearMap.zero(1, 2) for pair in g.comp})


FIXTURE_SEED = 20240

# name -> (kind, builder)
FIXTURES = {
    "z2": ("groupoid", z2_groupoid),
    "pair": ("groupoid", pair_groupoid_xy),
    "z2-ruth-0": ("ruth", lambda: z2_ruth(0)),
    "z2-ruth-1": ("ruth", lambda: z2_ruth(1)),
    "z2-ruth-broken4": ("ruth", z2_ruth_broken4),
    "pair-strict-ruth": ("ruth", pair_strict_ruth),
    "z2-ruth-1-semidirect": ("vb", lambda: semidirect(z2_ruth(1))),
    "pair-strict-semidirect": ("vb", lambda: semidirect(pair_strict_ruth())),
    "z2-ruth-1-wrep": ("wrep", lambda: wrep_from_ruth(z2_ruth(1))),
    "pair-strict-wrep": ("wrep", lambda: wrep_from_ruth(pair_strict_ruth())),
    "z2-ruth-1-vb-scrambled": (
        "vb",
        lambda: scramble_vb(random.Random(FIXTURE_SEED),
                            semidirect(z2_ruth(1)))[0]),
    "pair-strict-vb-scrambled": (
        "vb",
        lambda: scramble_vb(random.Random(FIXTURE_SEED + 1),
                            semidirect(pair_strict_ruth()))[0]),
}


def fixture(name: str):
    kind, builder = FIXTURES[name]
    return kind, builder()


def write_fixture_files(directory) -> list[Path]:
    """Write the canonical fixture set as instance files; deterministic."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (kind, builder) in sorted(FIXTURES.items()):
        path = directory / f"{name}.json"
        path.write_text(serialize.dumps_instance(
            kind, builder(), metadata={"fixture": name, "seed": FIXTURE_SEED}))
        written.append(path)
    return written
