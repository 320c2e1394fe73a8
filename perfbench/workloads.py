"""The benchmark's workloads: seeded input generation, which is set-up, and
the operations the timed loop runs, each with the verdict known from how
its input was made.

Inputs come from ``ruthvb.harness.generators``.  Each slot of a workload
fixes a base groupoid and the fiber dimensions over each object; the seed
fixes the entries.  The cost of an operation depends mostly on those
shapes, so runs with different seeds do comparable work.  A slot's
generator is drawn from successive sub-seeds until it produces the slot's
shape.

Operations reach ``ruthvb`` through module attributes looked up at call
time, so a tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

WORKLOADS = ("validate-desk", "convert-desk", "detect-scale")

MODULES = ("errors", "linalg", "groupoid", "vb", "twoterm", "cochains", "ruth",
           "semidirect", "weak", "equivalences", "harness.serialize",
           "harness.generators")


class Library:
    """The ``ruthvb`` modules the workloads call, by short name."""

    def __init__(self):
        for name in MODULES:
            # ``ruthvb.semidirect`` as an attribute of the package is the
            # function, so go through the import system.
            setattr(self, name.rsplit(".", 1)[-1], importlib.import_module(f"ruthvb.{name}"))


def import_library() -> Library:
    """Import ``ruthvb`` from scratch, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "ruthvb" or n.startswith("ruthvb.")]:
        del sys.modules[name]
    return Library()


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` selects the runner, ``expected`` is the known
    verdict (True for PASS), ``label`` says where the input came from."""
    kind: str
    label: str
    expected: bool
    payload: Any


# -- shapes -------------------------------------------------------------------------

GROUPOIDS = {
    "z2": lambda G: G.z2_groupoid(),
    "c3": lambda G: G.cyclic_groupoid(3),
    "c4": lambda G: G.cyclic_groupoid(4),
    "pair2": lambda G: G.pair_groupoid(["x", "y"]),
    "pair3": lambda G: G.pair_groupoid(["x", "y", "z"]),
    "t2i2": lambda G: G.transitive_groupoid(["x", "y"], 2),
    "z2+z2": lambda G: G.disjoint_union(G.z2_groupoid(), G.z2_groupoid()),
    "z2+pair2": lambda G: G.disjoint_union(G.z2_groupoid(), G.pair_groupoid(["x", "y"])),
}

# (groupoid, fiber dimensions): one (dim0, dim1) pair for every object, or
# one pair per object in the groupoid's object order.  Desk scale keeps
# fibers at dimension 2 or less.  A pass should take about as long as a
# run's timed window, so that the many slots, not repeated passes, give
# the samples: a slot's cost moves with its seed by up to a fifth.
DESK_SLOTS = (
    ("z2", (1, 1)), ("z2", (2, 1)), ("z2", (1, 2)), ("z2", (2, 2)),
    ("c3", (1, 1)), ("c3", (2, 1)), ("c3", (1, 2)),
    ("pair2", (1, 1)), ("pair2", (2, 1)), ("pair2", (1, 2)), ("pair2", (2, 2)),
    ("t2i2", (1, 1)), ("pair3", (1, 1)),
    ("z2+z2", ((2, 1), (1, 2))), ("z2+z2", ((1, 1), (2, 2))),
    ("z2+pair2", ((1, 2), (2, 1), (2, 1))),
)
# A conversion trial costs about twice a validation, so convert-desk runs
# the cheaper part of the desk slots.
CONVERT_SLOTS = (
    ("z2", (1, 1)), ("z2", (2, 1)), ("z2", (1, 2)), ("c3", (1, 1)), ("c3", (1, 2)),
    ("pair2", (1, 1)), ("pair2", (2, 1)), ("pair2", (1, 2)), ("t2i2", (1, 1)),
    ("pair3", (1, 1)), ("z2+z2", ((2, 1), (1, 2))), ("z2+z2", ((1, 1), (2, 2))),
    ("z2+pair2", ((1, 2), (2, 1), (2, 1))),
)
# Above desk scale: the four-arrow and nine-arrow groupoids, with fibers
# up to dimension 3.  Shapes of similar cost, some drawn twice, so that no
# single instance sets the pass time.
DETECT_SLOTS = (("c4", (2, 1)), ("c4", (1, 2)), ("c4", (1, 3)), ("pair3", (1, 1)),
                ("pair3", (1, 2)), ("pair3", (2, 1)),
                ("c4", (2, 1)), ("c4", (1, 2)), ("pair3", (1, 1)))
PHI_BASE = ("p", "q")

SHAPE_ATTEMPTS = 100_000


def _dims(complex_, objects) -> tuple:
    return tuple((complex_.dim0[x], complex_.dim1[x]) for x in objects)


def _want(objects, dims) -> tuple:
    return tuple(dims) if isinstance(dims[0], tuple) else (tuple(dims),) * len(objects)


def _first_shaped(key: str, make, shape, want):
    """The first sub-seed of ``key`` whose generated object has ``shape``
    equal to ``want``; returns the object and the generator's rng, which
    goes on to generate the rest of the slot."""
    for attempt in range(SHAPE_ATTEMPTS):
        rng = random.Random(f"{key}/{attempt}")
        obj = make(rng)
        if shape(obj) == want:
            return obj, rng
    raise RuntimeError(f"no input of shape {want} within {SHAPE_ATTEMPTS} sub-seeds of {key}")


def shaped_ruth(lib: Library, key: str, groupoid: str, dims, max_dim: int):
    """``generators.random_ruth`` with fixed fiber dimensions: a strict
    representation of the wanted shape pulled back along a random gauge."""
    g = GROUPOIDS[groupoid](lib.groupoid)
    gen = lib.generators
    strict, rng = _first_shaped(key, lambda rng: gen.random_strict_ruth(rng, g, max_dim),
                                lambda r: _dims(r.complex, g.objects), _want(g.objects, dims))
    r, _ = lib.ruth.gauge_transport(strict, *gen.random_gauge(rng, strict))
    return r, rng


def slot_instances(lib: Library, rng, r) -> dict:
    """The instances of every kind that the generators derive from one
    representation, as ``random_vb``, ``random_wrep`` and
    ``random_equivariant`` do."""
    gen, eq = lib.generators, lib.equivalences
    return {
        "ruth": r,
        "vb": gen.scramble_vb(rng, lib.semidirect.semidirect(r, validate=False))[0],
        "wrep": eq.wrep_from_ruth(r, validate=False),
        "equivariant": eq.wrep_from_ruth_morphism(gen.random_ruth_morphism(rng, r),
                                                  validate=False),
    }


# -- validate-desk ----------------------------------------------------------------------

VALIDATORS = {
    "groupoid": ("groupoid", "validate_groupoid"),
    "ruth": ("ruth", "validate_ruth"),
    "morphism": ("ruth", "validate_morphism"),
    "vb": ("vb", "validate_vb"),
    "wrep": ("weak", "validate_weak_representation"),
    "equivariant": ("weak", "validate_equivariant"),
}

MUTATIONS = {
    "groupoid": "mutate_groupoid_comp",
    "ruth": "mutate_ruth_unit_cell",
    "vb": "mutate_vb_cell",
    "wrep": "mutate_wrep_alpha_unit",
    "equivariant": "mutate_equivariant_delta_unit",
}


def _validate(lib: Library, text: str) -> bool:
    """What ``ruthvb validate`` does per file: parse, then run the kind's
    validator."""
    kind, obj, _ = lib.serialize.load_instance(text)
    module, func = VALIDATORS[kind]
    return getattr(getattr(lib, module), func)(obj).passed


def _valid_and_mutant(lib: Library, rng, kind: str, obj, label: str) -> list[Op]:
    mutated = getattr(lib.generators, MUTATIONS[kind])(rng, obj)
    if mutated is None:
        raise RuntimeError(f"{label}: the {kind} mutation found no cell to change")
    dump = lib.serialize.dumps_instance
    return [Op("validate", f"{label} {kind}", True, dump(kind, obj)),
            Op("validate", f"{label} {kind} mutant {mutated[1]}", False,
               dump(kind, mutated[0]))]


def build_validate_desk(lib: Library, seed: int, root: Path) -> list[Op]:
    """The 12 fixture files, then every desk groupoid and each slot's four
    instances, each followed by one rigid-family mutant (known FAIL)."""
    ops = [Op("validate", f"fixture {p.name}", "broken" not in p.stem, p.read_text())
           for p in sorted((root / "fixtures").glob("*.json"))]
    for name in sorted({g for g, _ in DESK_SLOTS}):
        rng = random.Random(f"{seed}/validate-desk/groupoid/{name}")
        ops += _valid_and_mutant(lib, rng, "groupoid", GROUPOIDS[name](lib.groupoid),
                                 f"groupoid {name}")
    for i, (groupoid, dims) in enumerate(DESK_SLOTS):
        r, rng = shaped_ruth(lib, f"{seed}/validate-desk/{i}", groupoid, dims, 2)
        for kind, obj in slot_instances(lib, rng, r).items():
            ops += _valid_and_mutant(lib, rng, kind, obj, f"slot {i} {groupoid} {dims}")
    return ops


# -- convert-desk --------------------------------------------------------------------------


def _ruth_vb(lib: Library, r) -> bool:
    sd = lib.semidirect.semidirect(r, validate=False)
    valid = lib.vb.validate_vb(sd).passed
    back = lib.equivalences.ruth_from_wrep(lib.equivalences.vb_to_wrep(sd, validate=False).wrep)
    return valid and back == r


def _vb_wrep(lib: Library, v) -> bool:
    res = lib.equivalences.vb_to_wrep(v, validate=False)
    return lib.weak.validate_weak_representation(res.wrep).passed


def _recovery_witness(lib: Library, w, r):
    """Strictly intertwining equivariant map from the canonical-basis weak
    representation of the recovered structure onto ``w``, as ``ruthvb
    roundtrip --pipeline wrep-ruth`` builds it."""
    compose = lib.linalg.compose
    w2 = lib.equivalences.wrep_from_ruth(r, validate=False)
    _, iso = lib.twoterm.split_bundle(w.bundle)
    g = w.groupoid
    return lib.weak.EquivariantMap(
        w2, w,
        {x: iso.obj_maps[x] for x in g.objects},
        {x: iso.arr_maps[x] for x in g.objects},
        {a: compose(w.fiber_unit(g.tgt[a]), compose(w.a0[a], iso.obj_maps[g.src[a]]))
         for a in g.arrows})


def _wrep_ruth(lib: Library, w) -> bool:
    r = lib.equivalences.ruth_from_wrep(w)
    valid = lib.ruth.validate_ruth(r).passed
    witnessed = lib.weak.validate_equivariant(_recovery_witness(lib, w, r)).passed
    return valid and witnessed


def _triangle(lib: Library, r) -> bool:
    try:
        lib.equivalences.triangle_witness(r, validate=False)
    except lib.errors.RuthVBError:
        return False
    return True


def _phi_hom(lib: Library, inputs) -> bool:
    c, f, h = inputs
    tt = lib.twoterm
    maps = tt.extract_chain_map(tt.phi_onemorphism(f)) == f
    homotopies = tt.extract_homotopy(tt.phi_twomorphism(h)) == h
    c2, iso = tt.split_bundle(tt.phi_object(c))
    split = c2 == c and all(m.is_identity() for m in iso.arr_maps.values())
    return maps and homotopies and split


def _act_ff(lib: Library, e) -> bool:
    phi = lib.weak.act_on_morphism(e, validate=False)
    back = lib.equivalences.reconstruct_equivariant(phi, e.source, e.target)
    same = back == e
    fixed = lib.weak.act_on_morphism(back, validate=False) == phi
    return same and fixed


def _phi_inputs(lib: Library, key: str, dims):
    """Chain map and homotopy between two complexes over two points, both
    complexes with the given dimensions at every point."""
    gen = lib.generators
    want = _want(PHI_BASE, dims)

    def shaped_complex(part):
        return _first_shaped(f"{key}/{part}",
                             lambda rng: gen.random_complex(rng, list(PHI_BASE), 2),
                             lambda c: _dims(c, PHI_BASE), want)

    c, _ = shaped_complex("source")
    d, rng = shaped_complex("target")
    f = gen.random_chain_map(rng, c, d)
    return c, f, gen.random_homotopy_from(rng, f)


def build_convert_desk(lib: Library, seed: int, root: Path) -> list[Op]:
    """Per slot, one trial of each ``roundtrip`` pipeline, interleaved."""
    ops = []
    for i, (groupoid, dims) in enumerate(CONVERT_SLOTS):
        label = f"slot {i} {groupoid} {dims}"
        r, rng = shaped_ruth(lib, f"{seed}/convert-desk/{i}", groupoid, dims, 2)
        inst = slot_instances(lib, rng, r)
        ops += [Op("ruth-vb", label, True, inst["ruth"]),
                Op("vb-wrep", label, True, inst["vb"]),
                Op("wrep-ruth", label, True, inst["wrep"]),
                Op("triangle", label, True, inst["ruth"]),
                Op("phi-hom", f"{label} complexes over {PHI_BASE}", True,
                   _phi_inputs(lib, f"{seed}/convert-desk/{i}/phi", _want(PHI_BASE, dims)[0])),
                Op("act-ff", label, True, inst["equivariant"])]
    return ops


# -- detect-scale ------------------------------------------------------------------------------


def _validate_ruth(lib: Library, r) -> bool:
    return lib.ruth.validate_ruth(r).passed


def _square_is_zero(lib: Library, r) -> bool:
    return lib.ruth.square_is_zero(r).passed


def _semidirect_vb(lib: Library, r) -> bool:
    return lib.vb.validate_vb(lib.semidirect.semidirect(r, validate=False)).passed


def _wrep_from_ruth(lib: Library, r) -> bool:
    w = lib.equivalences.wrep_from_ruth(r, validate=False)
    return lib.weak.validate_weak_representation(w).passed


def build_detect_scale(lib: Library, seed: int, root: Path) -> list[Op]:
    """The four independent detectors on each instance above desk scale.
    None of them stops at a first counterexample."""
    ops = []
    for i, (groupoid, dims) in enumerate(DETECT_SLOTS):
        label = f"slot {i} {groupoid} {dims}"
        r, _ = shaped_ruth(lib, f"{seed}/detect-scale/{i}", groupoid, dims, 3)
        ops += [Op(kind, label, True, r) for kind in
                ("validate_ruth", "square_is_zero", "semidirect+validate_vb",
                 "wrep_from_ruth+validate_weak_representation")]
    return ops


RUNNERS = {
    "validate": _validate,
    "ruth-vb": _ruth_vb,
    "vb-wrep": _vb_wrep,
    "wrep-ruth": _wrep_ruth,
    "triangle": _triangle,
    "phi-hom": _phi_hom,
    "act-ff": _act_ff,
    "validate_ruth": _validate_ruth,
    "square_is_zero": _square_is_zero,
    "semidirect+validate_vb": _semidirect_vb,
    "wrep_from_ruth+validate_weak_representation": _wrep_from_ruth,
}

BUILDS = {
    "validate-desk": build_validate_desk,
    "convert-desk": build_convert_desk,
    "detect-scale": build_detect_scale,
}


def build(lib: Library, name: str, seed: int, root: Path) -> tuple[Op, ...]:
    """Generate the named workload's operations from ``seed``; ``root`` is
    the checkout that holds ``fixtures/``."""
    return tuple(BUILDS[name](lib, seed, root))


def run_op(lib: Library, op: Op, payload) -> bool:
    """True when the operation's verdict matches the known answer."""
    return RUNNERS[op.kind](lib, payload) == op.expected


# -- digest -----------------------------------------------------------------------------------


def _payload_doc(lib: Library, op: Op):
    if isinstance(op.payload, str):
        return op.payload
    if op.kind == "phi-hom":
        c, f, h = op.payload
        to_dict = lib.linalg.map_to_dict
        return {"complex": lib.serialize.complex_to_dict(c),
                "target": lib.serialize.complex_to_dict(f.target),
                "f0": {x: to_dict(m) for x, m in sorted(f.f0.items())},
                "f1": {x: to_dict(m) for x, m in sorted(f.f1.items())},
                "omega": {x: to_dict(m) for x, m in sorted(h.omega.items())}}
    kind = {"Ruth": "ruth", "VBGroupoid": "vb", "WeakRepresentation": "wrep",
            "EquivariantMap": "equivariant"}[type(op.payload).__name__]
    return lib.serialize.instance_to_dict(kind, op.payload)


def digest(lib: Library, ops) -> str:
    """sha256 of every operation with its known verdict and its input in
    canonical JSON: equal digests mean both runs checked the same data."""
    h = hashlib.sha256()
    for op in ops:
        doc = [op.kind, op.label, op.expected, _payload_doc(lib, op)]
        h.update(json.dumps(doc, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
