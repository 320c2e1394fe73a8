"""JSON instance files.

Every kind serializes to a self-contained payload; an instance file wraps
one payload with its kind tag and metadata.  Scalars are strings "p/q"
(denominator omitted when 1), matrices are {rows, cols, entries} row-major,
pair-indexed tables are sorted lists of [key..., matrix].  All dumps sort
keys, so identical content is byte-identical.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import RuthVBError, StructureError, UsageError
from ..groupoid import FiniteGroupoid
from ..linalg import MAX_DIM, json_int, map_from_dict, map_to_dict
from ..ruth import Ruth, RuthMorphism
from ..twoterm import TwoTermComplex
from ..vb import VBGroupoid
from ..weak import EquivariantMap, WeakRepresentation

KINDS = ("groupoid", "complex", "ruth", "morphism", "vb", "wrep", "equivariant")

# The largest nerve degree a groupoid file may allow; the default is 4.
MAX_DEGREE = 8


def groupoid_to_dict(g: FiniteGroupoid) -> dict:
    return {
        "objects": list(g.objects),
        "arrows": [{"id": a, "src": g.src[a], "tgt": g.tgt[a]} for a in g.arrows],
        "units": {x: g.unit[x] for x in g.objects},
        "compose": sorted([g1, g2, g12] for (g1, g2), g12 in g.comp.items()),
        "inverse": {a: g.inv[a] for a in g.arrows},
        "max_degree": g.max_degree,
    }


def groupoid_from_dict(d: dict) -> FiniteGroupoid:
    arrows = d["arrows"]
    return FiniteGroupoid(
        objects=d["objects"],
        arrows=[a["id"] for a in arrows],
        src={a["id"]: a["src"] for a in arrows},
        tgt={a["id"]: a["tgt"] for a in arrows},
        unit=d["units"],
        comp={(g1, g2): g12 for g1, g2, g12 in d["compose"]},
        inv=d["inverse"],
        max_degree=json_int(d.get("max_degree", 4), "max_degree", MAX_DEGREE),
    )


def complex_to_dict(c: TwoTermComplex) -> dict:
    return {
        "base": list(c.base),
        "dims0": {x: c.dim0[x] for x in c.base},
        "dims1": {x: c.dim1[x] for x in c.base},
        "diff": {x: map_to_dict(c.diff[x]) for x in c.base},
    }


def complex_from_dict(d: dict) -> TwoTermComplex:
    return TwoTermComplex(
        base=d["base"],
        dim0={x: json_int(v, f"dims0 at {x}", MAX_DIM) for x, v in d["dims0"].items()},
        dim1={x: json_int(v, f"dims1 at {x}", MAX_DIM) for x, v in d["dims1"].items()},
        diff={x: map_from_dict(m) for x, m in d["diff"].items()},
    )


def _pairs_to_list(table) -> list:
    return sorted([[g1, g2, map_to_dict(m)] for (g1, g2), m in table.items()])


def _pairs_from_list(items) -> dict:
    return {(g1, g2): map_from_dict(m) for g1, g2, m in items}


def ruth_to_dict(r: Ruth) -> dict:
    return {
        "groupoid": groupoid_to_dict(r.groupoid),
        "complex": complex_to_dict(r.complex),
        "lambda0": {a: map_to_dict(m) for a, m in sorted(r.lambda0.items())},
        "lambda1": {a: map_to_dict(m) for a, m in sorted(r.lambda1.items())},
        "omega": _pairs_to_list(r.omega),
    }


def ruth_from_dict(d: dict) -> Ruth:
    return Ruth(
        groupoid_from_dict(d["groupoid"]),
        complex_from_dict(d["complex"]),
        {a: map_from_dict(m) for a, m in d["lambda0"].items()},
        {a: map_from_dict(m) for a, m in d["lambda1"].items()},
        _pairs_from_list(d["omega"]),
    )


def morphism_to_dict(m: RuthMorphism) -> dict:
    return {
        "source": ruth_to_dict(m.source),
        "target": ruth_to_dict(m.target),
        "phi0": {x: map_to_dict(f) for x, f in sorted(m.phi0.items())},
        "phi1": {x: map_to_dict(f) for x, f in sorted(m.phi1.items())},
        "mu": {a: map_to_dict(f) for a, f in sorted(m.mu.items())},
    }


def morphism_from_dict(d: dict) -> RuthMorphism:
    return RuthMorphism(
        ruth_from_dict(d["source"]),
        ruth_from_dict(d["target"]),
        {x: map_from_dict(f) for x, f in d["phi0"].items()},
        {x: map_from_dict(f) for x, f in d["phi1"].items()},
        {a: map_from_dict(f) for a, f in d["mu"].items()},
    )


def vb_to_dict(v: VBGroupoid) -> dict:
    return {
        "groupoid": groupoid_to_dict(v.base),
        "objdim": {x: v.objdim[x] for x in v.base.objects},
        "arrdim": {a: v.arrdim[a] for a in v.base.arrows},
        "stilde": {a: map_to_dict(m) for a, m in sorted(v.stilde.items())},
        "ttilde": {a: map_to_dict(m) for a, m in sorted(v.ttilde.items())},
        "utilde": {x: map_to_dict(m) for x, m in sorted(v.utilde.items())},
        "inverse": {a: map_to_dict(m) for a, m in sorted(v.inv_map.items())},
        "mult": _pairs_to_list(v.mult),
    }


def vb_from_dict(d: dict) -> VBGroupoid:
    return VBGroupoid(
        groupoid_from_dict(d["groupoid"]),
        {x: json_int(n, f"objdim at {x}", MAX_DIM) for x, n in d["objdim"].items()},
        {a: json_int(n, f"arrdim at {a}", MAX_DIM) for a, n in d["arrdim"].items()},
        {a: map_from_dict(m) for a, m in d["stilde"].items()},
        {a: map_from_dict(m) for a, m in d["ttilde"].items()},
        {x: map_from_dict(m) for x, m in d["utilde"].items()},
        {a: map_from_dict(m) for a, m in d["inverse"].items()},
        _pairs_from_list(d["mult"]),
    )


def wrep_to_dict(w: WeakRepresentation) -> dict:
    return {
        "groupoid": groupoid_to_dict(w.groupoid),
        "bundle": vb_to_dict(w.bundle),
        "a0": {a: map_to_dict(m) for a, m in sorted(w.a0.items())},
        "a1": {a: map_to_dict(m) for a, m in sorted(w.a1.items())},
        "alpha": _pairs_to_list(w.alpha),
    }


def wrep_from_dict(d: dict) -> WeakRepresentation:
    return WeakRepresentation(
        groupoid_from_dict(d["groupoid"]),
        vb_from_dict(d["bundle"]),
        {a: map_from_dict(m) for a, m in d["a0"].items()},
        {a: map_from_dict(m) for a, m in d["a1"].items()},
        _pairs_from_list(d["alpha"]),
    )


def equivariant_to_dict(e: EquivariantMap) -> dict:
    return {
        "source": wrep_to_dict(e.source),
        "target": wrep_to_dict(e.target),
        "f0": {x: map_to_dict(m) for x, m in sorted(e.f0.items())},
        "f1": {x: map_to_dict(m) for x, m in sorted(e.f1.items())},
        "delta": {a: map_to_dict(m) for a, m in sorted(e.delta.items())},
    }


def equivariant_from_dict(d: dict) -> EquivariantMap:
    return EquivariantMap(
        wrep_from_dict(d["source"]),
        wrep_from_dict(d["target"]),
        {x: map_from_dict(m) for x, m in d["f0"].items()},
        {x: map_from_dict(m) for x, m in d["f1"].items()},
        {a: map_from_dict(m) for a, m in d["delta"].items()},
    )


_TO = {
    "groupoid": groupoid_to_dict,
    "complex": complex_to_dict,
    "ruth": ruth_to_dict,
    "morphism": morphism_to_dict,
    "vb": vb_to_dict,
    "wrep": wrep_to_dict,
    "equivariant": equivariant_to_dict,
}

_FROM = {
    "groupoid": groupoid_from_dict,
    "complex": complex_from_dict,
    "ruth": ruth_from_dict,
    "morphism": morphism_from_dict,
    "vb": vb_from_dict,
    "wrep": wrep_from_dict,
    "equivariant": equivariant_from_dict,
}


def instance_to_dict(kind: str, obj: Any, metadata: dict | None = None) -> dict:
    if kind not in KINDS:
        raise UsageError(f"unknown kind {kind!r}")
    return {"kind": kind, "payload": _TO[kind](obj), "metadata": metadata or {}}


def dumps_instance(kind: str, obj: Any, metadata: dict | None = None) -> str:
    return json.dumps(instance_to_dict(kind, obj, metadata),
                      sort_keys=True, indent=2) + "\n"


def load_instance(text: str, expect_kind: str | None = None):
    """Parse an instance file; returns (kind, object, metadata).

    Raises StructureError for malformed payloads and UsageError for an
    unexpected kind; JSON syntax errors propagate as ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "kind" not in doc or "payload" not in doc:
        raise StructureError("instance file needs 'kind' and 'payload' fields")
    kind = doc["kind"]
    if kind not in KINDS:
        raise StructureError(f"unknown kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise UsageError(f"expected kind {expect_kind!r}, file is {kind!r}")
    try:
        obj = _FROM[kind](doc["payload"])
    except StructureError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError,
            RuthVBError) as exc:
        raise StructureError(f"malformed {kind} payload: {exc}") from exc
    return kind, obj, doc.get("metadata", {})
