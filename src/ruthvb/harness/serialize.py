"""JSON instance files.

Every kind serializes to a self-contained payload; an instance file wraps
one payload with its kind tag and metadata.  Scalars are strings "p/q"
(denominator omitted when 1), matrices are {rows, cols, entries} row-major,
pair-indexed tables are sorted lists of [key..., matrix].  All dumps sort
keys, so identical content is byte-identical.  Each kind but the groupoid
is one schema, and every codec checks the JSON type of what it reads: a
list field must be an array, a table an object, an identifier a string.
A key stated twice, in an object or a pair-keyed table, is refused.
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial
from typing import Any, Callable, NamedTuple

from ..errors import RuthVBError, StructureError, UsageError
from ..groupoid import FiniteGroupoid
from ..linalg import LinearMap, MAX_DIM, json_int, json_typed, map_from_dict, map_to_dict
from ..ruth import Ruth, RuthMorphism, TwoTermComplex
from ..vb import VBGroupoid
from ..weak import EquivariantMap, WeakRepresentation

# The largest nerve degree a groupoid file may allow; the default is 4.
MAX_DEGREE = 8


class Codec(NamedTuple):
    """How one field is written, and read by ``decode(value, its JSON key,
    read_map)``, where ``read_map`` reads a matrix record of the file."""
    encode: Callable[[Any], Any]
    decode: Callable[[Any, str, Callable[[dict], LinearMap]], Any]


def _ids(value, key: str, none: str) -> list:
    """Identifiers; ``none`` names their absence, refused as vacuous."""
    ids = [json_typed(x, str, f"{key} entry") for x in json_typed(value, list, key)]
    if not ids:
        raise StructureError(f"{none}: a check over it would pass vacuously")
    return ids


def _triples(value, key: str):
    """The [key1, key2, value] entries of a pair-keyed table."""
    return (json_typed(e, list, f"{key} entry") for e in json_typed(value, list, key))


def _table(pairs: list, what: str) -> dict:
    """``dict(pairs)``, refusing a key stated twice where dict() keeps the last."""
    table = dict(pairs)
    if len(table) < len(pairs):
        twice = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise StructureError(f"{what} {twice!r} is stated twice")
    return table


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
    objects = _ids(d["objects"], "objects", "groupoid has no objects")
    arrows = [json_typed(a, dict, "arrows entry") for a in json_typed(d["arrows"], list, "arrows")]
    return FiniteGroupoid(
        objects=objects,
        arrows=[a["id"] for a in arrows],
        src={a["id"]: a["src"] for a in arrows},
        tgt={a["id"]: a["tgt"] for a in arrows},
        unit=json_typed(d["units"], dict, "units"),
        comp=_table([((g1, g2), g12) for g1, g2, g12 in _triples(d["compose"], "compose")],
                    "compose pair"),
        inv=json_typed(d["inverse"], dict, "inverse"),
        max_degree=json_int(d.get("max_degree", 4), "max_degree", MAX_DEGREE),
    )


def _schema(cls, *fields) -> Codec:
    """The codec of a dataclass kind: ``fields`` are (JSON key, codec) pairs,
    one per init field of ``cls`` in order, and are decoded in that order."""
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    columns = list(zip(names, fields, strict=True))

    def encode(obj) -> dict:
        return {key: codec.encode(getattr(obj, name)) for name, (key, codec) in columns}

    def decode(d, key: str, read_map):
        d = json_typed(d, dict, key)
        return cls(*[codec.decode(d[k], k, read_map) for k, codec in fields])

    return Codec(encode, decode)


_BASE = Codec(list, lambda v, key, read_map: _ids(v, key, "complex has no base points"))
_DIMS = Codec(dict, lambda v, key, read_map: {x: json_int(n, f"{key} at {x}", MAX_DIM)
                                              for x, n in json_typed(v, dict, key).items()})
_MAPS = Codec(lambda t: {k: map_to_dict(m) for k, m in t.items()},
              lambda v, key, read_map: {k: read_map(m)
                                        for k, m in json_typed(v, dict, key).items()})
_PAIRS = Codec(lambda t: sorted([g1, g2, map_to_dict(m)] for (g1, g2), m in t.items()),
               lambda v, key, read_map: _table([((g1, g2), read_map(m))
                                                for g1, g2, m in _triples(v, key)],
                                               f"{key} pair"))

_GROUPOID = Codec(groupoid_to_dict,
                  lambda d, key, read_map: groupoid_from_dict(json_typed(d, dict, key)))
_COMPLEX = _schema(TwoTermComplex, ("base", _BASE), ("dims0", _DIMS), ("dims1", _DIMS),
                   ("diff", _MAPS))
_RUTH = _schema(Ruth, ("groupoid", _GROUPOID), ("complex", _COMPLEX), ("lambda0", _MAPS),
                ("lambda1", _MAPS), ("omega", _PAIRS))
_MORPHISM = _schema(RuthMorphism, ("source", _RUTH), ("target", _RUTH), ("phi0", _MAPS),
                    ("phi1", _MAPS), ("mu", _MAPS))
_VB = _schema(VBGroupoid, ("groupoid", _GROUPOID), ("objdim", _DIMS), ("arrdim", _DIMS),
              ("stilde", _MAPS), ("ttilde", _MAPS), ("utilde", _MAPS), ("inverse", _MAPS),
              ("mult", _PAIRS))
_WREP = _schema(WeakRepresentation, ("groupoid", _GROUPOID), ("bundle", _VB), ("a0", _MAPS),
                ("a1", _MAPS), ("alpha", _PAIRS))
_EQUIVARIANT = _schema(EquivariantMap, ("source", _WREP), ("target", _WREP), ("f0", _MAPS),
                       ("f1", _MAPS), ("delta", _MAPS))

_CODECS = {"groupoid": _GROUPOID, "complex": _COMPLEX, "ruth": _RUTH, "morphism": _MORPHISM,
           "vb": _VB, "wrep": _WREP, "equivariant": _EQUIVARIANT}
KINDS = tuple(_CODECS)

# perfbench's input digest writes bare complexes through this name.
complex_to_dict = _COMPLEX.encode


def instance_to_dict(kind: str, obj: Any, metadata: dict | None = None) -> dict:
    if kind not in KINDS:
        raise UsageError(f"unknown kind {kind!r}")
    return {"kind": kind, "payload": _CODECS[kind].encode(obj), "metadata": metadata or {}}


def dumps_instance(kind: str, obj: Any, metadata: dict | None = None) -> str:
    return json.dumps(instance_to_dict(kind, obj, metadata),
                      sort_keys=True, indent=2) + "\n"


def parse_json(text: str, **options):
    """``json.loads`` that refuses, as StructureError, an object key stated
    twice, a document nested deeper than the parser can go, and an integer
    longer than Python converts; a syntax error stays JSONDecodeError."""
    try:
        return json.loads(text, object_pairs_hook=partial(_table, what="object key"), **options)
    except RecursionError:
        raise StructureError("JSON nested too deeply to parse") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise StructureError(f"JSON number not readable: {exc}") from None


def load_instance(text: str, expect_kind: str | None = None):
    """Parse an instance file; returns (kind, object, metadata).

    Raises StructureError for malformed payloads and UsageError for an
    unexpected kind; JSON syntax errors propagate as ValueError.  The
    matrices are read through decode tables that live for this call (see
    :func:`linalg.map_from_dict`): each distinct literal, and each distinct
    record whose entries are all strings, is read once per file, and equal
    records share one map."""
    doc = parse_json(text)
    if not isinstance(doc, dict) or "kind" not in doc or "payload" not in doc:
        raise StructureError("instance file needs 'kind' and 'payload' fields")
    kind = doc["kind"]
    if kind not in KINDS:
        raise StructureError(f"unknown kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise UsageError(f"expected kind {expect_kind!r}, file is {kind!r}")
    try:
        literals, records = {}, {}
        obj = _CODECS[kind].decode(doc["payload"], "payload",
                                   lambda m: map_from_dict(m, literals, records))
    except StructureError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, RuthVBError) as exc:
        raise StructureError(f"malformed {kind} payload: {exc}") from exc
    return kind, obj, doc.get("metadata", {})
