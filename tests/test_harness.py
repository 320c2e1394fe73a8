"""Instance files, CLI verbs, determinism, and the mutation-kill harness."""

import ast
import contextlib
import copy
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
import types
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ruthvb
from ruthvb import linalg
from ruthvb.errors import RuthVBError, StructureError, UsageError
from ruthvb.harness import cli, fixtures, generators as gen, serialize
from ruthvb.harness.cli import main, run_fuzz
from ruthvb.groupoid import (FiniteGroupoid, cyclic_groupoid, disjoint_union,
                             validate_groupoid, z2_groupoid)
from ruthvb.reports import CheckEntry, Report
from ruthvb.ruth import identity_morphism, validate_ruth
from ruthvb.semidirect import semidirect
from ruthvb.twoterm import identity_chain_map, phi_twomorphism, zero_homotopy
from ruthvb.vb import VBGroupoid, find_unital_connection, identity_vb_map, validate_vb
from ruthvb.weak import identity_equivariant, validate_weak_representation
from ruthvb.equivalences import (ruth_from_wrep, ruth_from_wrep_with_witness,
                                 ruth_morphism_from_wrep_map, vb_to_wrep, wrep_from_ruth,
                                 wrep_from_ruth_morphism)

from test_vb import unit_line_vb

REPO_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_serialization_round_trips():
    rng = random.Random(40)
    for g in (z2_groupoid(), disjoint_union(z2_groupoid(), fixtures.pair_groupoid_xy())):
        r = gen.random_ruth(rng, g, max_dim=2)
        cases = [
            ("groupoid", r.groupoid),
            ("complex", r.complex),
            ("ruth", r),
            ("morphism", gen.random_ruth_morphism(rng, r)),
            ("vb", semidirect(r, validate=False)),
            ("wrep", wrep_from_ruth(r, validate=False)),
            ("equivariant", gen.random_equivariant(rng, g, max_dim=2)),
        ]
        for kind, obj in cases:
            text = serialize.dumps_instance(kind, obj, {"seed": 40})
            kind2, obj2, meta = serialize.load_instance(text)
            assert kind2 == kind and obj2 == obj and meta == {"seed": 40}
            assert serialize.dumps_instance(kind, obj2, meta) == text


# by kind, the JSON keys that differ from the init field they hold
RENAMED_KEYS = {"complex": {"dim0": "dims0", "dim1": "dims1"},
                "vb": {"base": "groupoid", "inv_map": "inverse"}}


def test_each_schema_names_its_class_init_fields_in_order():
    r = fixtures.z2_ruth(1)
    w = wrep_from_ruth(r)
    for kind, obj in [("complex", r.complex), ("ruth", r), ("morphism", identity_morphism(r)),
                      ("vb", semidirect(r)), ("wrep", w),
                      ("equivariant", identity_equivariant(w))]:
        keys = list(serialize.instance_to_dict(kind, obj)["payload"])
        names = [f.name for f in dataclasses.fields(obj) if f.init]
        renamed = RENAMED_KEYS.get(kind, {})
        assert keys == [renamed.get(n, n) for n in names], kind


def _records():
    r = fixtures.z2_ruth(1)
    w, v, f = wrep_from_ruth(r), semidirect(r), identity_chain_map(r.complex)
    h = zero_homotopy(f)
    return [r.complex, r, identity_morphism(r), f, h, v, identity_vb_map(v),
            phi_twomorphism(h), w, identity_equivariant(w), find_unital_connection(v)]


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_a_record_holds_its_own_copy_of_each_table(record):
    """Clearing the dicts passed to the constructor leaves the record equal,
    field by field, to a fresh build from the same tables."""
    args = {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.init}
    passed = {k: dict(a) if isinstance(a, dict) else a for k, a in args.items()}
    built = type(record)(**passed)
    for a in passed.values():
        if isinstance(a, dict):
            a.clear()
    fresh = type(record)(**args)
    assert {k: getattr(built, k) for k in args} == {k: getattr(fresh, k) for k in args}


def test_dump_is_byte_deterministic():
    r = fixtures.z2_ruth(1)
    assert serialize.dumps_instance("ruth", r) == serialize.dumps_instance("ruth", r)


def test_load_rejects_malformed():
    with pytest.raises(Exception):
        serialize.load_instance("{}")
    with pytest.raises(Exception):
        serialize.load_instance(json.dumps({"kind": "nope", "payload": {}}))


def test_repo_fixture_files_exist_and_load():
    for name, (kind, build) in fixtures.FIXTURES.items():
        path = REPO_FIXTURES / f"{name}.json"
        assert path.exists(), f"missing fixture file {path}"
        kind2, obj, _ = serialize.load_instance(path.read_text())
        assert kind2 == kind
        assert obj == build()


def test_cli_fixtures_match_repo_fixtures_byte_for_byte(tmp_path, capsys):
    assert main(["fixtures", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in REPO_FIXTURES.glob("*.json"))
    for name in names:
        assert (tmp_path / name).read_bytes() == (REPO_FIXTURES / name).read_bytes(), name


def _edited_file(tmp_path, doc: dict, edits) -> str:
    """Write ``doc`` with each (payload path, value) of ``edits`` set."""
    for path, value in edits:
        node = doc["payload"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return str(bad)


@pytest.mark.parametrize("path, value", [
    (("complex", "diff", "*", "entries", 0), "1/0"),
    (("groupoid", "max_degree"), -3),
    (("groupoid", "max_degree"), 2.7),
    (("groupoid", "max_degree"), True),
    (("complex", "dims0", "*"), 1.5),
    (("complex", "diff", "*", "rows"), 1.0),
    (("complex", "diff", "*", "entries", 0), False),
    (("complex", "dims0"), [1]),
    (("lambda0",), [1]),
    # Exponent notation: the first parsed and crashed while printing the
    # report, the second ran for minutes building a huge integer.
    (("lambda0", "g", "entries", 0), "1e999999"),
    (("lambda0", "g", "entries", 0), "1e99999999"),
    (("lambda0", "g", "entries", 0), "1" * 257),
])
def test_cli_validate_malformed_payload_exits_2(tmp_path, capsys, path, value):
    doc = json.loads((REPO_FIXTURES / "z2-ruth-1.json").read_text())
    assert main(["validate", _edited_file(tmp_path, doc, [(path, value)])]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1/0", "0/0", "-3/000"])
def test_cli_validate_zero_denominator_names_the_literal(tmp_path, capsys, literal):
    doc = json.loads((REPO_FIXTURES / "z2-ruth-1.json").read_text())
    edits = [(("lambda0", "g", "entries", 0), literal)]
    assert main(["validate", _edited_file(tmp_path, doc, edits)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: malformed ruth payload: {literal!r} has a zero denominator\n")


@pytest.mark.parametrize("name, edits", [
    ("pair", [(("objects",), "xy")]),
    ("z2", [(("units",), ["*e"]), (("inverse",), ["ee", "gg"])]),
    ("z2", [(("compose",), ["eee", "egg", "geg", "gge"])]),
    ("z2-ruth-1", [(("complex", "base"), "*"), (("complex", "diff", "*", "entries"), "0")]),
    ("pair-strict-ruth", [(("complex", "diff", x, "entries"), "12") for x in "xy"]),
], ids=["objects", "units-inverse", "compose", "base-entries", "entries"])
def test_cli_validate_wrongly_typed_field_exits_2(tmp_path, capsys, name, edits):
    """Each edit is a string where the format has a list, or a list where it
    has an object; iterated or passed to dict(), it would read as a valid
    instance."""
    doc = json.loads((REPO_FIXTURES / f"{name}.json").read_text())
    assert main(["validate", _edited_file(tmp_path, doc, edits)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "must be a JSON" in err
    assert "Traceback" not in err


def _one_instance_per_kind() -> dict:
    r = fixtures.z2_ruth(1)
    m = identity_morphism(r)
    objs = {"groupoid": r.groupoid, "complex": r.complex, "ruth": r, "morphism": m,
            "vb": semidirect(r), "wrep": wrep_from_ruth(r),
            "equivariant": wrep_from_ruth_morphism(m)}
    return {kind: serialize.instance_to_dict(kind, obj) for kind, obj in objs.items()}


INSTANCE_DOCS = _one_instance_per_kind()


# max_degree is the one optional field: a groupoid file without it allows degree 4.
@pytest.mark.parametrize("kind, key", [(kind, key) for kind, doc in INSTANCE_DOCS.items()
                                       for key in sorted(doc["payload"]) if key != "max_degree"])
def test_cli_validate_missing_field_exits_2(tmp_path, capsys, kind, key):
    doc = copy.deepcopy(INSTANCE_DOCS[kind])
    del doc["payload"][key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


@pytest.mark.parametrize("name, table, key", [
    ("pair-strict-wrep", "alpha", ["p:x>x:0", "p:x>y:0"]),
    ("pair-strict-ruth", "omega", ["p:x>x:0", "p:x>y:0"]),
    ("pair-strict-ruth", "lambda0", "zz"),
    ("pair-strict-semidirect", "arrdim", "zz"),
    ("pair-strict-semidirect", "objdim", "w"),
    ("z2-ruth-1", "complex.dims0", "q"),
])
def test_cli_validate_stray_table_entry_exits_2(tmp_path, capsys, name, table, key):
    """An entry keyed off its table (a non-composable pair, an unknown
    arrow or object) makes the file malformed, whatever it holds."""
    doc = json.loads((REPO_FIXTURES / f"{name}.json").read_text())
    node = doc["payload"]
    for step in table.split("."):
        node = node[step]
    if isinstance(node, list):
        node.append(key + [node[0][-1]])
    else:
        node[key] = next(iter(node.values()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "outside its table" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["z2-ruth-1", "z2-ruth-1-semidirect", "z2-ruth-1-wrep"])
def test_cli_validate_fails_on_invalid_base_groupoid(tmp_path, capsys, name):
    doc = json.loads((REPO_FIXTURES / f"{name}.json").read_text())
    doc["payload"]["groupoid"]["inverse"]["g"] = "e"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL")
    assert "[right-inverse] at groupoid: g: expected e, got g" in out


def test_cli_validate_repeated_base_point_exits_2(tmp_path, capsys):
    doc = json.loads((REPO_FIXTURES / "z2-ruth-1.json").read_text())
    complex_ = doc["payload"]["complex"]
    complex_["base"] = ["*", "*"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "complex", "payload": complex_, "metadata": {}}))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", [["validate"], ["convert", "--from", "ruth", "--to", "vb"]])
def test_cli_an_integer_too_long_to_convert_exits_2(tmp_path, capsys, verb):
    """Python converts no integer of more than 4,300 digits.  json.dumps
    cannot write one either, so the file is written as text."""
    bad = tmp_path / "long.json"
    bad.write_text('{"kind": "ruth", "payload": {"groupoid": {"max_degree": '
                   + "1" * 5000 + "}}}")
    assert main(verb[:1] + [str(bad)] + verb[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


EMPTY_GROUPOID = {"objects": [], "arrows": [], "units": {}, "compose": [], "inverse": {}}


@pytest.mark.parametrize("kind, payload", [
    ("groupoid", EMPTY_GROUPOID),
    ("ruth", {"groupoid": EMPTY_GROUPOID,
              "complex": {"base": [], "dims0": {}, "dims1": {}, "diff": {}},
              "lambda0": {}, "lambda1": {}, "omega": []}),
])
def test_cli_validate_refuses_a_groupoid_with_no_objects(tmp_path, capsys, kind, payload):
    """Every check over a groupoid with no objects would pass vacuously."""
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({"kind": kind, "payload": payload}))
    assert main(["validate", str(bad)]) == 2
    assert "parse error: groupoid has no objects" in capsys.readouterr().err


def test_cli_validate_refuses_a_complex_with_no_base_points(tmp_path, capsys):
    """Every check over a complex with no base points would pass vacuously."""
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({"kind": "complex", "payload": {
        "base": [], "dims0": {}, "dims1": {}, "diff": {}}}))
    assert main(["validate", str(bad)]) == 2
    assert "parse error: complex has no base points" in capsys.readouterr().err


@pytest.mark.parametrize("name, path", [
    ("z2-ruth-1", ("groupoid", "max_degree")),
    ("z2-ruth-1", ("complex", "dims0", "*")),
    ("z2-ruth-1", ("complex", "dims1", "*")),
    ("z2-ruth-1", ("complex", "diff", "*", "rows")),
    ("z2-ruth-1", ("complex", "diff", "*", "cols")),
    ("z2-ruth-1-semidirect", ("objdim", "*")),
    ("z2-ruth-1-semidirect", ("arrdim", "g")),
])
def test_cli_validate_declared_size_above_bound_exits_2(tmp_path, capsys, name, path):
    bound = serialize.MAX_DEGREE if path[-1] == "max_degree" else linalg.MAX_DIM
    doc = json.loads((REPO_FIXTURES / f"{name}.json").read_text())
    assert main(["validate", _edited_file(tmp_path, doc, [(path, bound + 1)])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and f"is {bound + 1}, above the bound {bound}" in err


def _empty_table_vb(n: int) -> str:
    """z2-ruth-1-semidirect with object fiber dimension n and arrow fibers
    0: every table is an empty n x 0, 0 x n or 0 x 0 matrix, so the file
    has the same size for every n."""
    def empty(rows, cols):
        return {"rows": rows, "cols": cols, "entries": []}

    doc = json.loads((REPO_FIXTURES / "z2-ruth-1-semidirect.json").read_text())
    p = doc["payload"]
    p["objdim"], p["arrdim"] = {"*": n}, {"e": 0, "g": 0}
    p["stilde"] = p["ttilde"] = {a: empty(n, 0) for a in ("e", "g")}
    p["utilde"] = {"*": empty(0, n)}
    p["inverse"] = {a: empty(0, 0) for a in ("e", "g")}
    p["mult"] = [[g1, g2, empty(0, 0)] for g1, g2, _ in p["mult"]]
    return json.dumps(doc)


def test_cli_validate_refuses_a_small_file_declaring_a_large_fiber(tmp_path, capsys):
    """Validating the empty-table file builds n x n maps; one past the
    bound it is refused at parse time, at the bound it is checked."""
    bad = tmp_path / "bad.json"
    bad.write_text(_empty_table_vb(linalg.MAX_DIM + 1))
    assert main(["validate", str(bad)]) == 2
    assert f"objdim at * is {linalg.MAX_DIM + 1}, above the bound" in capsys.readouterr().err
    bad.write_text(_empty_table_vb(linalg.MAX_DIM))
    assert main(["validate", str(bad)]) == 1
    assert "[unit-source] at object *: expected identity" in capsys.readouterr().out


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = REPO_FIXTURES / "z2-ruth-1.json"
    bad = REPO_FIXTURES / "z2-ruth-broken4.json"
    assert main(["validate", str(good)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "identity-4" in out and "(g,g,g)" in out
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["validate", str(junk)]) == 2


def test_cli_validate_json_format(capsys):
    assert main(["validate", str(REPO_FIXTURES / "z2.json"), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"


def test_cli_validate_kind_mismatch(capsys):
    assert main(["validate", str(REPO_FIXTURES / "z2.json"), "--kind", "ruth"]) == 2


def test_cli_convert_chain_and_usage_error(tmp_path, capsys):
    sd = tmp_path / "sd.json"
    w = tmp_path / "w.json"
    r2 = tmp_path / "r2.json"
    src = str(REPO_FIXTURES / "z2-ruth-1.json")
    assert main(["convert", src, "--from", "ruth", "--to", "vb", "--out", str(sd)]) == 0
    assert main(["convert", str(sd), "--from", "vb", "--to", "wrep", "--out", str(w)]) == 0
    assert main(["convert", str(w), "--from", "wrep", "--to", "ruth", "--out", str(r2)]) == 0
    _, back, meta = serialize.load_instance(r2.read_text())
    assert back == fixtures.z2_ruth(1)
    assert meta["conversion"] == "wrep->ruth"
    _, _, meta_w = serialize.load_instance(w.read_text())
    assert "connection" in meta_w
    capsys.readouterr()
    assert main(["convert", src, "--from", "ruth", "--to", "ruth"]) == 2


@pytest.mark.parametrize("argv", [
    lambda tmp: ["convert", str(REPO_FIXTURES / "z2-ruth-1.json"), "--from", "ruth",
                 "--to", "vb", "--out", str(tmp / "missing" / "x.json")],
    lambda tmp: ["fixtures", str(REPO_FIXTURES / "z2.json" / "x")],
], ids=["convert-out", "fixtures-dir"])
def test_cli_unwritable_output_is_a_write_error(tmp_path, capsys, argv):
    """An output that cannot be written, after the input parsed, validated
    and converted, exits 2 as a write error, not as a parse error."""
    assert main(argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("write error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_cli_convert_rejects_invalid_input(capsys):
    bad = str(REPO_FIXTURES / "z2-ruth-broken4.json")
    assert main(["convert", bad, "--from", "ruth", "--to", "vb"]) == 1


def test_cli_refuses_a_vb_whose_source_map_is_not_onto(tmp_path, capsys):
    """validate fails at the arrow whose source map is not onto, and convert
    refuses the file as input instead of failing in the conversion."""
    path = tmp_path / "line.json"
    path.write_text(serialize.dumps_instance("vb", unit_line_vb()))
    assert main(["validate", str(path)]) == 1
    assert "[source-onto] at p:x>y:0: expected rank 1, got rank 0" in capsys.readouterr().out
    assert main(["convert", str(path), "--from", "vb", "--to", "wrep"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"FAIL input vb {path} (")
    assert "[source-onto]" in err


@pytest.mark.parametrize("edits, message", [
    ([(("inverse", "g"), "h")], "arrow g missing or unknown inverse"),
    ([(("compose", 3), ["g", "h", "e"])], "composition entry (g,h) uses unknown arrows"),
], ids=["inverse", "compose-unknown"])
def test_cli_validate_groupoid_with_unknown_arrows_exits_2(tmp_path, capsys, edits, message):
    doc = json.loads((REPO_FIXTURES / "z2.json").read_text())
    assert main(["validate", _edited_file(tmp_path, doc, edits)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_cli_validate_groupoid_without_a_unit_for_an_object_exits_2(tmp_path, capsys):
    doc = json.loads((REPO_FIXTURES / "z2.json").read_text())
    assert main(["validate", _edited_file(tmp_path, doc, [(("units",), {})])]) == 2
    assert capsys.readouterr().err == "parse error: object * missing unit arrow\n"


def test_cli_validate_groupoid_with_a_non_composable_entry_exits_2(tmp_path, capsys):
    doc = json.loads((REPO_FIXTURES / "pair.json").read_text())
    doc["payload"]["compose"].append(["p:x>x:0", "p:x>y:0", "p:x>x:0"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "parse error: composition entry (p:x>x:0,p:x>y:0) is not composable\n")


@pytest.mark.parametrize("verb", [["convert", "--from", "ruth", "--to", "vb"],
                                  ["roundtrip", "--pipeline", "triangle"]])
def test_cli_refuses_an_invalid_input_file_under_its_name(capsys, verb):
    """convert and roundtrip print an invalid input file's report with
    subject ``input <kind> FILE``, and exit 1 before any conversion."""
    bad = str(REPO_FIXTURES / "z2-ruth-broken4.json")
    assert main(verb[:1] + [bad] + verb[1:]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"FAIL input ruth {bad} (")
    assert "[identity-4]" in err


def test_cli_convert_refuses_an_output_that_fails_its_validator(monkeypatch, capsys):
    """A converter whose output fails the target kind's validator makes
    convert print that report, subject ``converted output``, and write
    nothing."""
    broken = semidirect(fixtures.z2_ruth_broken4(), validate=False)
    monkeypatch.setitem(cli.CONVERSIONS, ("ruth", "vb"), lambda r: (broken, {}, None))
    src = str(REPO_FIXTURES / "z2-ruth-1.json")
    assert main(["convert", src, "--from", "ruth", "--to", "vb"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("FAIL converted output (")


@pytest.mark.parametrize("argv, message", [
    (["roundtrip", "z2-ruth-1.json", "--pipeline", "phi-hom"],
     "usage error: pipeline phi-hom does not take an input file"),
    (["report", "z2-ruth-1.json"], "parse error: not a report file"),
])
def test_cli_refuses_a_file_its_verb_does_not_take(capsys, argv, message):
    argv = [str(REPO_FIXTURES / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == message + "\n"


def test_cli_convert_without_out_writes_the_file_to_stdout(tmp_path, capsys):
    src = str(REPO_FIXTURES / "z2-ruth-1.json")
    out = tmp_path / "sd.json"
    assert main(["convert", src, "--from", "ruth", "--to", "vb", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["convert", src, "--from", "ruth", "--to", "vb"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_cli_convert_deterministic(tmp_path):
    src = str(REPO_FIXTURES / "z2-ruth-1.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["convert", src, "--from", "ruth", "--to", "vb", "--out", str(a)])
    main(["convert", src, "--from", "ruth", "--to", "vb", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("pipeline", ["triangle", "phi-hom", "act-ff",
                                      "ruth-vb", "vb-wrep", "wrep-ruth"])
def test_cli_roundtrip_pipelines(pipeline, capsys):
    assert main(["roundtrip", "--pipeline", pipeline, "--trials", "2",
                 "--seed", "1", "--max-dim", "2"]) == 0


def test_cli_roundtrip_with_file(capsys):
    assert main(["roundtrip", str(REPO_FIXTURES / "z2-ruth-1.json"),
                 "--pipeline", "triangle", "--trials", "1", "--seed", "1"]) == 0


def _failing_roundtrip(capsys, pipeline, *file) -> list[tuple[str, str, str]]:
    """The (check, location, expected) entries of one failing trial."""
    assert main(["roundtrip", *file, "--pipeline", pipeline, "--trials", "1", "--seed", "1",
                 "--max-dim", "2", "--format", "json"]) == 1
    return [(e["check"], e["location"], e["expected"])
            for e in json.loads(capsys.readouterr().out)["entries"]]


def _differs(*args, **kwargs):
    return None


def _raises(*args, **kwargs):
    raise RuthVBError("broken witness")


@pytest.mark.parametrize("pipeline, name, fake, entry", [
    ("ruth-vb", "ruth_from_wrep", _differs,
     ("ruth-vb-roundtrip", "trial 0", "recovered representation equals input")),
    ("triangle", "triangle_witness", _raises, ("triangle", "trial 0", "verified isomorphism")),
    ("phi-hom", "extract_chain_map", _differs,
     ("phi-hom", "trial 0 (chain map)", "exact recovery")),
    ("phi-hom", "extract_homotopy", _differs, ("phi-hom", "trial 0 (homotopy)", "exact recovery")),
    ("phi-hom", "split_bundle", lambda v: (None, None),
     ("phi-hom", "trial 0 (split)", "identity change of basis")),
], ids=["ruth-vb", "triangle", "phi-hom-chain-map", "phi-hom-homotopy", "phi-hom-split"])
def test_each_roundtrip_check_can_fail(monkeypatch, capsys, pipeline, name, fake, entry):
    """A converter that breaks makes its pipeline's check fail, at the trial."""
    monkeypatch.setattr(cli, name, fake)
    assert _failing_roundtrip(capsys, pipeline) == [entry]


def _identity_equivariant_file(tmp_path) -> str:
    path = tmp_path / "e.json"
    path.write_text(serialize.dumps_instance(
        "equivariant", identity_equivariant(wrep_from_ruth(fixtures.z2_ruth(1)))))
    return str(path)


def test_act_ff_flags_a_reconstruction_that_differs(tmp_path, monkeypatch, capsys):
    """Twice the reconstruction is still a map the functor can act on."""
    reconstruct = cli.reconstruct_equivariant

    def doubled(phi, source, target):
        e = reconstruct(phi, source, target)
        return dataclasses.replace(e, **{name: {k: m + m for k, m in getattr(e, name).items()}
                                         for name in ("f0", "f1", "delta")})

    monkeypatch.setattr(cli, "reconstruct_equivariant", doubled)
    assert _failing_roundtrip(capsys, "act-ff", _identity_equivariant_file(tmp_path)) == [
        ("act-ff", "trial 0", "reconstruction equals input"),
        ("act-ff", "trial 0", "round trip fixes the map")]


def test_act_ff_flags_a_round_trip_that_moves_the_map(tmp_path, monkeypatch, capsys):
    act, calls = cli.act_on_morphism, []

    def second_differs(e, validate):
        calls.append(e)
        return act(e, validate=validate) if len(calls) == 1 else None

    monkeypatch.setattr(cli, "act_on_morphism", second_differs)
    assert _failing_roundtrip(capsys, "act-ff", _identity_equivariant_file(tmp_path)) == [
        ("act-ff", "trial 0", "round trip fixes the map")]


def test_vb_wrep_reports_a_failing_kernel_action_as_a_check_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "vb_to_wrep", _raises)
    assert main(["roundtrip", "--pipeline", "vb-wrep", "--trials", "1", "--seed", "1"]) == 1
    assert capsys.readouterr().err == "check failure: broken witness\n"


def test_wrep_ruth_reports_a_witness_that_fails_under_its_trial(monkeypatch, capsys):
    recover = cli.ruth_from_wrep_with_witness

    def bumped(w):
        out, witness = recover(w)
        return out, dataclasses.replace(witness, f0={
            x: m.with_entry(0, 0, m.entry(0, 0) + 1) for x, m in witness.f0.items()})

    monkeypatch.setattr(cli, "ruth_from_wrep_with_witness", bumped)
    found = _failing_roundtrip(capsys, "wrep-ruth", str(REPO_FIXTURES / "z2-ruth-1-wrep.json"))
    assert found and all(loc.startswith("trial 0: witness: ") for _, loc, _ in found)


def _entries(obj, paths) -> list[tuple]:
    """(path, key, row, column) of every entry of the tables of maps of obj
    at ``paths``, each a field name or, dotted, of a record inside obj."""
    out = []
    for path, key in gen.sites(obj, *paths):
        m = attrgetter(path)(obj)[key]
        out += [(path, key, i, j) for i in range(m.rows) for j in range(m.cols)]
    return out


ACTION_TABLES = ("a0", "a1", "alpha")
BUNDLE_TABLES = ("bundle.stilde", "bundle.ttilde", "bundle.utilde", "bundle.inv_map",
                 "bundle.mult")


def _fixture(name: str):
    return serialize.load_instance((REPO_FIXTURES / name).read_text())[1]


# Row 1 of this kernel bundle's arrow fiber is the kernel of both its source
# and its target map, and these representations of Z/2 have no degree-2
# cohomology, so moving alpha(g,g) along it gives another valid weak
# representation isomorphic to the input: a path that only checks the output
# is valid passes it.  ruth-vb refuses it because it recovers its input on
# the nose, vb-wrep and convert because the kernel-action isomorphism was
# verified for the weak representation before the bump.
ISOTROPY_BUMP = ("alpha", ("g", "g"), 1, 0)


@pytest.mark.parametrize("source, argv, bundle_code, valid", [
    (lambda: semidirect(_fixture("z2-ruth-1.json"), validate=False),
     ["roundtrip", "z2-ruth-1.json", "--pipeline", "ruth-vb", "--trials", "1"], 1, []),
    (lambda: _fixture("z2-ruth-1-vb-scrambled.json"),
     ["roundtrip", "z2-ruth-1-vb-scrambled.json", "--pipeline", "vb-wrep", "--trials", "1"],
     1, [ISOTROPY_BUMP]),
    (lambda: _fixture("z2-ruth-1-vb-scrambled.json"),
     ["convert", "z2-ruth-1-vb-scrambled.json", "--from", "vb", "--to", "wrep",
      "--out", os.devnull], 1, [ISOTROPY_BUMP]),
], ids=["ruth-vb", "vb-wrep", "convert"])
def test_no_one_entry_mutant_of_a_kernel_action_is_accepted_unless_valid(
        monkeypatch, capsys, source, argv, bundle_code, valid):
    """Every entry of the weak representation that vb_to_wrep returns, and
    of its kernel bundle, bumped one at a time after vb_to_wrep has
    certified it.  A failing check exits 1, and no mutant is accepted: the
    ones that are still ``valid`` are refused as outputs that the verified
    isomorphism does not certify.  ruth-vb meets a bundle mutant in
    split_bundle, whose refusal of an input that was read and validated is
    a check failure (exit 1), not a parse error; an inverse-map mutant is
    refused there by inverse compatibility alone."""
    convert = cli.vb_to_wrep
    labels = _entries(convert(source(), validate=False).wrep, ACTION_TABLES + BUNDLE_TABLES)
    monkeypatch.chdir(REPO_FIXTURES)
    outcomes = {}
    for label in labels:
        def mutated(v, validate, label=label):
            res = convert(v, validate=validate)
            return dataclasses.replace(res, wrep=gen.bumped(res.wrep, *label, 1))

        monkeypatch.setattr(cli, "vb_to_wrep", mutated)
        code, (out, err) = main(argv), capsys.readouterr()
        outcomes[label] = code, out + err
    assert [label for label, (code, _) in outcomes.items() if code == 0] == []
    assert {(label[0], code) for label, (code, _) in outcomes.items()} == (
        {(name, 1) for name in ACTION_TABLES} | {(name, bundle_code) for name in BUNDLE_TABLES})
    unbound = ("[witness-binding]" if "roundtrip" in argv
               else "the verified witness does not certify the converted output")
    assert all(unbound in outcomes[label][1] for label in valid)
    if "ruth-vb" in argv:
        assert all("check failure: " in err for label, (code, err) in outcomes.items()
                   if label[0] in BUNDLE_TABLES)
        assert all("[inverse-compatibility]" in err
                   for label, (_, err) in outcomes.items() if label[0] == "bundle.inv_map")


# Omega of z2-ruth-1 at (g,g) is free: with a zero differential, every
# cocycle condition it enters cancels, so this bump is a valid representation.
@pytest.mark.parametrize("fixture, passed", [
    ("z2-ruth-1-wrep.json", [("omega", ("g", "g"), 0, 0)]),
    ("pair-strict-wrep.json", []),
])
def test_wrep_ruth_refuses_each_recovered_representation_that_is_not_valid(
        monkeypatch, capsys, fixture, passed):
    """Every entry of the recovered representation, bumped one at a time
    after ruth_from_wrep_with_witness returns it with its witness.  The
    pipeline reports each invalid one under the trial, from its own
    validation of the recovered representation, and each one that
    validation ``passed`` as a representation that the witness does not
    certify."""
    recover, path = cli.ruth_from_wrep_with_witness, str(REPO_FIXTURES / fixture)
    r, _ = recover(_fixture(fixture))
    labels = _entries(r, ("lambda0", "lambda1", "omega", "complex.diff"))
    unbound = ("witness-binding", "trial 0: recovered", "the witness certifies this output")
    for label in labels:
        def mutated(w, label=label):
            out, witness = recover(w)
            return gen.bumped(out, *label, 1), witness

        monkeypatch.setattr(cli, "ruth_from_wrep_with_witness", mutated)
        found = _failing_roundtrip(capsys, "wrep-ruth", path)
        if label in passed:
            assert found == [unbound]
        else:
            assert found and all(loc.startswith("trial 0: recovered: ") for _, loc, _ in found)
    assert len(labels) > len(passed)


def test_convert_vb_wrep_refuses_an_output_its_isomorphism_does_not_certify(
        monkeypatch, capsys):
    """The kernel action of the scrambled Z/2 bundle with alpha(g,g) moved
    along the kernel after vb_to_wrep returns is a valid weak representation,
    but not the one whose action groupoid the verified isomorphism maps onto
    the input, so convert refuses it."""
    convert = cli.vb_to_wrep

    def mutated(v, validate):
        res = convert(v, validate=validate)
        return dataclasses.replace(res, wrep=gen.bumped(res.wrep, *ISOTROPY_BUMP, 1))

    monkeypatch.chdir(REPO_FIXTURES)
    argv = ["convert", "z2-ruth-1-vb-scrambled.json", "--from", "vb", "--to", "wrep"]
    assert main(argv) == 0
    assert validate_weak_representation(
        serialize.load_instance(capsys.readouterr().out)[1]).passed
    monkeypatch.setattr(cli, "vb_to_wrep", mutated)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "check failure: the verified witness does not certify the converted output\n")


def test_convert_wrep_ruth_refuses_an_output_its_witness_does_not_certify(
        monkeypatch, capsys):
    """The representation recovered from the Z/2 weak representation with
    omega(g,g) bumped after ruth_from_wrep_with_witness returns is valid,
    but not the one the verified witness starts from, so convert refuses
    it."""
    recover = cli.ruth_from_wrep_with_witness

    def mutated(w):
        out, witness = recover(w)
        return gen.bumped(out, "omega", ("g", "g"), 0, 0, 1), witness

    monkeypatch.chdir(REPO_FIXTURES)
    argv = ["convert", "z2-ruth-1-wrep.json", "--from", "wrep", "--to", "ruth"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "ruth_from_wrep_with_witness", mutated)
    assert validate_ruth(mutated(_fixture("z2-ruth-1-wrep.json"))[0]).passed
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "check failure: the verified witness does not certify the converted output\n")


@contextlib.contextmanager
def _calls(*functions):
    """Count the calls of each function made in the block, by its code
    object, so a call through any module's reference to it counts."""
    names = {f.__code__: f.__name__ for f in functions}
    counts = dict.fromkeys(names.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


def test_each_conversion_output_is_validated_once_at_the_edge(monkeypatch, capsys):
    """Operation count, independent of the machine: the CLI validates the
    weak representation of each vb->wrep conversion and the representation
    of each wrep->ruth conversion once, and the conversions validate
    neither.  A convert also validates its input file."""
    monkeypatch.chdir(REPO_FIXTURES)

    def counted(argv):
        with _calls(validate_weak_representation, validate_ruth) as counts:
            assert main(argv) == 0
        capsys.readouterr()
        return counts["validate_weak_representation"], counts["validate_ruth"]

    assert counted(["convert", "z2-ruth-1-vb-scrambled.json", "--from", "vb", "--to", "wrep",
                    "--out", os.devnull]) == (1, 0)
    assert counted(["convert", "pair-strict-wrep.json", "--from", "wrep", "--to", "ruth",
                    "--out", os.devnull]) == (1, 1)
    assert counted(["roundtrip", "--pipeline", "vb-wrep", "--trials", "3", "--seed", "1",
                    "--max-dim", "2"]) == (3, 0)
    assert counted(["roundtrip", "--pipeline", "wrep-ruth", "--trials", "3", "--seed", "1",
                    "--max-dim", "2"]) == (0, 3)
    v, w = _fixture("z2-ruth-1-vb-scrambled.json"), _fixture("pair-strict-wrep.json")
    e = wrep_from_ruth_morphism(gen.random_ruth_morphism(random.Random(1),
                                                         fixtures.pair_strict_ruth()))
    with _calls(validate_weak_representation, validate_ruth) as counts:
        vb_to_wrep(v)
        ruth_from_wrep(w)
        ruth_from_wrep_with_witness(w)
        ruth_morphism_from_wrep_map(e)
    assert counts == {"validate_weak_representation": 0, "validate_ruth": 0}


def _wrep_with_renamed_unit_arrows(tmp_path) -> str:
    """pair-strict-wrep with its bundle's arrows at x and y named ux and uy
    in every table: a bundle over a unit groupoid whose arrows are not named
    by their points."""
    doc = _fixture_doc("pair-strict-wrep")
    bundle = doc["payload"]["bundle"]
    base, name = bundle["groupoid"], {"x": "ux", "y": "uy"}
    for arrow in base["arrows"]:
        arrow["id"] = name[arrow["id"]]
    base["compose"] = [[name[a] for a in row] for row in base["compose"]]
    base["inverse"] = {name[a]: name[b] for a, b in base["inverse"].items()}
    base["units"] = {x: name[a] for x, a in base["units"].items()}
    for table in ("arrdim", "inverse", "stilde", "ttilde"):
        bundle[table] = {name[a]: m for a, m in bundle[table].items()}
    bundle["mult"] = [[name[g1], name[g2], m] for g1, g2, m in bundle["mult"]]
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("verb, options", [
    ("validate", []),
    ("convert", ["--from", "wrep", "--to", "ruth"]),
    ("roundtrip", ["--pipeline", "wrep-ruth", "--trials", "1"]),
])
def test_cli_refuses_a_bundle_arrow_not_named_by_its_point(tmp_path, capsys, verb, options):
    """A wrep's bundle is the unit groupoid of its points with arrow x at
    point x; any other naming is malformed input, on every verb that reads it."""
    assert main([verb, _wrep_with_renamed_unit_arrows(tmp_path), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "unit groupoid" in err
    assert "Traceback" not in err


# sha256 of each CLI output, with the report's seconds dropped: the exit code,
# a newline, then the JSON report (validate, roundtrip, fuzz) or the file that
# convert --out writes (empty when it writes none).
CLI_DIGESTS = {
    "validate pair-strict-ruth.json":
        "39a865009ac011741a837faf9d07ae72bc9ccccbbf44d751b4ea110365b7469e",
    "validate pair-strict-semidirect.json":
        "3b09e993c997a24820606ffa3ac42c034ccdaa160aa2ad0bb5c590d4c2cd3996",
    "validate pair-strict-vb-scrambled.json":
        "dd4f7dd39fefa893191722d8e36387f134bb8850b6aabb0bf86afdd401369362",
    "validate pair-strict-wrep.json":
        "a15a56fe400f2a85d1db28485ff5638d8905d6b152503a6c36ed46f09b2e4287",
    "validate pair.json":
        "24b4f89182b7d3c74681b893594298d87f6cd73a559baa03bfef8333f38f83c1",
    "validate z2-ruth-0.json":
        "ab5cccf5e0271d30af67b854d75056ba8cfb08a76998aafc09d2355d2fc7e70c",
    "validate z2-ruth-1-semidirect.json":
        "c431dd05299bb81918f268864bdc9840e89eb1522d8d8db2507c9e25e1e77913",
    "validate z2-ruth-1-vb-scrambled.json":
        "5e709b1a5f13a766056bf43413c84c8f6f4d2df861ba1e51949d4a5b94932178",
    "validate z2-ruth-1-wrep.json":
        "714259ce387f3206d3214c3a063f27d5efc531af5c231094053248b1657e7c1a",
    "validate z2-ruth-1.json":
        "90366b05db230370194bfd64452f658b55815327eb37e02f8d075b4759119838",
    "validate z2-ruth-broken4.json":
        "cc628ab4c5cae9a7e98f20ce45a6d93afa56db8f0d55eab08dc886ecb9448e15",
    "validate z2.json":
        "d0e8bcab877b88cbf4b35dc8b07de8080ca18f9f9d603872b51e09edf764e848",
    "convert pair-strict-ruth.json ruth->wrep":
        "17ff0935192f9ee381f8ea7bbbe92f00756d023a9f738fe1ae0da19db2ee5022",
    "convert pair-strict-ruth.json ruth->vb":
        "72f806d4b0aadfc80471cd9f24f6384daa77f22fd662a4ed33c71d5fa1330dea",
    "convert pair-strict-semidirect.json vb->wrep":
        "4094f7a0270d3126e7c3bc064695487002bee62a0af0079fb508e3aea06bec17",
    "convert pair-strict-vb-scrambled.json vb->wrep":
        "5523d0c1c386b30b43432f998b048b912c378547a92e5924ebb28b870de2d9f2",
    "convert pair-strict-wrep.json wrep->ruth":
        "0a8ba97284d7ce12cf6ac2a87e0c76fbf18a5b963059bb13f4408237dddb4895",
    "convert pair-strict-wrep.json wrep->vb":
        "e7f33285f5e31ea23267c4c0a74992f09321d836fbc53fe775ddff11b56fcf57",
    "convert z2-ruth-0.json ruth->wrep":
        "e1ab8392e26879138775873e43b1c6a18db718cd2309175a5522088fb2906ac1",
    "convert z2-ruth-0.json ruth->vb":
        "b134b55e92e8445e5aaf7758649b147b20374e40f01f4cbee7eafa5f3fa67580",
    "convert z2-ruth-1-semidirect.json vb->wrep":
        "037ea474a8011069ed9476d9287fe0956ad629a52be62d0fc45fec5965c21ddd",
    "convert z2-ruth-1-vb-scrambled.json vb->wrep":
        "7e842153947f2d7b8ed305cba34aa5975b6a54df2282973468a2ac37e759bf32",
    "convert z2-ruth-1-wrep.json wrep->ruth":
        "5d931354cdb8a88d02e346ebb6b714ca7bf58b25edcc36839ec04d318e9d4804",
    "convert z2-ruth-1-wrep.json wrep->vb":
        "b73ae92a65b67cdc67d5299e541464a1717b7b338979e4ed42406288d409549c",
    "convert z2-ruth-1.json ruth->wrep":
        "e6afb932f625e828679f7b8633b8145759bba2638bedc47b1c658b8c82a61f0a",
    "convert z2-ruth-1.json ruth->vb":
        "352b681892bcdbfda58b71b1c8eb874dfbe38f70b87caa39e1dad7fbb274def0",
    "convert z2-ruth-broken4.json ruth->wrep":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "convert z2-ruth-broken4.json ruth->vb":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "roundtrip act-ff":
        "b2cb4bfdd914e109273f4038ff5e26cc7135b759a33817456478d98783d8f572",
    "roundtrip phi-hom":
        "c4d18519cb1f7ce501eaf9273f5227678e022fd19c92b0f0a085ba3846da56e9",
    "roundtrip ruth-vb":
        "13163b8d939dc0b254496b41a9caa8c91ac4ccd1a389716a9097f6fcfb68b5f3",
    "roundtrip triangle":
        "fe97535cee98e979285019e05a914588d4952f3438c8936d98a7d4267797266d",
    "roundtrip vb-wrep":
        "4af1f92a6e92c98221d2c6779796b14216932e720f341c87eeed2adb00cb42c0",
    "roundtrip wrep-ruth":
        "051153014eceea02fc29e972e5060ae0cee3fbef2c2201d4cc0482c236d7ceb0",
    "fuzz":
        "188f5aa66780f5b3a5d900676d466085f42c08d9e5cf506afa0849906b4afe2f",
}


def _cli_outputs(tmp_path, capsys, monkeypatch):
    """Each pinned CLI run's name and its exit code and output, as bytes.
    Runs from the repository root on relative fixture paths, because a
    validate report names the file it read."""
    monkeypatch.chdir(REPO_FIXTURES.parent)

    def run(argv, out=None):
        code = main(argv)
        text = capsys.readouterr().out
        if out is not None:
            body = out.read_bytes() if out.exists() else b""
        else:
            doc = json.loads(text)
            del doc["seconds"]
            body = json.dumps(doc, sort_keys=True).encode()
        return f"{code}\n".encode() + body

    fixtures = sorted(Path("fixtures").glob("*.json"))
    for path in fixtures:
        yield f"validate {path.name}", run(["validate", str(path), "--format", "json"])
    for path in fixtures:
        kind = json.loads(path.read_text())["kind"]
        for source, target in cli.CONVERSIONS:
            if source == kind:
                out = tmp_path / f"{path.stem}-{target}.json"
                yield f"convert {path.name} {source}->{target}", run(
                    ["convert", str(path), "--from", source, "--to", target,
                     "--out", str(out)], out)
    for pipeline in sorted(cli.PIPELINES):
        yield f"roundtrip {pipeline}", run(["roundtrip", "--pipeline", pipeline, "--format",
                                            "json", "--trials", "2", "--seed", "1"])
    yield "fuzz", run(["fuzz", "--trials", "60", "--seed", "424251", "--format", "json"])


def test_cli_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    digests = {name: hashlib.sha256(body).hexdigest()
               for name, body in _cli_outputs(tmp_path, capsys, monkeypatch)}
    assert digests == CLI_DIGESTS


@pytest.mark.parametrize("argv, message", [
    (["roundtrip", "--pipeline", "triangle", "--trials", "0"], "--trials: must be at least 1"),
    (["fuzz", "--trials", "0"], "--trials: must be at least 1"),
    (["fuzz", "--trials", "-2"], "--trials: must be at least 1"),
    (["fuzz", "--trials", "3", "--max-dim", "-1"], "--max-dim: must be at least 0"),
    (["fuzz", "--max-objects", "0", "--max-arrows", "0"], "--max-objects: must be at least 1"),
    (["roundtrip", "--pipeline", "ruth-vb", "--max-arrows", "0"],
     "--max-arrows: must be at least 1"),
], ids=["roundtrip-trials-0", "fuzz-trials-0", "fuzz-trials-negative", "fuzz-max-dim-negative",
        "fuzz-empty-groupoid", "roundtrip-max-arrows-0"])
def test_cli_bounds_below_minimum_exit_2(argv, message, capsys):
    """A run of no trials or over an empty groupoid would pass vacuously,
    and a negative dimension cannot be drawn: both are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["fuzz"], ["roundtrip", "--pipeline", "triangle"]])
def test_cli_max_dim_above_the_file_limit_exits_2(verb, capsys):
    """--max-dim is bounded by the largest fiber an instance file may declare.
    Only the parser runs, so a missing bound draws nothing."""
    parser = cli.build_parser()
    assert parser.parse_args(verb + ["--max-dim", str(linalg.MAX_DIM)]).max_dim == linalg.MAX_DIM
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(verb + ["--max-dim", str(linalg.MAX_DIM + 1)])
    assert exc.value.code == 2
    assert f"--max-dim: must be at most {linalg.MAX_DIM}" in capsys.readouterr().err


def test_cli_phi_hom_honours_max_objects(monkeypatch, capsys):
    """With --max-objects 1 the phi-hom pipeline draws one-point complexes."""
    bases = []
    draw = gen.random_complex

    def recording(*args, **kwargs):
        out = draw(*args, **kwargs)
        bases.append(out.base)
        return out

    monkeypatch.setattr(gen, "random_complex", recording)
    assert main(["roundtrip", "--pipeline", "phi-hom", "--trials", "10", "--seed", "1",
                 "--max-objects", "1"]) == 0
    assert len(bases) == 20 and all(len(base) == 1 for base in bases), bases


def test_run_fuzz_kills_everything():
    rng = random.Random(50)
    report, killed, controls = run_fuzz(rng, trials=60)
    assert report.passed
    assert killed > 0


def _fails_when_looked_at_again():
    seen = set()

    def validator(obj):
        rep = Report("stub")
        if id(obj) in seen:
            rep.add("stub", "anywhere", "pass", "fail")
        seen.add(id(obj))
        return rep
    return validator


@pytest.mark.parametrize("validator, mutate, check, location", [
    (lambda g: Report("stub", [CheckEntry("stub", "anywhere", "pass", "fail")]),
     gen.mutate_groupoid_comp, "generator", r"trial \d+ \(groupoid\)"),
    (_fails_when_looked_at_again(), lambda rng, g: None, "control", r"trial \d+ \(groupoid\)"),
    (validate_groupoid, lambda rng, g: (g, "no-op"), "mutation-escape",
     r"trial \d+ \(groupoid\) no-op"),
], ids=["generator", "control", "mutation-escape"])
def test_each_fuzz_check_can_fail(monkeypatch, validator, mutate, check, location):
    """An invalid draw, a control the validator flags and a mutation it
    passes are each reported at their trial."""
    monkeypatch.setattr(cli, "FUZZ_KINDS",
                        {"groupoid": (lambda rng, g, max_dim: g, validator, mutate)})
    report, _, _ = run_fuzz(random.Random(1), trials=30)
    assert report.entries and all(
        e.check == check and re.fullmatch(location, e.location) for e in report.entries)


def test_cli_report_verb(tmp_path, capsys):
    assert main(["roundtrip", "--pipeline", "phi-hom", "--trials", "1",
                 "--seed", "2", "--format", "json"]) == 0
    doc = capsys.readouterr().out
    path = tmp_path / "rep.json"
    path.write_text(doc)
    assert main(["report", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def _fixture_doc(name: str) -> dict:
    return json.loads((REPO_FIXTURES / f"{name}.json").read_text())


def _repeated_compose_row() -> bytes:
    doc = _fixture_doc("z2")
    doc["payload"]["compose"].insert(0, ["g", "g", "g"])
    return json.dumps(doc).encode()


def _repeated_omega_row() -> bytes:
    doc = _fixture_doc("z2-ruth-1")
    omega = doc["payload"]["omega"]
    omega.insert(0, [*omega[0][:2], {**omega[0][2], "entries": ["7"]}])
    return json.dumps(doc).encode()


def _repeated_unit_key() -> bytes:
    text = json.dumps(_fixture_doc("z2"))
    return text.replace('"units": {"*": "e"}', '"units": {"*": "g", "*": "e"}').encode()


@pytest.mark.parametrize("content, named", [
    (_repeated_compose_row(), "compose pair ('g', 'g') is stated twice"),
    (_repeated_omega_row(), "omega pair ('e', 'e') is stated twice"),
    (_repeated_unit_key(), "object key '*' is stated twice"),
], ids=["compose-row", "omega-row", "units-key"])
def test_cli_validate_repeated_key_exits_2(tmp_path, capsys, content, named):
    """Each file would validate if its last statement of the key were read."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == f"parse error: {named}\n"


# Files that the reader or the JSON parser cannot take: a UTF-16 byte order
# mark, and arrays nested beyond the parser's depth at the top and inside
# the payload.
UNREADABLE = {
    "utf16-bom": b"\xff\xfe" + (REPO_FIXTURES / "z2.json").read_bytes(),
    "nested-top": b"[" * 200_000,
    "nested-payload": json.dumps(_fixture_doc("z2")).replace(
        '"payload": {', '"payload": ' + "[" * 5000 + "{", 1).encode(),
}


@pytest.mark.parametrize("verb", ["validate", "report"])
@pytest.mark.parametrize("name", [*UNREADABLE, "directory"])
def test_cli_unreadable_file_exits_2_with_one_line(tmp_path, capsys, verb, name):
    path = tmp_path / "bad.json"
    if name == "directory":
        path.mkdir()
    else:
        path.write_bytes(UNREADABLE[name])
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1


# Paths that cannot be opened at all: a file used as a directory, a name
# longer than the file system allows, and a symbolic link to itself.
UNOPENABLE = {
    "not-a-directory": lambda tmp: REPO_FIXTURES / "z2.json" / "x",
    "name-too-long": lambda tmp: tmp / ("x" * 5000),
    "symlink-loop": lambda tmp: _symlink_loop(tmp / "loop.json"),
}


def _symlink_loop(path):
    path.symlink_to(path.name)
    return path


@pytest.mark.parametrize("verb", ["validate", "report"])
@pytest.mark.parametrize("name", UNOPENABLE)
def test_cli_unopenable_path_exits_2_with_one_line(tmp_path, capsys, verb, name):
    assert main([verb, str(UNOPENABLE[name](tmp_path))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1


class _Pairs(list):
    """A JSON object as its list of (key, value) pairs, so a key may repeat."""


def _dumps(node) -> str:
    if isinstance(node, dict):
        node = _Pairs(node.items())
    if isinstance(node, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dumps(x) for x in node) + "]"
    return json.dumps(node)


# Values that break types, shapes, identifiers, rationals and dimensions.
HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 70), st.floats(allow_nan=False),
    st.sampled_from([10 ** 9, 2 ** 64, "", "1/0", "0/0", "-2/4", "1e5", " 1", "1/" + "9" * 300,
                     "*", "e", "g", "x", "7", [], {}, ["1"], {"rows": 1, "cols": 1}]),
).map(copy.deepcopy)  # an edit may land inside a drawn list or object


@st.composite
def _hostile_files(draw) -> bytes:
    """A fixture file with one to three edits, each at a random node: a value
    replaced, removed, renamed, repeated or appended."""
    doc = _fixture_doc(draw(st.sampled_from(sorted(p.stem for p in REPO_FIXTURES.glob("*.json")))))
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while True:
            inner = [k for k, v in (node.items() if isinstance(node, dict) else enumerate(node))
                     if isinstance(v, (dict, list)) and not isinstance(v, _Pairs) and v]
            if not inner or draw(st.booleans()):
                break
            parent, key = node, draw(st.sampled_from(inner))
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["replace", "remove", "rename", "repeat", "append"]))
        k = draw(st.sampled_from(keys)) if keys else None
        if op == "append" or k is None:
            if isinstance(node, dict):
                node[draw(st.sampled_from(["extra", "rows", "kind", "*"]))] = draw(HOSTILE)
            else:
                node.append(draw(HOSTILE))
        elif op == "replace":
            node[k] = draw(HOSTILE)
        elif op == "remove":
            del node[k]
        elif op == "rename" and isinstance(node, dict):
            node[draw(st.sampled_from(["", "*", "g", "x", "rows", "objdim"]))] = node.pop(k)
        elif isinstance(node, list):
            node.insert(k, copy.deepcopy(node[draw(st.sampled_from(keys))]))
        else:
            twice = _Pairs([*node.items(), (k, draw(st.one_of(st.just(node[k]), HOSTILE)))])
            if parent is None:
                return _dumps(twice).encode()
            parent[key] = twice
    return _dumps(doc).encode()


@settings(max_examples=150, deadline=None)
@given(_hostile_files())
@example(_repeated_compose_row())
@example(_repeated_omega_row())
@example(_repeated_unit_key())
@example(UNREADABLE["utf16-bom"])
@example(UNREADABLE["nested-top"])
@example(UNREADABLE["nested-payload"])
@example(None)
def test_cli_validate_answers_every_hostile_file(content):
    """``validate`` on a damaged fixture, or on a directory (None), returns
    an exit code and never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hostile.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["validate", str(path)]) in (0, 1, 2)


# -- per-file decode tables ------------------------------------------------------

def _per_entry_map(d: dict, literals: dict, records: dict) -> linalg.LinearMap:
    """A matrix record read with no tables: every entry by the literal rules,
    in order, then the entry count."""
    rows = linalg.json_int(d["rows"], "rows", linalg.MAX_DIM)
    cols = linalg.json_int(d["cols"], "cols", linalg.MAX_DIM)
    parts = [linalg._parts(e) for e in linalg.json_typed(d["entries"], list, "entries")]
    linalg._check_shape(rows, cols, len(parts))
    den = math.lcm(*(q for _, q in parts))
    return linalg.LinearMap(rows, cols, tuple(p * (den // q) for p, q in parts), den)


def _load_outcome(text: str):
    """The kind and object ``load_instance`` reads, or its error type and text."""
    try:
        return serialize.load_instance(text)[:2]
    except (RuthVBError, ValueError) as exc:
        return type(exc), str(exc)


TABLE_STRINGS = ["0", "1", "-1", "1/2", "2/4", "-0"]
# JSON values that are equal dict keys, of which only 1 is a literal, and
# strings that are not literals.
TABLE_ODD = [1, 1.0, True, "1/0", "x", "1.5"]


def _vb_records(payload: dict) -> list[dict]:
    """The matrix records of a vb payload, in the order they are read."""
    return ([payload[t][k] for t in ("stilde", "ttilde", "utilde", "inverse") for k in payload[t]]
            + [row[2] for row in payload["mult"]])


@st.composite
def _repeating_vb_files(draw) -> str:
    """pair-strict-semidirect, whose stilde and ttilde records are four equal
    records each, with its other records redrawn from a pool of at most
    three entry lists per entry count, so literals and whole records repeat
    within the file, and records of two shapes may hold one list.  Then up
    to three edits, each setting one of the first two entries of a record
    to "1", to a JSON 1, 1.0 or true, or to a bad literal, and up to one
    record with an entry too many."""
    doc = _fixture_doc("pair-strict-semidirect")
    records = _vb_records(doc["payload"])
    pools: dict[int, list] = {}
    for d in records[8:]:
        n = d["rows"] * d["cols"]
        if n not in pools:
            pools[n] = draw(st.lists(st.lists(st.sampled_from(TABLE_STRINGS),
                                              min_size=n, max_size=n), min_size=1, max_size=3))
        d["entries"] = list(draw(st.sampled_from(pools[n])))
    at = st.integers(0, len(records) - 1)
    for i, j, value in draw(st.lists(st.tuples(at, st.integers(0, 1),
                                               st.sampled_from(["1", *TABLE_ODD])), max_size=3)):
        records[i]["entries"][j] = value
    for i, value in draw(st.lists(st.tuples(at, st.sampled_from([*TABLE_STRINGS, *TABLE_ODD])),
                                  max_size=1)):
        records[i]["entries"].append(value)
    return json.dumps(doc)


def _twin_records(first, second, extra=None) -> str:
    """pair-strict-semidirect, whose stilde records are all equal, with the
    first entry of its first two set to ``first`` and ``second``, and
    ``extra`` appended to the second."""
    doc = _fixture_doc("pair-strict-semidirect")
    one, two = list(doc["payload"]["stilde"].values())[:2]
    one["entries"][0], two["entries"][0] = first, second
    if extra is not None:
        two["entries"].append(extra)
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(_repeating_vb_files())
@example(_twin_records(1, True))
@example(_twin_records(1, 1.0))
@example(_twin_records("1", 1))
@example(_twin_records("1", True))
@example(_twin_records("1", 1.0))
@example(_twin_records("1", "1/0"))
@example(_twin_records("0", "x"))
@example(_twin_records("0", "1/0", extra="1"))
@example(_twin_records("1", "1", extra="1"))
def test_decode_tables_read_what_the_per_entry_reader_reads(text):
    """Through its per-file tables of literals and records, ``load_instance``
    gives objects equal to those of a reader that reads every entry of every
    record, or the same error type and text."""
    got = _load_outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "map_from_dict", _per_entry_map)
        assert got == _load_outcome(text)


VB_TABLES = ("stilde", "ttilde", "inv_map")


def test_equal_records_of_one_file_share_one_map_that_a_mutant_leaves_alone():
    """pair-strict-semidirect states each stilde, ttilde and inverse record
    four times; loaded, the four are one map.  ``mutate_vb_entry`` rebuilds
    one of them, its twins stay the loaded map, the mutant fails
    ``validate_vb`` and the loaded instance is unchanged."""
    text = (REPO_FIXTURES / "pair-strict-semidirect.json").read_text()
    _, v, _ = serialize.load_instance(text)
    for name in VB_TABLES:
        first, *rest = getattr(v, name).values()
        assert len(rest) == 3 and all(m is first for m in rest)
    mutants = [m[0] for m in (gen.mutate_vb_entry(random.Random(seed), v) for seed in range(6))
               if m is not None]
    assert mutants
    for mutant in mutants:
        changed = [(name, a) for name in VB_TABLES for a, m in getattr(v, name).items()
                   if getattr(mutant, name)[a] is not m]
        assert len(changed) == 1
        name, arrow = changed[0]
        assert getattr(mutant, name)[arrow] != getattr(v, name)[arrow]
        assert not validate_vb(mutant).passed
    assert v == serialize.load_instance(text)[1]
    assert validate_vb(v).passed


def test_load_instance_keeps_no_state_between_files():
    """Two vb files with different literals load to equal objects in either
    order, and no map read by one call is a map read by another."""
    texts = [(REPO_FIXTURES / f"{name}.json").read_text()
             for name in ("pair-strict-semidirect", "pair-strict-vb-scrambled")]
    forward = [serialize.load_instance(t)[1] for t in texts]
    backward = [serialize.load_instance(t)[1] for t in reversed(texts)][::-1]
    assert forward == backward
    ids = [{id(m) for name in VB_TABLES for m in getattr(v, name).values()}
           for v in (*forward, *backward)]
    assert sum(map(len, ids)) == len(set().union(*ids))


ENTRY = {"check": "identity-4", "location": "(g,g,g)", "expected": "zero", "actual": "2"}


@pytest.mark.parametrize("edits", [
    {"entries": 5},
    {"entries": [{k: v for k, v in ENTRY.items() if k != "location"}]},
    {"seconds": "abc"},
], ids=["entries-not-a-list", "entry-without-location", "seconds-not-a-number"])
def test_cli_report_malformed_file_exits_2(tmp_path, capsys, edits):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"subject": "s", "verdict": "fail", "entries": [ENTRY],
                                "seconds": 0.5, **edits}))
    assert main(["report", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_report_renders_seconds_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"verdict": "pass", "seconds": 10 ** 400}))
    assert main(["report", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


MUTANT_DESCRIPTIONS = [
    ("mutate_ruth_unit_cell", lambda: fixtures.pair_strict_ruth(), [
        "omega[('p:x>y:0', 'p:x>x:0')] entry (0, 0, Fraction(-1, 1))",
        "lambda0[p:y>y:0] entry (0, 0, Fraction(1, 1))",
        "lambda0[p:x>x:0] entry (0, 0, Fraction(-1, 1))"]),
    ("mutate_ruth_entry", lambda: fixtures.pair_strict_ruth(), [
        "omega[('p:y>x:0', 'p:x>y:0')] entry (0, 0, Fraction(-1, 1))",
        "lambda0[p:y>x:0] entry (0, 0, Fraction(1, 1))",
        "lambda1[p:x>x:0] entry (0, 0, Fraction(-1, 1))"]),
    ("mutate_vb_cell", lambda: fixtures.fixture("pair-strict-vb-scrambled")[1], [
        "mult[('p:y>y:0', 'p:x>y:0')] entry (1, 0, Fraction(-1, 1))",
        "mult[('p:x>y:0', 'p:x>x:0')] entry (2, 0, Fraction(-1, 1))",
        "mult[('p:x>x:0', 'p:x>x:0')] entry (0, 0, Fraction(-1, 1))"]),
    ("mutate_wrep_alpha_unit", lambda: fixtures.fixture("pair-strict-wrep")[1], [
        "alpha[('p:y>x:0', 'p:y>y:0')] entry (1, 0, Fraction(-1, 1))",
        "alpha[('p:x>x:0', 'p:y>x:0')] entry (2, 0, Fraction(-1, 1))",
        "alpha[('p:x>x:0', 'p:x>x:0')] entry (0, 0, Fraction(-1, 1))"]),
    ("mutate_equivariant_delta_unit",
     lambda: wrep_from_ruth_morphism(identity_morphism(fixtures.pair_strict_ruth())), [
         "delta[p:y>y:0] entry (1, 0, Fraction(-1, 1))",
         "delta[p:x>x:0] entry (2, 0, Fraction(-1, 1))",
         "delta[p:x>x:0] entry (0, 0, Fraction(-1, 1))"]),
    ("mutate_vb_entry", lambda: fixtures.fixture("pair-strict-vb-scrambled")[1], [
        "stilde[p:y>x:0] entry (1, 0, Fraction(-1, 1))",
        "inv_map[p:x>x:0] entry (2, 0, Fraction(-1, 1))",
        "stilde[p:x>x:0] entry (0, 0, Fraction(-1, 1))"]),
    ("mutate_wrep_entry", lambda: fixtures.fixture("pair-strict-wrep")[1], [
        "a0[p:y>y:0] entry (1, 0, Fraction(-1, 1))",
        "a0[p:x>y:0] entry (0, 1, Fraction(1, 1))",
        "a0[p:x>x:0] entry (0, 0, Fraction(-1, 1))"]),
    ("mutate_equivariant_entry",
     lambda: wrep_from_ruth_morphism(identity_morphism(fixtures.pair_strict_ruth())), [
         "f1[y] entry (1, 0, Fraction(-1, 1))",
         "f1[x] entry (2, 0, Fraction(-1, 1))",
         "f0[x] entry (0, 0, Fraction(-1, 1))"]),
]


@pytest.mark.parametrize("mutator, instance, descriptions", MUTANT_DESCRIPTIONS,
                         ids=[case[0] for case in MUTANT_DESCRIPTIONS])
def test_mutants_are_pinned_by_the_seed(mutator, instance, descriptions):
    obj = instance()
    assert [getattr(gen, mutator)(random.Random(seed), obj)[1]
            for seed in range(3)] == descriptions


def test_instance_to_dict_refuses_an_unknown_kind():
    with pytest.raises(UsageError, match="unknown kind 'triangle'"):
        serialize.instance_to_dict("triangle", z2_groupoid())


FAMILIES = {
    "groupoid": (gen.mutate_groupoid_comp,),
    "ruth": (gen.mutate_ruth_unit_cell, gen.mutate_ruth_entry),
    "vb": (gen.mutate_vb_cell, gen.mutate_vb_entry),
    "wrep": (gen.mutate_wrep_alpha_unit, gen.mutate_wrep_entry),
}


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_each_family_draws_the_same_mutant_from_a_fixture_and_its_file(name):
    """A family reads its sites off the instance's own tables, and a fixture
    file keeps the key order of the instance it was written from."""
    kind, built = fixtures.fixture(name)
    read = _fixture(f"{name}.json")

    def drawn(mutate, obj, seed):
        out = mutate(random.Random(seed), obj)
        return out and (out[1], serialize.dumps_instance(kind, out[0]))

    for mutate in FAMILIES[kind]:
        for seed in range(20):
            assert drawn(mutate, built, seed) == drawn(mutate, read, seed), (mutate, seed)


def test_a_family_with_no_nonempty_map_draws_nothing():
    r = gen.random_strict_ruth(random.Random(0), z2_groupoid(), max_dim=0)
    assert gen.sites(r, ("lambda0", "lambda1"), "omega", "complex.diff") == []
    assert gen.mutate_ruth_entry(random.Random(0), r) is None
    assert gen.mutate_ruth_unit_cell(random.Random(0), r) is None


def test_comp_mutation_of_the_one_arrow_groupoid_draws_nothing():
    assert gen.mutate_groupoid_comp(random.Random(0), cyclic_groupoid(1)) is None


def test_a_bump_that_shrinks_a_fibered_product_draws_nothing():
    """With stilde and ttilde both zero at the one arrow, the pair's fibered
    product is all of V1 + V1; a bump of either map shrinks it, so the stored
    multiplication has no shape and the rebuild refuses it."""
    g = cyclic_groupoid(1)
    one, zero = linalg.LinearMap.identity(1), linalg.LinearMap.zero(1, 1)
    v = VBGroupoid(g, {"*": 1}, {"r0": 1}, {"r0": zero}, {"r0": zero}, {"*": one},
                   {"r0": one}, {("r0", "r0"): linalg.LinearMap.zero(1, 2)})
    with pytest.raises(StructureError, match="multiplication"):
        gen.bumped(v, "stilde", "r0", 0, 0, 1)
    drawn = [gen.mutate_vb_entry(random.Random(seed), v) for seed in range(12)]
    assert None in drawn
    assert all(out[1].startswith("inv_map[r0]") for out in drawn if out)


def test_random_chain_map_refuses_complexes_on_different_bases():
    rng = random.Random(0)
    c, d = gen.random_complex(rng, ["p"]), gen.random_complex(rng, ["q"])
    with pytest.raises(ValueError, match="shared base"):
        gen.random_chain_map(rng, c, d)


def test_random_groupoid_stays_within_its_bounds():
    for max_objects in range(1, 5):
        for max_arrows in range(1, 13):
            for seed in range(50):
                g = gen.random_groupoid(random.Random(seed), max_objects, max_arrows)
                assert len(g.objects) <= max_objects and len(g.arrows) <= max_arrows, \
                    (max_objects, max_arrows, seed)


def _base_of(obj) -> FiniteGroupoid:
    if isinstance(obj, FiniteGroupoid):
        return obj
    for attr in ("groupoid", "base", "source"):
        if hasattr(obj, attr):
            return _base_of(getattr(obj, attr))
    raise TypeError(obj)


def test_bounds_flags_cap_every_drawn_instance(monkeypatch, capsys):
    """With --max-objects 1 --max-arrows 3, fuzz and roundtrip draw every
    kind over a one-object groupoid with at most 3 arrows."""
    drawn = []

    def recording(kind, generate):
        def draw(*args, **kwargs):
            out = generate(*args, **kwargs)
            drawn.append((kind, _base_of(out)))
            return out
        return draw

    for kind, (generate, validator, mutate) in list(cli.FUZZ_KINDS.items()):
        monkeypatch.setitem(cli.FUZZ_KINDS, kind,
                            (recording(kind, generate), validator, mutate))
    bounds = ["--max-objects", "1", "--max-arrows", "3", "--max-dim", "1"]
    assert main(["fuzz", "--trials", "60", "--seed", "3"] + bounds) == 0
    assert {kind for kind, _ in drawn} == set(cli.FUZZ_KINDS)
    for name in ("random_ruth", "random_vb", "random_wrep", "random_equivariant"):
        monkeypatch.setattr(gen, name, recording(name, getattr(gen, name)))
    for pipeline in ("ruth-vb", "vb-wrep", "wrep-ruth", "triangle", "act-ff"):
        assert main(["roundtrip", "--pipeline", pipeline, "--trials", "4",
                     "--seed", "3"] + bounds) == 0
    assert {kind for kind, _ in drawn} >= {"random_ruth", "random_vb", "random_wrep",
                                          "random_equivariant"}
    for kind, g in drawn:
        assert len(g.objects) == 1 and len(g.arrows) <= 3, (kind, g.objects, g.arrows)


# -- the benchmark's span tracer on this tree ----------------------------------------

TRACER = REPO_FIXTURES.parent / "perfbench" / "tracer.py"


def test_benchmark_tracer_patches_every_traced_name():
    """perfbench/tracer.py, read and run here without writing under perfbench/,
    must find each traced name where it looks for it (a method on its class,
    a function in its module), wrap every reference and put each back."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    for name in module.TRACED:
        importlib.import_module(f"ruthvb.{name}")
    apply, compose = linalg.LinearMap.apply, linalg.compose
    tracer = module.Tracer()
    with tracer.patched():
        assert tracer.unpatched_references() == []
        assert linalg.LinearMap.apply is not apply and linalg.compose is not compose
        tracer.mark_pass()
        v = sys.modules["ruthvb.semidirect"].semidirect(fixtures.z2_ruth(1))
        assert sys.modules["ruthvb.vb"].validate_vb(v).passed
    assert linalg.LinearMap.apply is apply and linalg.compose is compose
    metrics, repeatable = tracer.layer_metrics()
    assert metrics["vb.validate_vb.calls"] == 1 and metrics["semidirect.semidirect.calls"] == 1
    assert metrics["traced.errors"] == 0 and repeatable


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.walk_packages(ruthvb.__path__, "ruthvb.")))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    """The package loads none of its modules itself, so no import order is
    fixed for them: each one, imported first in a new interpreter, must load
    without depending on another having been loaded before it."""
    result = _run_fresh(f"import {module}")
    assert result.returncode == 0, result.stderr


def _linalg_compose_calls(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that call ``linalg.compose``, through the module
    or through a name imported from it."""
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_linalg = (node.module or "").split(".")[-1] == "linalg"
            for alias in node.names:
                if alias.name == "linalg":
                    modules.add(alias.asname or alias.name)
                elif from_linalg and alias.name == "compose":
                    functions.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names
                           if a.name.endswith(".linalg") and a.asname)
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in functions
        or isinstance(node.func, ast.Attribute) and node.func.attr == "compose"
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules)]


def test_the_package_writes_every_product_with_the_operator():
    """Every product in the package is ``f @ g``: no module calls
    ``linalg.compose``, which is kept only for the benchmark."""
    package = Path(ruthvb.__file__).parent
    calls = {str(path.relative_to(package)): lines for path in sorted(package.rglob("*.py"))
             if (lines := _linalg_compose_calls(ast.parse(path.read_text())))}
    assert calls == {}
    assert _linalg_compose_calls(ast.parse(
        "from . import linalg\nfrom .linalg import compose as c\n"
        "linalg.compose(f, g)\nc(f, g)\nf @ g")) == [3, 4]


def test_the_ruth_layer_loads_without_the_two_term_layer():
    """The two-term complex lives in ``ruth``, and ``twoterm`` builds its sum
    groupoid through ``semidirect``: both sit above ``ruth``, so importing
    ``ruth`` first in a new interpreter loads neither of them."""
    result = _run_fresh("import sys, ruthvb.ruth; print(*sys.modules)")
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "ruthvb.ruth" in loaded and "ruthvb.cochains" in loaded
    assert not loaded & {"ruthvb.twoterm", "ruthvb.semidirect"}


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that finds this checkout's package."""
    path = [str(Path(ruthvb.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


WORKLOADS = REPO_FIXTURES.parent / "perfbench" / "workloads.py"


def _reachable(obj, seen):
    """obj and every ``ruthvb`` object, container, dict value and slot value
    under it."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif type(obj).__module__.startswith("ruthvb."):
        slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
        children = [*getattr(obj, "__dict__", {}).values(),
                    *(getattr(obj, name) for name in slots if hasattr(obj, name))]
    else:
        return
    for child in children:
        yield from _reachable(child, seen)


@pytest.mark.parametrize("workload", ["convert-desk", "detect-scale"])
def test_benchmark_payloads_hold_no_cached_action_groupoid(workload, monkeypatch):
    """perfbench/workloads.py, read and run here without writing under
    perfbench/: no input its set-up builds at seed 1 holds a weak
    representation's chart or action groupoid, nor a groupoid's nerve or
    face table, so no timed operation starts from work done in set-up:
    every timed square_is_zero builds its own face tables."""
    module = types.ModuleType("perfbench_workloads")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for its dataclass
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), vars(module))
    ops = module.build(module.Library(), workload, 1, REPO_FIXTURES.parent)
    seen: set[int] = set()
    reached = [x for op in ops for x in _reachable(op.payload, seen)]
    assert any(type(x).__name__ == "Ruth" for x in reached)
    assert workload == "detect-scale" or any(
        type(x).__name__ == "WeakRepresentation" for x in reached)
    assert not [x for x in reached if hasattr(x, "__dict__")
                and {"chart", "action_groupoid"} & vars(x).keys()]
    groupoids = [x for x in reached if type(x).__name__ == "FiniteGroupoid"]
    assert groupoids and not [g for g in groupoids if g._nerves or g._faces]


RUN = REPO_FIXTURES.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["validate-desk", "convert-desk", "detect-scale"])
def test_benchmark_pass_fails_no_operation(workload, monkeypatch):
    """perfbench/run.py, read and run here without writing under perfbench/:
    one pass of each workload at seed 1, on deep copies of its inputs as
    every timed pass runs, gets every verdict right and raises nowhere."""
    monkeypatch.syspath_prepend(str(RUN.parent))
    module = types.ModuleType("perfbench_run")
    module.__file__ = str(RUN)
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for its dataclass
    try:
        exec(compile(RUN.read_text(), str(RUN), "exec"), vars(module))
        lib = module.workloads.Library()
        ops = module.workloads.build(lib, workload, 1, REPO_FIXTURES.parent)
        assert module.run_pass(lib, ops).failures == []
    finally:
        for name in ("reference", "tracer", "workloads"):  # run.py's own imports
            sys.modules.pop(name, None)
