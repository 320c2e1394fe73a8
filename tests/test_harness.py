"""Instance files, CLI verbs, determinism, and the mutation-kill harness."""

import contextlib
import copy
import dataclasses
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ruthvb import linalg
from ruthvb.harness import cli, fixtures, generators as gen, serialize
from ruthvb.harness.cli import main, run_fuzz
from ruthvb.groupoid import FiniteGroupoid, disjoint_union, z2_groupoid
from ruthvb.ruth import identity_morphism
from ruthvb.semidirect import semidirect
from ruthvb.weak import identity_equivariant
from ruthvb.equivalences import wrep_from_ruth, wrep_from_ruth_morphism

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


def test_cli_convert_rejects_invalid_input(capsys):
    bad = str(REPO_FIXTURES / "z2-ruth-broken4.json")
    assert main(["convert", bad, "--from", "ruth", "--to", "vb"]) == 1


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
