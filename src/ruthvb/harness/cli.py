"""Command line: validate, convert, roundtrip, fuzz, report.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from ..errors import RuthVBError, StructureError, UsageError
from ..groupoid import validate_groupoid
from ..linalg import json_typed
from ..reports import Report
from ..ruth import validate_morphism, validate_ruth
from ..semidirect import semidirect
from ..twoterm import (extract_chain_map, extract_homotopy, phi_object,
                       phi_onemorphism, phi_twomorphism, split_bundle)
from ..vb import validate_vb
from ..weak import (action_groupoid_bundle, act_on_morphism, validate_equivariant,
                    validate_weak_representation)
from ..equivalences import (reconstruct_equivariant, ruth_from_wrep,
                            ruth_from_wrep_with_witness, triangle_witness, vb_to_wrep,
                            wrep_from_ruth)
from . import fixtures, generators, serialize


def _validator_for(kind: str):
    return {
        "groupoid": validate_groupoid,
        "complex": lambda c: Report("complex"),
        "ruth": validate_ruth,
        "morphism": validate_morphism,
        "vb": validate_vb,
        "wrep": validate_weak_representation,
        "equivariant": validate_equivariant,
    }[kind]


def _emit(report: Report, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def cmd_validate(args) -> int:
    kind, obj, _ = serialize.load_instance(Path(args.file).read_text(),
                                           expect_kind=args.kind)
    t0 = time.perf_counter()
    report = _validator_for(kind)(obj)
    report.subject = f"{kind} {args.file}"
    report.seconds = time.perf_counter() - t0
    return _emit(report, args.format)


CONVERSIONS = {
    ("ruth", "wrep"): "wrep",
    ("wrep", "ruth"): "ruth",
    ("ruth", "vb"): "vb",
    ("wrep", "vb"): "vb",
    ("vb", "wrep"): "wrep",
}


def cmd_convert(args) -> int:
    if (args.from_kind, args.to_kind) not in CONVERSIONS:
        raise UsageError(f"unsupported conversion {args.from_kind} -> {args.to_kind}")
    kind, obj, _ = serialize.load_instance(Path(args.file).read_text(),
                                           expect_kind=args.from_kind)
    pre = _validator_for(kind)(obj)
    if not pre.passed:
        pre.subject = f"input {kind} {args.file}"
        print(pre.to_text(), file=sys.stderr)
        return 1
    metadata = {"conversion": f"{args.from_kind}->{args.to_kind}"}
    if (args.from_kind, args.to_kind) == ("ruth", "wrep"):
        out = wrep_from_ruth(obj, validate=False)
    elif (args.from_kind, args.to_kind) == ("wrep", "ruth"):
        out, witness = ruth_from_wrep_with_witness(obj)
        wrep_report = validate_equivariant(witness)
        if not wrep_report.passed:
            print(wrep_report.to_text(), file=sys.stderr)
            return 1
        metadata["witness"] = "validated equivariant isomorphism onto the input"
    elif (args.from_kind, args.to_kind) == ("ruth", "vb"):
        out = semidirect(obj, validate=False)
    elif (args.from_kind, args.to_kind) == ("wrep", "vb"):
        out = action_groupoid_bundle(obj)
    else:
        result = vb_to_wrep(obj, validate=False)
        out = result.wrep
        metadata["connection"] = result.connection.rule
        metadata["witness"] = "validated action-groupoid isomorphism onto the input"
    post = _validator_for(args.to_kind)(out)
    if not post.passed:
        post.subject = "converted output"
        print(post.to_text(), file=sys.stderr)
        return 1
    text = serialize.dumps_instance(args.to_kind, out, metadata)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def _draw(args, rng, obj, generate):
    """The trial's input: the given instance, or one drawn by ``generate``
    over a base groupoid within the bounds flags."""
    if obj is not None:
        return obj
    g = generators.random_groupoid(rng, args.max_objects, args.max_arrows)
    return generate(rng, g, args.max_dim)


def _pipeline_ruth_vb(args, rng, obj, report, trial):
    r = _draw(args, rng, obj, generators.random_ruth)
    sd = semidirect(r, validate=False)
    rep = validate_vb(sd)
    report.extend(rep, prefix=f"trial {trial}: semidirect: ")
    res = vb_to_wrep(sd, validate=False)
    back = ruth_from_wrep(res.wrep)
    if back != r:
        report.add("ruth-vb-roundtrip", f"trial {trial}",
                   "recovered representation equals input", "differs")


def _pipeline_vb_wrep(args, rng, obj, report, trial):
    v = _draw(args, rng, obj, generators.random_vb)
    res = vb_to_wrep(v, validate=False)
    rep = validate_weak_representation(res.wrep)
    report.extend(rep, prefix=f"trial {trial}: kernel action: ")


def _pipeline_wrep_ruth(args, rng, obj, report, trial):
    w = _draw(args, rng, obj, generators.random_wrep)
    r, witness = ruth_from_wrep_with_witness(w)
    rep = validate_ruth(r)
    report.extend(rep, prefix=f"trial {trial}: recovered: ")
    rep = validate_equivariant(witness)
    report.extend(rep, prefix=f"trial {trial}: witness: ")


def _pipeline_triangle(args, rng, obj, report, trial):
    r = _draw(args, rng, obj, generators.random_ruth)
    try:
        triangle_witness(r, validate=False)
    except RuthVBError as exc:
        report.add("triangle", f"trial {trial}", "verified isomorphism", str(exc))


def _pipeline_phi_hom(args, rng, obj, report, trial):
    c = generators.random_complex(rng, max_dim=args.max_dim, max_points=args.max_objects)
    d = generators.random_complex(rng, c.base, max_dim=args.max_dim)
    f = generators.random_chain_map(rng, c, d)
    if extract_chain_map(phi_onemorphism(f)) != f:
        report.add("phi-hom", f"trial {trial} (chain map)", "exact recovery", "differs")
    h = generators.random_homotopy_from(rng, f)
    if extract_homotopy(phi_twomorphism(h)) != h:
        report.add("phi-hom", f"trial {trial} (homotopy)", "exact recovery", "differs")
    c2, iso = split_bundle(phi_object(c))
    if c2 != c or not all(m.is_identity() for m in iso.arr_maps.values()):
        report.add("phi-hom", f"trial {trial} (split)", "identity change of basis",
                   "nontrivial")


def _pipeline_act_ff(args, rng, obj, report, trial):
    e = _draw(args, rng, obj, generators.random_equivariant)
    phi = act_on_morphism(e, validate=False)
    back = reconstruct_equivariant(phi, e.source, e.target)
    if back != e:
        report.add("act-ff", f"trial {trial}", "reconstruction equals input", "differs")
    if act_on_morphism(back, validate=False) != phi:
        report.add("act-ff", f"trial {trial}", "round trip fixes the map", "differs")


PIPELINES = {
    "ruth-vb": (_pipeline_ruth_vb, "ruth"),
    "vb-wrep": (_pipeline_vb_wrep, "vb"),
    "wrep-ruth": (_pipeline_wrep_ruth, "wrep"),
    "triangle": (_pipeline_triangle, "ruth"),
    "phi-hom": (_pipeline_phi_hom, None),
    "act-ff": (_pipeline_act_ff, "equivariant"),
}


def cmd_roundtrip(args) -> int:
    runner, file_kind = PIPELINES[args.pipeline]
    obj = None
    if args.file:
        if file_kind is None:
            raise UsageError(f"pipeline {args.pipeline} does not take an input file")
        _, obj, _ = serialize.load_instance(Path(args.file).read_text(),
                                            expect_kind=file_kind)
        pre = _validator_for(file_kind)(obj)
        if not pre.passed:
            print(pre.to_text(), file=sys.stderr)
            return 1
    rng = random.Random(args.seed)
    report = Report(f"roundtrip {args.pipeline} ({args.trials} trial(s), seed {args.seed})")
    t0 = time.perf_counter()
    for trial in range(args.trials):
        runner(args, rng, obj if trial == 0 else None, report, trial)
    report.seconds = time.perf_counter() - t0
    return _emit(report, args.format)


FUZZ_KINDS = {
    "groupoid": (lambda rng, g, max_dim: g, validate_groupoid,
                 generators.mutate_groupoid_comp),
    "ruth": (generators.random_ruth, validate_ruth, generators.mutate_ruth_unit_cell),
    "vb": (generators.random_vb, validate_vb, generators.mutate_vb_cell),
    "wrep": (generators.random_wrep, validate_weak_representation,
             generators.mutate_wrep_alpha_unit),
    "equivariant": (generators.random_equivariant, validate_equivariant,
                    generators.mutate_equivariant_delta_unit),
}

FUZZ_POOL_CAP = 6


def run_fuzz(rng: random.Random, trials: int, max_objects: int = 4,
             max_arrows: int = 12, max_dim: int = 2) -> tuple[Report, int, int]:
    """Mutation-kill loop: each trial mutates a valid instance from a small
    per-kind pool and asserts the kind's validator flags it.  Roughly one in
    ten trials is a no-op control that must still validate."""
    report = Report(f"fuzz ({trials} trial(s))")
    pools: dict[str, list] = {k: [] for k in FUZZ_KINDS}
    killed = controls = 0
    for trial in range(trials):
        kind = rng.choice(tuple(FUZZ_KINDS))
        generate, validator, mutate = FUZZ_KINDS[kind]
        pool = pools[kind]
        if len(pool) < FUZZ_POOL_CAP:
            base = generate(rng, generators.random_groupoid(rng, max_objects, max_arrows),
                            max_dim)
            if not validator(base).passed:
                report.add("generator", f"trial {trial} ({kind})",
                           "valid generated instance", "invalid")
                continue
            pool.append(base)
        base = pool[rng.randrange(len(pool))]
        if rng.random() < 0.1:
            controls += 1
            if not validator(base).passed:
                report.add("control", f"trial {trial} ({kind})",
                           "no-op mutation stays valid", "flagged")
            continue
        mutated = mutate(rng, base)
        if mutated is None:
            controls += 1
            continue
        instance, desc = mutated
        if validator(instance).passed:
            report.add("mutation-escape", f"trial {trial} ({kind}) {desc}",
                       "validator flags the mutation", "passed validation")
        else:
            killed += 1
    return report, killed, controls


def cmd_fuzz(args) -> int:
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    report, killed, controls = run_fuzz(rng, args.trials, args.max_objects,
                                        args.max_arrows, args.max_dim)
    report.seconds = time.perf_counter() - t0
    report.subject = (f"fuzz ({args.trials} trial(s), seed {args.seed})"
                      f" [killed {killed}, controls {controls}]")
    return _emit(report, args.format)


def cmd_report(args) -> int:
    # integers parse as floats, so that any JSON number formats as seconds
    doc = serialize.parse_json(Path(args.file).read_text(), parse_int=float)
    if not isinstance(doc, dict) or "verdict" not in doc:
        raise StructureError("not a report file")
    rep = Report(json_typed(doc.get("subject", args.file), str, "subject"),
                 seconds=json_typed(doc.get("seconds", 0.0), float, "seconds"))
    for e in json_typed(doc.get("entries", []), list, "entries"):
        e = json_typed(e, dict, "entries entry")
        rep.add(*[json_typed(e.get(k), str, k)
                  for k in ("check", "location", "expected", "actual")])
    print(rep.to_text())
    return 0 if rep.passed else 1


def cmd_fixtures(args) -> int:
    for path in fixtures.write_fixture_files(args.dir):
        print(path)
    return 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ruthvb",
        description="Exact checks and conversions for representations up to "
                    "homotopy, weak representations, and VB-groupoids over "
                    "finite groupoids.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    def bounds(sp, trials):
        # a run of no trials, or over no groupoid, would pass vacuously
        sp.add_argument("--trials", type=_at_least(1), default=trials)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--max-objects", type=_at_least(1), default=4)
        sp.add_argument("--max-arrows", type=_at_least(1), default=12)
        sp.add_argument("--max-dim", type=_at_least(0), default=3)

    sp = sub.add_parser("validate", help="run the kind's validator on an instance file")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=serialize.KINDS)
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("convert", help="convert along a supported edge")
    sp.add_argument("file")
    sp.add_argument("--from", dest="from_kind", required=True, choices=serialize.KINDS)
    sp.add_argument("--to", dest="to_kind", required=True, choices=serialize.KINDS)
    sp.add_argument("--out")
    common(sp)
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("roundtrip", help="run an equivalence pipeline with witnesses")
    sp.add_argument("file", nargs="?")
    sp.add_argument("--pipeline", required=True, choices=sorted(PIPELINES))
    bounds(sp, 10)
    common(sp)
    sp.set_defaults(func=cmd_roundtrip)

    sp = sub.add_parser("fuzz", help="mutation-kill run over generated instances")
    bounds(sp, 50)
    common(sp)
    sp.set_defaults(func=cmd_fuzz)

    sp = sub.add_parser("report", help="render a machine report as text")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("fixtures", help="write the canonical fixture files")
    sp.add_argument("dir")
    sp.set_defaults(func=cmd_fixtures)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError, StructureError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except RuthVBError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
