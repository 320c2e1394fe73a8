"""Tests of the benchmark itself: the known-answer oracle, the tracer's
wrapping, the repeatability of traced counts, and the metric names that
BENCHMARK.json declares.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _ops(name: str, seed: int = 1):
    lib = workloads.import_library()
    return lib, workloads.build(lib, name, seed, ROOT)


def _cheap_slice(ops):
    """The operations of the smallest desk slot (pair2 with one-dimensional
    fibers) and the Z2 fixtures, to keep the tests quick."""
    return [op for op in ops
            if "pair2 (1, 1)" in op.label or op.label.startswith("fixture z2")]


def test_oracle_counts_wrong_verdict_and_raising_op_without_aborting():
    lib, ops = _ops("validate-desk")
    ops = list(_cheap_slice(ops))
    assert len(ops) > 4
    ops[1] = dataclasses.replace(ops[1], expected=not ops[1].expected)
    ops.append(workloads.Op("validate", "planted: not an instance file", True, "{"))
    result = run.run_pass(lib, ops)
    assert len(result.latencies_s) == len(ops)
    assert sorted(i for i, _ in result.failures) == [1, len(ops) - 1]
    assert "verdict differs" in result.failures[0][1]
    assert "JSONDecodeError" in result.failures[1][1]


def test_every_known_answer_holds_on_a_desk_slot():
    lib, ops = _ops("convert-desk")
    result = run.run_pass(lib, _cheap_slice(ops))
    assert result.failures == []


def test_wrapping_reaches_names_imported_by_value():
    lib = workloads.import_library()
    vb, ruth, cochains = lib.vb, lib.ruth, lib.cochains
    kernel_basis, twisted, vec_add = vb.kernel_basis, ruth.twisted_differential, cochains.vec_add
    apply = lib.linalg.LinearMap.apply
    t = tracing.Tracer()
    with t.patched():
        assert t.unpatched_references() == []
        assert vb.kernel_basis is not kernel_basis and vb.kernel_basis is lib.linalg.kernel_basis
        assert ruth.twisted_differential is not twisted
        assert cochains.vec_add is not vec_add
        assert lib.linalg.LinearMap.apply is not apply
        t.mark_pass()
        r, _ = workloads.shaped_ruth(lib, "wrap", "z2", (1, 1), 2)
        assert ruth.square_is_zero(r).passed
    assert vb.kernel_basis is kernel_basis and ruth.twisted_differential is twisted
    assert cochains.vec_add is vec_add and lib.linalg.LinearMap.apply is apply
    metrics, _ = t.layer_metrics()
    for name in ("ruth.square_is_zero", "ruth.total_operator", "cochains.twisted_differential",
                 "cochains.SectionCochain", "linalg.vec_add", "linalg.LinearMap.apply"):
        assert metrics[f"{name}.calls"] > 0, name


def _verdicts(lib, ops):
    return [workloads.RUNNERS[op.kind](lib, copy.deepcopy(op.payload)) for op in ops]


def test_traced_and_untraced_runs_give_identical_verdicts():
    for name in ("validate-desk", "convert-desk"):
        lib, ops = _ops(name)
        ops = _cheap_slice(ops)
        plain = _verdicts(lib, ops)
        with tracing.Tracer().patched():
            traced = _verdicts(lib, ops)
        assert traced == plain
        assert plain == [op.expected for op in ops]
    lib, ops = _ops("detect-scale")
    r, _ = workloads.shaped_ruth(lib, "verdicts", "z2", (2, 1), 3)
    small = [dataclasses.replace(op, payload=r) for op in ops[:4]]
    plain = _verdicts(lib, small)
    with tracing.Tracer().patched():
        assert _verdicts(lib, small) == plain == [True] * 4


def _traced_counts(seed: int):
    lib, vops = _ops("validate-desk", seed)
    validate_digest = workloads.digest(lib, vops)
    # The tracer patches the latest import, which the operations must use.
    lib, ops = _ops("convert-desk", seed)
    ops = _cheap_slice(ops)
    t = tracing.Tracer()
    with t.patched():
        run.run_pass(lib, ops, t)
    metrics, repeatable = t.layer_metrics()
    assert repeatable
    return ({k: v for k, v in metrics.items() if not k.endswith(".self_s")},
            workloads.digest(lib, ops), validate_digest)


def test_traced_counts_and_input_digests_repeat_for_a_seed():
    first, second = _traced_counts(3), _traced_counts(3)
    assert first == second
    assert first[0]["vb.VBGroupoid.multiply.calls"] > 0
    other = _traced_counts(4)
    assert other[1] != first[1] and other[2] != first[2]


def test_benchmark_json_names_exactly_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    ops = [workloads.Op("validate", "x", True, "")]
    e2e = run.e2e_metrics([0.1], ops, [run.Pass([0.1, 0.2], [0.01, 0.01])])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}
    t = tracing.Tracer()
    t.mark_pass()
    one = run.Pass([0.1], [0.01])
    layers, _ = run.layer_metrics(t, ops, [one], [one])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in layers.items()}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
