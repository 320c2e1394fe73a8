"""Benchmark of the ruthvb toolkit: time to a correct verdict and to a
verified conversion.

Run from the root of a checkout:

    python3 perfbench/run.py --workload validate-desk --seed 1 --seconds 20 --trace 0

Each run is one single-threaded process, a closed loop with one client.
It imports ``ruthvb`` from ``src/`` and generates the workload's inputs
from the seed (set-up, repeated and reported as a median), runs one
untimed warm-up pass over the fixed operation set, then repeats timed
passes until ``--seconds`` have gone by.  Every pass works on fresh copies
of the inputs, so no pass reuses what an earlier one cached on them.
Every verdict is checked against the answer known from how the input was
made; a wrong verdict or an exception is a failed operation, and the run
goes on.

A fixed reference task (``reference.py``) runs between operations, and
timings are reported in units of it (``ref``): that cancels the drift of
a shared machine's speed.  The wall-clock timings are printed as well and
kept in the run record.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` every plain pass is followed by a traced one, with every
traced ``ruthvb`` function wrapped, and the run prints per-layer metrics
instead, with the tracing overhead measured against the passes next to
them.  The last line of standard output is one JSON object; the run
record and the spans go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads
from reference import reference_task

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5


@dataclass
class Pass:
    """Per operation: its latency and the reference task's time next to it
    (the mean of the runs just before and just after)."""
    latencies_s: list[float] = field(default_factory=list)
    refs_s: list[float] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def latencies_ref(self) -> list[float]:
        return [t / r for t, r in zip(self.latencies_s, self.refs_s)]


def run_pass(lib, ops, tracer: tracing.Tracer | None = None) -> Pass:
    """One pass over ``ops`` on fresh copies of their inputs.  A wrong
    verdict or an exception fails that operation only."""
    payloads = [copy.deepcopy(op.payload) for op in ops]
    if tracer is not None:
        tracer.mark_pass()
    result = Pass()
    ref_before = reference_task()
    for i, (op, payload) in enumerate(zip(ops, payloads)):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            if not workloads.run_op(lib, op, payload):
                want = "PASS" if op.expected else "FAIL"
                result.failures.append((i, f"verdict differs from the known {want}"))
        except Exception:  # a raising operation counts as failed; the run goes on
            result.failures.append((i, traceback.format_exc()))
        result.latencies_s.append(perf_counter() - t0)
        ref_after = reference_task()
        result.refs_s.append((ref_before + ref_after) / 2)
        ref_before = ref_after
    return result


def run_timed(lib, ops, seconds: float, tracer: tracing.Tracer | None = None):
    """Whole passes until ``seconds`` have gone by, at least one.  With a
    tracer, each pass is followed by a traced pass.  Returns the plain and
    the traced passes."""
    plain, traced = [], []
    begin = perf_counter()
    while not plain or perf_counter() - begin < seconds:
        plain.append(run_pass(lib, ops))
        if tracer is not None:
            with tracer.patched():
                traced.append(run_pass(lib, ops, tracer))
    return plain, traced


def env_block() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count()}


def _per_kref(ops, passes: list[Pass]) -> float:
    """Operations per thousand reference tasks: the median over passes."""
    return statistics.median(len(ops) / sum(p.latencies_ref) for p in passes) * 1e3


def band_mean(samples: list[float], low: float, high: float) -> float:
    """Mean of the samples ranked between the ``low`` and ``high`` quantiles:
    a percentile estimate that averages the operations around it, since
    any one operation's cost moves with the seed."""
    ranked = sorted(samples)
    lo = int(low * len(ranked))
    return statistics.fmean(ranked[lo:max(int(high * len(ranked)), lo + 1)])


def e2e_metrics(setup_s: list[float], ops, passes: list[Pass]) -> dict:
    latencies = [t for p in passes for t in p.latencies_ref]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_kref": (_per_kref(ops, passes), "1/kref"),
        "latency_p50_ref": (band_mean(latencies, 0.40, 0.60), "ref"),
        "latency_p90_ref": (band_mean(latencies, 0.85, 0.95), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall_clock_metrics(ops, passes: list[Pass]) -> dict:
    """The same timings in wall-clock units, as the drift left them."""
    latencies = [t for p in passes for t in p.latencies_s]
    return {
        "ops_per_s": (statistics.median(len(ops) / sum(p.latencies_s) for p in passes), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "reference_ms": (statistics.median(r for p in passes for r in p.refs_s) * 1e3, "ms"),
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_per_call"):
        return "ratio"
    return {"calls": "count", "self_s": "s", "errors": "count"}[name.rsplit(".", 1)[1]]


def layer_metrics(tracer: tracing.Tracer, ops, plain: list[Pass],
                  traced: list[Pass]) -> tuple[dict, bool]:
    values, repeatable = tracer.layer_metrics()
    out = {name: (value, _layer_unit(name)) for name, value in values.items()}
    traced_rate = _per_kref(ops, traced)
    out["traced.ops_per_kref"] = (traced_rate, "1/kref")
    out["traced.overhead"] = (_per_kref(ops, plain) / traced_rate, "ratio")
    out["traced.spans_per_pass"] = (tracer.span_count / len(traced), "count")
    return out, repeatable


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ruthvb" / "__init__.py").is_file() \
            or not any((ROOT / "fixtures").glob("*.json")):
        print(f"perfbench: {ROOT} is not a ruthvb checkout (needs src/ruthvb and fixtures/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = workloads.import_library()
        ops = workloads.build(lib, args.workload, args.seed, ROOT)
        setup_s.append(perf_counter() - t0)
    inputs_sha256 = workloads.digest(lib, ops)

    warmup = run_pass(lib, ops)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = run_timed(lib, ops, args.seconds, tracer)
    if tracer is not None:
        metrics, repeatable = layer_metrics(tracer, ops, plain, traced)
    else:
        metrics, repeatable = e2e_metrics(setup_s, ops, plain), True

    wall_clock = wall_clock_metrics(ops, plain)
    passes = plain + traced
    attempted = len(ops) * (1 + len(passes))
    failures = warmup.failures + [f for p in passes for f in p.failures]
    first_failure = dict(reversed(failures))
    for i, reason in sorted(first_failure.items()):
        print(f"perfbench: op {i} ({ops[i].kind}, {ops[i].label}) failed: {reason}",
              file=sys.stderr)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": inputs_sha256, "env": env_block(),
        "ops_per_pass": len(ops), "timed_passes": len(plain), "traced_passes": len(traced),
        "latency_samples": len(ops) * len(plain), "setup_s": setup_s,
        "warmup_op_s": sum(warmup.latencies_s),
        "pass_op_s": [sum(p.latencies_s) for p in plain],
        "traced_pass_op_s": [sum(p.latencies_s) for p in traced],
        "wall_clock": _as_json(wall_clock),
        "ops": [{"kind": op.kind, "label": op.label,
                 "ms": [p.latencies_s[i] * 1e3 for p in plain],
                 "ref_ms": [p.refs_s[i] * 1e3 for p in plain]} for i, op in enumerate(ops)],
        "attempted": attempted, "failed": len(failures),
        "failed_ops": sorted({f"{ops[i].kind}: {ops[i].label}" for i, _ in failures}),
        "calls_repeat_across_passes": repeatable,
        "metrics": _as_json(metrics),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans")

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops per pass, 1 warm-up pass, {len(plain)} timed passes, "
          f"{len(traced)} traced passes, {len(ops) * len(plain)} latency samples")
    print(f"inputs_sha256 {inputs_sha256}")
    print(f"env {json.dumps(env_block(), sort_keys=True)}")
    print(f"error_rate {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    if not repeatable:
        print("warning: traced passes made different calls", file=sys.stderr)
    for name, (value, unit) in wall_clock.items():
        print(f"wall-clock {name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": _as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
