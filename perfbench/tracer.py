"""Span tracer for the benchmark's traced run.

It wraps the public functions of each ``ruthvb`` module from outside the
program.  A wrapper has to replace every reference the program calls
through: the function in its defining module, the copies other modules
imported by value (``from .linalg import kernel_basis``), and methods on
their class.  Otherwise those calls bypass the span.

Each call records one span ``(name, start, end, parent, op)``.  Spans are
kept in flat arrays in memory and written out when the run ends.  A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

# Functions traced, by module under ``ruthvb``.  A dotted entry names a
# method; ``SectionCochain.__init__`` stands for constructing the class.
TRACED = {
    "linalg": ("compose", "LinearMap.apply", "vec_add", "vec_sub", "solve",
               "kernel_basis", "inverse", "rank", "right_inverse_on_image"),
    "groupoid": ("validate_groupoid", "FiniteGroupoid.nerve_tuples"),
    "vb": ("VBGroupoid.multiply", "VBGroupoid.pair_basis", "validate_vb",
           "validate_vb_map", "find_unital_connection", "kernel_groupoid"),
    "twoterm": ("split_bundle", "phi_object"),
    "cochains": ("twisted_differential", "SectionCochain.__init__"),
    "ruth": ("validate_ruth", "validate_morphism", "total_operator", "square_is_zero"),
    "semidirect": ("semidirect",),
    "weak": ("validate_weak_representation", "validate_equivariant",
             "action_groupoid_bundle", "ActionChart.encode", "ActionChart.decode",
             "act_on_morphism"),
    "equivalences": ("vb_to_wrep", "ruth_from_wrep", "wrep_from_ruth",
                     "triangle_witness", "reconstruct_equivariant"),
    "harness.serialize": ("load_instance",),
}

# Child-per-call ratios: (metric, parent span, child span).  Each counts the
# child spans whose direct parent is the named span, per parent call.
RATIOS = (
    ("vb.multiply.solves_per_call", "vb.VBGroupoid.multiply", "linalg.solve"),
    ("vb.pair_basis.kernels_per_call", "vb.VBGroupoid.pair_basis", "linalg.kernel_basis"),
    ("weak.ActionChart.encode.solves_per_call", "weak.ActionChart.encode", "linalg.solve"),
)

# Spans whose ``.errors`` count is reported: the functions that raise on
# these workloads (``CompositionError`` on mutated VB-groupoids).  Raises
# anywhere else still show in ``traced.errors``.
ERRORS_REPORTED = ("vb.VBGroupoid.multiply",)


def span_names() -> list[str]:
    """Every span name, in the order of TRACED."""
    return [_span_name(module, path) for module, paths in TRACED.items()
            for path in paths]


def _span_name(module: str, path: str) -> str:
    return f"{module}.{path.removesuffix('.__init__')}"


def _namespaces():
    """The loaded ``ruthvb`` modules and every ``ruthvb`` class they hold."""
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "ruthvb" or name.startswith("ruthvb.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("ruthvb"):
                yield value


class Tracer:
    """Owns the span arrays and the patches that feed them.  It patches
    the ``ruthvb`` modules loaded in ``sys.modules`` at the time.

    Use ``with tracer.patched(): ...`` around traced work; set ``op`` to the
    index of the operation in flight and call ``mark_pass()`` at the start
    of each pass."""

    def __init__(self):
        self.names = span_names()
        self.op = -1
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._raised: list[int] = []
        self._stack: list[int] = []
        self._pass_starts: list[int] = []
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def _wrap(self, sid: int, fn):
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack, raised = self._start, self._end, self._stack, self._raised
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def patch(self) -> None:
        """Replace every reference to a traced function in the loaded
        ``ruthvb`` modules and on their classes."""
        if self._patches:
            raise RuntimeError("tracer is already patched in")
        sid = 0
        for module_name, paths in TRACED.items():
            module = sys.modules[f"ruthvb.{module_name}"]
            for path in paths:
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    if attr not in vars(owner):
                        raise RuntimeError(f"{module_name}.{path} is not defined on its class")
                fn = getattr(owner, attr)
                self._originals[id(fn)] = fn
                self._wrappers[id(fn)] = self._wrap(sid, fn)
                sid += 1
        for namespace in _namespaces():
            self._replace_in(namespace)

    def _replace_in(self, namespace) -> None:
        for attr, value in list(vars(namespace).items()):
            if self._is_original(value):
                setattr(namespace, attr, self._wrappers[id(value)])
                self._patches.append((namespace, attr, value))

    def _is_original(self, value) -> bool:
        return id(value) in self._originals and self._originals[id(value)] is value

    def unpatch(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()
        self._wrappers.clear()
        self._originals.clear()

    @contextlib.contextmanager
    def patched(self):
        self.patch()
        try:
            yield self
        finally:
            self.unpatch()

    def unpatched_references(self) -> list[str]:
        """Module or class attributes that still hold an unwrapped traced
        function while patched in; empty when wrapping is complete."""
        return [f"{namespace.__name__}.{attr}" for namespace in _namespaces()
                for attr, value in vars(namespace).items()
                if self._is_original(value)]

    # -- spans --------------------------------------------------------------------

    def mark_pass(self) -> None:
        self._pass_starts.append(len(self._start))

    @property
    def span_count(self) -> int:
        return len(self._start)

    def pass_stats(self) -> list[dict]:
        """Per pass: calls, self seconds and errors by span name, and
        child-span counts by (parent name, child name)."""
        n = len(self._start)
        durations = [e - s for s, e in zip(self._start, self._end)]
        child_time = [0.0] * n
        for i, p in enumerate(self._parent):
            if p >= 0:
                child_time[p] += durations[i]
        bounds = self._pass_starts + [n]
        raised = sorted(self._raised)
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            calls = [0] * len(self.names)
            self_s = [0.0] * len(self.names)
            errors = [0] * len(self.names)
            children: dict[tuple[int, int], int] = {}
            for i in range(lo, hi):
                sid = self._name[i]
                calls[sid] += 1
                self_s[sid] += durations[i] - child_time[i]
                p = self._parent[i]
                if p >= 0:
                    key = (self._name[p], sid)
                    children[key] = children.get(key, 0) + 1
            for i in raised:
                if lo <= i < hi:
                    errors[self._name[i]] += 1
            out.append({"calls": calls, "self_s": self_s, "errors": errors,
                        "children": children})
        return out

    def layer_metrics(self) -> tuple[dict[str, float], bool]:
        """Per-layer metrics over the traced passes, and whether every pass
        made the same calls.  Counts and ratios come from the first pass;
        self times are the median over passes."""
        stats = self.pass_stats()
        if not stats:
            raise RuntimeError("no traced pass was recorded")
        first = stats[0]
        same = all(s["calls"] == first["calls"] and s["children"] == first["children"]
                   and s["errors"] == first["errors"] for s in stats)
        index = {name: i for i, name in enumerate(self.names)}
        metrics: dict[str, float] = {}
        for i, name in enumerate(self.names):
            metrics[f"{name}.calls"] = first["calls"][i]
            metrics[f"{name}.self_s"] = statistics.median(s["self_s"][i] for s in stats)
            if name in ERRORS_REPORTED:
                metrics[f"{name}.errors"] = first["errors"][i]
        metrics["traced.errors"] = sum(first["errors"])
        for metric, parent, child in RATIOS:
            base = first["calls"][index[parent]]
            count = first["children"].get((index[parent], index[child]), 0)
            metrics[metric] = count / base if base else 0.0
        return metrics, same

    def write(self, path: Path) -> None:
        """Write the spans: ``path`` holds the raw arrays, ``path.json``
        their layout and the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (("name", self._name), ("parent", self._parent), ("op", self._op),
                   ("start", self._start), ("end", self._end))
        with open(path, "wb") as fh:
            for _, column in columns:
                column.tofile(fh)
        layout = {
            "spans": len(self._start),
            "columns": [{"field": f, "typecode": c.typecode, "itemsize": c.itemsize}
                        for f, c in columns],
            "names": self.names,
            "pass_starts": self._pass_starts,
            "raised": sorted(self._raised),
        }
        Path(f"{path}.json").write_text(json.dumps(layout, indent=1) + "\n")

