"""List the function-body statements of ``src/ruthvb`` that a test run never reaches.

Run from the repository root::

    python tools/line_coverage.py                  # the whole suite under tests/
    python tools/line_coverage.py tests/test_ruth.py -k leibniz

The arguments, if any, are passed to ``pytest.main``, which runs in this
process under ``sys.settrace`` and ``threading.settrace``.  The source of
every module under ``src/ruthvb`` is read once, before ``pytest.main``
starts, and that snapshot is what is parsed and printed afterwards, so a
file edited while the tests run is not read against line numbers of the
code that ran.  Each statement inside a function body (docstrings aside)
whose lines never ran is printed as ``path:line: text``, module by module.
A compound statement counts as run when its header ran.

Python drops a trace function that raises, as a tracer called near the
recursion limit does (hypothesis's garbage-collector callback can run while
the JSON decoder is deep in a nested test file), and a test can stop tracing
in other ways too, so a plugin passed to ``pytest.main`` checks
``sys.gettrace()`` after each test and re-installs the tracer when it is
gone; the lines that ran while it was gone are not seen.  The exit status
is pytest's when a test fails; otherwise it is 2 when the tracer was lost,
naming the first test during which it was, then 1 when any statement is
listed and 0 when none is, so the whole suite is a gate.

Only code that runs in this interpreter is seen: a test that starts a
subprocess (a fresh import, the benchmark's self-test) adds nothing.  A line
tracer is slow: the whole suite takes about four times as long as without
it (about 220 s against 60 s on a 2-vCPU VM).  Needs only the standard
library and pytest; coverage.py is not required.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ruthvb"


class _Watch:
    """pytest plugin: after each test, re-install ``tracer`` if it is no
    longer the trace function, and keep the first such test's id."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.lost: str | None = None

    def pytest_runtest_logfinish(self, nodeid, location):
        if sys.gettrace() is not self.tracer:
            self.lost = self.lost or nodeid
            sys.settrace(self.tracer)


def _trace_lines(run):
    """Run ``run(plugin)``, ``plugin`` a :class:`_Watch` on the tracer;
    return its result, the lines it executed, per file under PACKAGE, and
    the first test during which the tracer was lost, or None."""
    prefix = str(PACKAGE)
    ran: dict[str, set[int]] = {}

    def global_trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = ran.setdefault(path, set())

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        lines.add(frame.f_lineno)
        return local_trace

    watch = _Watch(global_trace)
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        result = run(watch)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran, watch.lost


def _header_lines(stmt: ast.stmt) -> range:
    """The lines a statement starts on: its decorators and header for a
    compound statement, all of it otherwise."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, stmt.lineno + 1))
    return range(first, stmt.end_lineno + 1)


def _body_statements(tree: ast.Module):
    """Every statement inside a function body, docstrings left out."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if ast.get_docstring(node, clean=False) is not None:
                body = body[1:]
            yield from _nested(body)


def _nested(statements):
    for stmt in statements:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # a nested function's body is walked as a function of its own
        for field in ("body", "orelse", "finalbody"):
            yield from _nested(getattr(stmt, field, ()))
        for handler in getattr(stmt, "handlers", ()):
            yield from _nested(handler.body)
        for case in getattr(stmt, "cases", ()):
            yield from _nested(case.body)


def never_run(ran: dict[str, set[int]], sources: dict[Path, str]) -> dict[Path, list[int]]:
    """For each module of ``sources``, the first lines of the function-body
    statements none of whose header lines ran."""
    out = {}
    for path, source in sources.items():
        lines = ran.get(str(path), set())
        tree = ast.parse(source, str(path))
        out[path] = sorted({stmt.lineno for stmt in _body_statements(tree)
                            if not lines.intersection(_header_lines(stmt))})
    return out


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    sources = {path: path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    status, ran, lost = _trace_lines(
        lambda watch: pytest.main(argv or ["-q", str(ROOT / "tests")], plugins=[watch]))
    listed = 0
    for path, missed in never_run(ran, sources).items():
        source = sources[path].splitlines()
        name = path.relative_to(ROOT)
        print(f"{name}: {len(missed)} statement(s) never ran")
        for line in missed:
            print(f"  {name}:{line}: {source[line - 1].strip()}")
        listed += len(missed)
    if lost is not None:
        print(f"the tracer was lost during {lost} and re-installed after it;"
              " the lines that ran while it was gone are missing from this list")
    return int(status) or (2 if lost is not None else int(listed > 0))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
