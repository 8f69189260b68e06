"""Statements of the package that no benchmark workload executes.

    python scripts/traffic_lines.py

Imports the package, then runs ``setup`` (workload seed 0) and one
``round`` of each workload in ``perfbench/workloads.py``, all under
``sys.settrace``, so a function the import calls counts as reached.  It
checks every op with the workload's own ``check`` and prints
``file:line: statement`` for each statement inside a function of
``src/tracereg`` that no op reached.
``raise`` statements are left out: the workloads feed valid inputs, so
the error paths stay cold by design.  A compound statement (``if``,
``for``, ``with``, ``try``, a nested ``def``) counts as reached when its
header ran, and a statement without bytecode (a docstring, ``else:``)
is never listed.  ``perfbench/workloads.py`` is only read, with
``load_workloads``, which ``tests/test_bench_hooks.py`` shares.

Exits 1 when an op's check fails, 0 otherwise.  One pass takes about 2 s
and peaks near 100 MB (the pool of n = 64001 inputs).
"""

import ast
import importlib.util
import os
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_workloads():
    # workloads.py imports its sibling ``stats`` as a top-level module; both
    # the path entry and (unless it was there before) ``stats`` go again
    had_stats = "stats" in sys.modules
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
        if not had_stats:
            sys.modules.pop("stats", None)
    return module


def traced(fn, prefix: str) -> set[tuple[str, int]]:
    """Run ``fn()`` and return the (file, line) pairs it executed in
    files whose path starts with ``prefix``."""
    executed: set[tuple[str, int]] = set()

    def on_line(frame, event, _arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, _event, _arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return executed


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def unreached(path: str, executed: set[int]) -> list[tuple[int, str]]:
    """(line, text) of each statement inside a function of the file at
    ``path``, ``raise`` aside, none of whose own lines is in ``executed``.
    A compound statement owns its header lines only."""
    with open(path) as fh:
        source = fh.read()
    code_lines = _code_lines(compile(source, path, "exec"))
    text = source.splitlines()
    stmts = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.stmt) and node is not fn:
                    stmts[node.lineno, node.col_offset] = node
    out = []
    for (line, _), node in sorted(stmts.items()):
        if isinstance(node, ast.Raise):
            continue
        children = [c.lineno for field in ("body", "orelse", "finalbody", "handlers")
                    for c in getattr(node, field, ())]
        start = min([line] + [d.lineno for d in getattr(node, "decorator_list", ())])
        end = min(children) if children else node.end_lineno + 1
        own = set(range(start, max(end, line + 1)))
        if own & code_lines and not own & executed:
            out.append((line, text[line - 1].strip()))
    return out


def main() -> int:
    workloads = load_workloads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    package = os.path.dirname(importlib.util.find_spec("tracereg").origin)
    failed: list[str] = []

    def one_round():
        import tracereg  # noqa: F401  (traced: the import runs in every process)
        with tempfile.TemporaryDirectory() as workdir:
            for name in workloads.WORKLOADS:
                workload = workloads.make(name, workdir)
                workload.setup(0)
                for op in workload.round():
                    failed.extend(f"{name}: {reason}" for reason in
                                  workload.check(op, workload.run(op)))

    executed = traced(one_round, package + os.sep)
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            path = os.path.join(package, fname)
            lines = {line for f, line in executed if f == path}
            for line, stmt in unreached(path, lines):
                print(f"{os.path.relpath(path, ROOT)}:{line}: {stmt}")
    for reason in failed:
        print(f"check failed: {reason}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
