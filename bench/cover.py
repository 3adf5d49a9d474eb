"""Line coverage of ``src/cinorm`` with the standard library alone.

    python3 bench/cover.py --workload scans --seconds 20 --json scans.json
    python3 bench/cover.py --json tier1.json --tests -q -x
    python3 bench/cover.py --merge scans.json tier1.json

Run from the repository root.  ``--tests`` runs pytest in this process, with
the arguments that follow it (so it comes last), and ``--workload`` runs
``perfbench/run.py --trace 0`` in this process; either way a line tracer
(``sys.settrace``, and ``threading.settrace`` for the threads it starts)
records the lines of ``src/cinorm`` that run.  The set-up probes of
``perfbench/run.py`` are separate processes and are not traced, and
``--seconds`` sets its job list as it does there.  Tracing slows the traced
code two- to fourfold: Tier-1 took 156 s traced against 52 s, on 2 shared
cores with Python 3.11.7.  ``--merge`` reads the ``--json`` files of
earlier runs instead.

For each module the report gives the statements that ran out of its
statements, read with ``ast`` (docstrings, ``global`` and ``nonlocal`` run
no code and are left out), then each function that no run entered.  A
statement ran when any line of it ran; for a compound statement that is any
line of its header, decorators included.  ``--json FILE`` writes the lines
that ran, per module, so that runs can be merged, and the statements that
did not run, per module, each as its first line and that line's source.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import sys
import threading
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cinorm"


def trace(root: Path, run: Callable[[], object]) -> dict[str, set[int]]:
    """The lines of the ``*.py`` files under ``root`` that ``run()`` executes,
    in this thread and in the threads it starts, keyed by path relative to
    ``root``.  The trace functions in place before are put back after."""
    prefix = os.path.realpath(root) + os.sep
    lines: dict[str, set[int]] = {}
    local_of: dict[str, Callable | None] = {}

    def local_for(filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(prefix):
            return None
        hit = lines.setdefault(path[len(prefix):], set())

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        local = local_of.get(filename, False)
        if local is False:
            local = local_of[filename] = local_for(filename)
        return local

    before, before_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(before)
        threading.settrace(before_threads)
    return lines


def _runs_code(node: ast.stmt) -> bool:
    docstring = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                 and isinstance(node.value.value, str))
    return not docstring and not isinstance(node, (ast.Global, ast.Nonlocal))


def _span(node: ast.stmt) -> range:
    """The lines whose events count for a statement: all of a simple one, the
    header of a compound one, decorators included."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(start, max(node.lineno + 1, body[0].lineno))
    return range(start, node.end_lineno + 1)


def module_map(path: Path) -> tuple[dict[int, range], list[tuple[str, int, list[range]]]]:
    """``(statements, functions)`` of one source file: the span of each
    statement that runs code, by its first line, and each function's
    qualified name, first line and the spans of its own statements."""
    tree = ast.parse(path.read_text())
    statements = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and _runs_code(node):
            statements[node.lineno] = _span(node)
    functions = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    own = [_span(s) for s in child.body if _runs_code(s)]
                    if own:
                        functions.append((name, child.lineno, own))
                visit(child, name + ".")
            else:
                visit(child, prefix)
    visit(tree, "")
    return statements, functions


def summarize(root: Path, lines: dict[str, set[int]]) -> tuple[list[tuple], list[str]]:
    """``(rows, never)``: ``(file, statements run, statements)`` for each
    ``*.py`` file under ``root``, and ``file:line name`` for each function
    that none of ``lines`` entered."""
    rows, never = [], []
    for path in sorted(root.glob("*.py")):
        hit = lines.get(path.name, set())
        statements, functions = module_map(path)
        ran = sum(not hit.isdisjoint(span) for span in statements.values())
        rows.append((path.name, ran, len(statements)))
        never += [f"{path.name}:{line} {name}" for name, line, own in functions
                  if all(hit.isdisjoint(span) for span in own)]
    return rows, never


def missed_statements(root: Path, lines: dict[str, set[int]]) -> dict[str, list]:
    """``[line, source]`` of each statement of each ``*.py`` file under
    ``root`` that none of ``lines`` ran, by its first line, keyed by file."""
    missed = {}
    for path in sorted(root.glob("*.py")):
        hit = lines.get(path.name, set())
        source = path.read_text().splitlines()
        statements, _ = module_map(path)
        missed[path.name] = [[line, source[line - 1].strip()]
                             for line, span in sorted(statements.items())
                             if hit.isdisjoint(span)]
    return missed


def format_summary(rows: list[tuple], never: list[str]) -> str:
    out = [f"{'module':<20} {'run':>6} {'of':>6} {'share':>7}"]
    for name, ran, total in rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
        out.append(f"{name:<20} {ran:>6} {total:>6} {ran / max(total, 1):>7.1%}")
    out.append(f"\nfunctions never run ({len(never)}):")
    out += [f"  {x}" for x in never]
    return "\n".join(out)


def _run_script(argv: list[str]) -> Callable[[], object]:
    def run():
        saved = sys.argv
        sys.argv = argv
        try:
            runpy.run_path(argv[0], run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise
        finally:
            sys.argv = saved
    return run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tests", nargs=argparse.REMAINDER, metavar="PYTEST_ARGS",
                      help="run pytest with these arguments under the tracer")
    mode.add_argument("--workload", choices=("tables", "scans", "words"))
    mode.add_argument("--merge", nargs="+", type=Path, metavar="JSON",
                      help="report the union of earlier --json files")
    p.add_argument("--seconds", type=float, default=20, help="for --workload")
    p.add_argument("--json", type=Path, help="write the lines that ran here")
    args = p.parse_args(argv)
    code = 0
    if args.merge:
        lines: dict[str, set[int]] = {}
        for path in args.merge:
            for name, hit in json.loads(path.read_text())["lines"].items():
                lines.setdefault(name, set()).update(hit)
    elif args.workload:
        lines = trace(PACKAGE, _run_script(
            [str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seconds", str(args.seconds), "--trace", "0"]))
    else:
        import pytest

        def run_tests():
            nonlocal code
            code = pytest.main(args.tests)
        sys.path.insert(0, str(ROOT / "src"))
        lines = trace(PACKAGE, run_tests)
    if args.json:
        args.json.write_text(json.dumps(
            {"lines": {name: sorted(hit) for name, hit in sorted(lines.items())},
             "missed": missed_statements(PACKAGE, lines)}))
    print(format_summary(*summarize(PACKAGE, lines)))
    return code


if __name__ == "__main__":
    sys.exit(main())
