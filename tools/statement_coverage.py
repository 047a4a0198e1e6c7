"""Fail unless the test suite runs every statement of src/squigonometry.

Usage, from any directory:

    python tools/statement_coverage.py

Installs a line tracer (sys.settrace and threading.settrace) before the
package is imported, runs pytest on tests/ in this process with the ci
Hypothesis profile, and then checks every statement of the package's
modules as the ast module parses them.  A statement counts as run when
any line of its own span, from its first decorator or keyword to its last
line, produced a line event.  Docstrings are exempt, and so is the body
of an `if __name__ == "__main__":` block, which only `python -m` reaches.

Exit status: pytest's own status when the tests fail, 1 when a statement
never ran (each one is listed as path:line), 0 otherwise.  It uses the
standard library and pytest only, and runs several times slower than the
plain suite.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "squigonometry"


def _docstring(node: ast.AST) -> ast.stmt | None:
    body = getattr(node, "body", None)
    if (
        isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[0]
    return None


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of every statement in path that must run."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    exempt: set[ast.AST] = set()
    for node in ast.walk(tree):
        doc = _docstring(node)
        if doc is not None:
            exempt.add(doc)
        if _is_main_guard(node):
            for child in node.body:
                exempt.update(ast.walk(child))
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node not in exempt:
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            spans.append((first, node.end_lineno))
    return sorted(spans)


def main() -> int:
    sources = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: set[tuple[str, int]] = set()
    wanted: dict[str, bool] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        hit = wanted.get(name)
        if hit is None:
            hit = wanted[name] = os.path.realpath(name) in sources
        return trace_lines if hit else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        import pytest

        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-profile=ci", str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"statement coverage: the tests failed (pytest exit status {status})")
        return int(status)
    imported = os.path.realpath(sys.modules["squigonometry"].__file__)
    if imported not in sources:
        print(f"statement coverage: the tests imported {imported}, not the package in {PACKAGE}")
        return 1
    lines_run: dict[str, set[int]] = {}
    for name, line in ran:
        lines_run.setdefault(os.path.realpath(name), set()).add(line)
    missed = []
    total = 0
    for name, path in sources.items():
        hit = lines_run.get(name, set())
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in statements(path):
            total += 1
            if hit.isdisjoint(range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    for line in missed:
        print(line)
    print(f"statement coverage: {total - len(missed)} of {total} statements ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
