"""The package imports in one direction.

Each module of src/squigonometry is parsed with ast, not imported: no import
of the package sits inside a function, where it would hide a cycle, and the
module-level imports between the package's modules form an acyclic graph.
"""

from __future__ import annotations

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "squigonometry"


def _targets(node: ast.AST) -> list[str]:
    # The package modules an import statement names: from .x import ...,
    # from . import x, y, and the same spelled from squigonometry.
    if isinstance(node, ast.ImportFrom):
        inside = node.level > 0 or (node.module or "").split(".")[0] == "squigonometry"
        if not inside:
            return []
        module = (node.module or "").removeprefix("squigonometry").lstrip(".")
        return [module.split(".")[0]] if module else [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("squigonometry.")]
    return []


def test_package_imports_run_one_way():
    graph: dict[str, set[str]] = {}
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {t for node in tree.body for t in _targets(node)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.stem}.{func.name}" for node in ast.walk(func) if _targets(node)]
    assert nested == [], f"package imports inside functions: {nested}"
    order = list(TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert set(order) == set(graph) and graph["errors"] == set()
    assert order.index("constants") < order.index("evalcore") < order.index("cli")
