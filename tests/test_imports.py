"""The package imports in one direction, and imports nothing it leaves unused.

Each module of src/squigonometry is parsed with ast, not imported: no import
of the package sits inside a function, where it would hide a cycle, the
module-level imports between the package's modules form an acyclic graph,
and every name a module-level import binds is read somewhere in its module.
No module imports threading: the package shares no mutable object, so it
holds no lock.
The benchmark's tracer is parsed the same way, so that every package name it
wraps is checked to exist without importing the benchmark.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from graphlib import TopologicalSorter
from pathlib import Path

import squigonometry as sg

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "squigonometry"
TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"


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


def _unused_imports(tree: ast.Module) -> list[str]:
    # The names bound by module-level imports, __future__'s aside, that no
    # Name node of the module reads and no string of its __all__ re-exports.
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            named |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return [name for name in bound if name not in named]


def test_every_module_level_import_is_used():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    assert unused == {}, f"module-level imports never used: {unused}"


def test_unused_import_scan_sees_a_dead_import():
    tree = ast.parse("from __future__ import annotations\nimport math, numbers\n"
                     "from .errors import shown as named, check_int\n__all__ = ['named']\n"
                     "def f(x):\n    return math.floor(x)\n")
    assert _unused_imports(tree) == ["numbers", "check_int"]


def _threading_imports(tree: ast.Module) -> list[int]:
    # The lines of every import of threading or _thread, at any depth.
    names = {"threading", "_thread"}
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Import) and any(alias.name.split(".")[0] in names for alias in node.names))
                  or (isinstance(node, ast.ImportFrom) and node.level == 0
                      and (node.module or "").split(".")[0] in names))


def test_no_module_imports_threading():
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := _threading_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}, f"modules importing threading: {found}"
    tree = ast.parse("import os\ndef f():\n    import threading\nfrom _thread import allocate_lock\n")
    assert _threading_imports(tree) == [3, 4]


def test_benchmark_tracer_names_exist():
    # perfbench/tracer.py wraps each (module, function) of its TARGETS by
    # name, reads compute_pi.cache_info and reads iterations off the PiRecord
    # it returns; a package change that drops one breaks the benchmark.
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert pairs
    missing = [f"{module}.{name}" for module, name in pairs
               if not callable(getattr(importlib.import_module(f"squigonometry.{module}"), name, None))]
    assert missing == []
    assert callable(sg.constants.compute_pi.cache_info)
    assert "iterations" in {field.name for field in dataclasses.fields(sg.PiRecord)}
