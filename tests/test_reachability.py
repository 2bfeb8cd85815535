"""Every module-level function and class in `src/absalab`, and every
non-dunder method and property of its classes, has a caller.

A definition counts as reached when some `Name`, `Attribute` or import in
the package, the demos or the benchmark harness names it. Tests do not
count: code that only a test reaches belongs next to that test.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "absalab"


def _definitions(path: Path) -> list[tuple[str, str]]:
    """(qualified name, name) of each module-level function and class, and
    of each non-dunder method or property of a class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [(node.name, node.name) for node in tree.body if isinstance(node, (*functions, ast.ClassDef))]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            found += [(f"{cls.name}.{node.name}", node.name) for node in cls.body
                      if isinstance(node, functions) and not (node.name.startswith("__") and node.name.endswith("__"))]
    return found


def _names_used(paths) -> set[str]:
    used: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2] for alias in node.names)
    return used


def test_every_package_definition_is_named_outside_tests():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = _names_used(sources)
    unreached = [f"{path.stem}.{qualified}" for path in sorted(PACKAGE.glob("*.py"))
                 for qualified, name in _definitions(path) if name not in used]
    assert unreached == []
