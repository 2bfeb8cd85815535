"""Every module-level function and class in `src/absalab`, and every
non-dunder method and property of its classes, has a caller.

A definition counts as reached when some `Name`, `Attribute` or import in
the package, the demos or the benchmark harness names it. Tests do not
count: code that only a test reaches belongs next to that test. In the
same way, every `ExperimentConfig` field is read somewhere in the package.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from absalab.harness import ExperimentConfig

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


def test_every_config_field_is_read_outside_its_checks():
    """A config knob that nothing reads is dead: each `ExperimentConfig`
    field must be read as an attribute, by name, somewhere in the package
    outside `__post_init__`, whose range checks do not count as a use."""
    read: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        checks = {id(node) for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef) and function.name == "__post_init__"
                  for node in ast.walk(function)}
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in checks)
    unread = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in read]
    assert unread == []
