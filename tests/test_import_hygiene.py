"""Library modules import only what they use.

An unused import costs load time (``graphs/generators.py`` once pulled in
the shortest-path module for nothing) and hides which layer a module really
depends on.  No linter is installed, so this test scans every module under
``src/repro`` for module-level imports whose bound name is never read.  An
import marked ``# noqa: F401`` is a deliberate re-export, and so are the
imports of ``__init__.py`` files and the names a module lists in
``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent


def _module_imports(body: list):
    """Import statements at module level, including under ``if``/``try``."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            yield from _module_imports(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _module_imports(
                stmt.body + stmt.orelse + stmt.finalbody
                + [s for handler in stmt.handlers for s in handler.body])


def _string_names(node: ast.AST) -> set:
    """Names inside the string constants of an annotation (forward refs)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def used_names(tree: ast.Module) -> set:
    """Every name the module reads, quotes in an annotation or exports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _string_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _string_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _string_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= _string_names(node.value)
    return used


def unused_imports(source: str) -> list:
    """``(line, name)`` of every unused module-level import in ``source``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = used_names(tree)
    hits = []
    for stmt in _module_imports(tree.body):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("noqa: F401" in lines[i - 1]
               for i in range(stmt.lineno, stmt.end_lineno + 1)):
            continue
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                hits.append((stmt.lineno, bound))
    return hits


def test_detector_flags_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import xml.dom\n"
              "from typing import TYPE_CHECKING, List, Optional\n"
              "from json import (dumps,  # noqa: F401\n"
              "                  loads)\n"
              "from math import pi, tau\n"
              "if TYPE_CHECKING:\n"
              "    from repro.graphs.trees import Tree\n"
              "try:\n"
              "    import scipy\n"
              "except ImportError:\n"
              "    scipy = None\n"
              "__all__ = ['pi']\n"
              "def f(x: 'Optional[Tree]') -> List[int]:\n"
              "    import sys\n"
              "    return [np.size(x), xml.dom]\n")
    assert unused_imports(source) == [(2, "os"), (8, "tau")]


def test_library_has_no_unused_imports():
    offenders = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        hits = unused_imports(path.read_text())
        if hits:
            offenders[str(path.relative_to(SRC_ROOT))] = hits
    assert not offenders, f"unused imports in library code: {offenders}"
