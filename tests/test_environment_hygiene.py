"""Library code reads a fixed set of environment variables and never writes.

A module that sets, pops or updates ``os.environ`` leaks its state into
every other caller in the process (and into forked workers), so a check
that flips an env var to pick a code path is a latent cross-test bug.
This test scans every module under ``src/repro`` for such writes, and pins
the ``REPRO_*`` variables it reads: a new knob needs an edit here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: ``os.environ`` methods that mutate the mapping
MUTATORS = {"pop", "popitem", "update", "setdefault", "clear",
            "__setitem__", "__delitem__"}

#: every environment variable the library reads
ENVIRONMENT_SURFACE = {
    "REPRO_BENCH_FULL",
    "REPRO_DENSE_NODE_LIMIT",
    "REPRO_DISTANCE_BACKEND",
    "REPRO_MEMORY_BUDGET",
    "REPRO_ROW_SPILL_BYTES",
    "REPRO_SPILL_DIR",
    "REPRO_TOPOLOGY_DIR",
}


def _is_environ(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def environ_writes(source: str) -> list:
    """Line numbers of every ``os.environ`` write in ``source``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and _is_environ(target.value):
                hits.append(node.lineno)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in MUTATORS and _is_environ(func.value):
                hits.append(node.lineno)
            if func.attr in ("putenv", "unsetenv"):
                hits.append(node.lineno)
    return sorted(hits)


def environ_reads(source: str) -> set:
    """Names read through ``os.environ.get(...)`` or ``os.environ[...]``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        key = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and _is_environ(node.func.value) \
                and node.args:
            key = node.args[0]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value) \
                and isinstance(node.ctx, ast.Load):
            key = node.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            names.add(key.value)
    return names


def test_detector_flags_every_write_form():
    source = ("import os\n"
              "os.environ['A'] = '1'\n"
              "os.environ.pop('A', None)\n"
              "os.environ.update(B='2')\n"
              "del os.environ['B']\n"
              "os.environ.setdefault('C', '3')\n"
              "os.putenv('D', '4')\n"
              "value = os.environ.get('E')\n")
    assert environ_writes(source) == [2, 3, 4, 5, 6, 7]


def test_library_never_writes_os_environ():
    offenders = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        hits = environ_writes(path.read_text())
        if hits:
            offenders[str(path.relative_to(SRC_ROOT))] = hits
    assert not offenders, f"os.environ writes in library code: {offenders}"


def test_library_reads_only_the_pinned_environment():
    read = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        read |= environ_reads(path.read_text())
    assert read == ENVIRONMENT_SURFACE
