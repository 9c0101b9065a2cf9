"""Every name a module of the package, or a module of the tests, imports
is used there, or exported through its ``__all__``: a stdlib-``ast``
check, as no linter is installed, that catches the imports a deletion
leaves behind.  The concrete interpreter ``tests/conc.py`` imports neither
the prover nor the domains it is the ground truth for."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "shaperef"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """The names the module reads, in code, in annotations (quoted ones
    too) and in ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and n.returns]
    for ann in annotations:
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                         if isinstance(m, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})"
            for name, line in sorted(imported_names(tree).items())
            if name not in used]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_conc_imports_neither_the_prover_nor_the_domains():
    """In a fresh interpreter, ``import conc`` loads the CFG it runs and
    nothing of the symbolic side."""
    code = ("import sys, conc; print(sorted(m for m in sys.modules "
            "if m.startswith('shaperef')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    loaded = set(ast.literal_eval(done.stdout))
    assert "shaperef.cfg" in loaded
    assert not loaded & {"shaperef.prover", "shaperef.domains"}


def test_the_check_finds_an_unused_import():
    source = '''\
from __future__ import annotations
import itertools
import os.path
from typing import Optional, Sequence
from .terms import Term, NIL

__all__ = ["NIL"]

def f(xs: "Sequence[int]") -> Optional[int]:
    return os.path.sep
'''
    assert unused_imports(source) == ["Term (line 5)", "itertools (line 2)"]
