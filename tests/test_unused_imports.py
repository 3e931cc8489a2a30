"""No module under ``src/kgte`` imports a name it never uses.

No linter is a dependency, so this walks each module's AST: every name an
``import`` binds must be read somewhere in the module. ``__init__.py`` only
re-exports, ``from __future__`` imports are directives, and an import line
marked ``# noqa: F401`` is kept on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import kgte

MODULES = sorted(p for p in Path(kgte.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name an import binds, with its line, minus the exempt imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree, source.splitlines()).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: " + ", ".join(
        f"{name} (line {line})" for name, line in sorted(unused.items(), key=lambda item: item[1])
    )


def test_the_walk_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os  # noqa: F401\n"
        "from typing import Sequence\n"
        "from pathlib import Path\n"
        "x: 'Sequence[int]' = ['json']\n"
        "def f(p: 'Path') -> None: ...\n"
    )
    tree = ast.parse(source)
    imported = _imported_names(tree, source.splitlines())
    assert {name for name in imported if name not in _used_names(tree)} == {"json"}
