"""numpy stays behind the embedding layer, requests behind a real endpoint,
and generation behind prompt text.

Only ``encoder`` and ``vector_index`` compute with arrays, and they import
numpy inside the functions that do (or under ``if TYPE_CHECKING:`` for
annotations), so a process that embeds nothing never loads it. The AST walk
keeps a module-level import from coming back. Only ``_transport`` imports
requests, inside the default transport, so no run that talks to no endpoint
loads it. The subprocess checks run in fresh interpreters, because this one
has numpy and requests loaded already, and report both. The same walk
keeps ``extraction`` from importing ``prompting``: the LLM client sends the
rendered prompt text and knows no template. And ``encoder`` imports neither
``parsing`` nor ``Triplet``: it turns text into vectors, and the triplet line
it embeds is written by ``parsing``. The run's pool is the one concurrency
owner: only ``analysis`` imports ``threading`` or ``concurrent.futures``, so
no client holds a lock or a semaphore, and no module draws a ``uuid``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgte
from conftest import DATA_DIR
from test_unused_imports import MODULES

NUMPY_MODULES = {"encoder.py", "vector_index.py"}


def _imports(tree: ast.Module, module: str) -> list[tuple[int, bool]]:
    """Each import of ``module`` with its line and whether it is deferred:
    inside a function body or under ``if TYPE_CHECKING:``. A ``kgte``
    module counts when it is named relatively (``from .m``, ``from . import
    m``) or through ``kgte`` (``import kgte.m``, ``from kgte import m``)."""
    found = []

    def visit(node: ast.AST, deferred: bool) -> None:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" if node.module else alias.name for alias in node.names]
        else:
            names = []
        if any(name.removeprefix("kgte.").split(".")[0] == module for name in names):
            found.append((node.lineno, deferred))
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            for child in node.body:
                visit(child, True)
            for child in node.orelse:
                visit(child, deferred)
            return
        inner = deferred or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", [*MODULES, Path(kgte.__file__)], ids=lambda p: p.name)
def test_numpy_is_imported_only_where_arrays_are_built(path):
    imports = _imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "numpy")
    if path.name not in NUMPY_MODULES:
        assert not imports, f"{path.name} imports numpy (line {imports[0][0]}); only {sorted(NUMPY_MODULES)} may"
    eager = [line for line, deferred in imports if not deferred]
    assert not eager, f"{path.name} imports numpy at module level (line {eager[0]}); import it inside the function"


@pytest.mark.parametrize("path", [*MODULES, Path(kgte.__file__)], ids=lambda p: p.name)
def test_only_analysis_owns_concurrency(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {"threading", "concurrent"} if path.name == "analysis.py" else set()
    for module in ("threading", "concurrent", "uuid"):
        imports = _imports(tree, module)
        assert module in allowed or not imports, f"{path.name} imports {module} (line {imports[0][0]}); only analysis.py may import threading or concurrent.futures, and no module uuid"


@pytest.mark.parametrize("path", [*MODULES, Path(kgte.__file__)], ids=lambda p: p.name)
def test_only_the_default_transport_imports_requests(path):
    imports = _imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "requests")
    if path.name != "_transport.py":
        assert not imports, f"{path.name} imports requests (line {imports[0][0]}); only _transport.py may"
    assert all(deferred for _, deferred in imports), f"{path.name} imports requests at module level"


def test_the_walk_tells_deferred_from_eager_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    import numpy.typing\n"
        "else:\n"
        "    from numpy import ndarray\n"
        "class C:\n"
        "    import numpy\n"
        "    def f(self):\n"
        "        from numpy.linalg import norm\n"
        "import numbers\n"
    )
    assert _imports(ast.parse(source), "numpy") == [(2, False), (4, True), (6, False), (8, False), (10, True)]


def test_the_walk_finds_sibling_imports_however_spelled():
    source = (
        "from .prompting import render\n"
        "from . import prompting\n"
        "import kgte.prompting\n"
        "from kgte.prompting import MODES\n"
        "from kgte import prompting as p\n"
        "from .retriever import RetrievedContext\n"
        "from kgte import MODES\n"
        "def f():\n"
        "    from .prompting import PromptInstance\n"
    )
    assert _imports(ast.parse(source), "prompting") == [(1, False), (2, False), (3, False), (4, False), (5, False), (9, True)]


def test_extraction_does_not_import_prompting():
    path = Path(kgte.__file__).parent / "extraction.py"
    assert _imports(ast.parse(path.read_text(encoding="utf-8")), "prompting") == []


def test_encoder_imports_neither_parsing_nor_triplet():
    path = Path(kgte.__file__).parent / "encoder.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _imports(tree, "parsing") == []
    names = [alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert "Triplet" not in names


MANIFEST = DATA_DIR / "mini" / "manifest.json"

# one snippet per run; each is run in a fresh interpreter, which then reports
# whether numpy and requests were loaded; none talks to an endpoint, so none
# may load requests
LOADS_NO_NUMPY = {
    "load-and-kb": "ds = kgte.load_dataset(M); kgte.build_kb(ds.train, ds.validation)",
    "extract-static2": "assert main(['extract', '--manifest', M, '--mode', 'static2', '--extractor', 'oracle-gold', '--out', W + '/x']) == 0",
    "extract-zero": "assert main(['extract', '--manifest', M, '--mode', 'zero', '--extractor', 'random', '--out', W + '/x']) == 0",
    "ingest": "assert main(['ingest', '--manifest', M, '--out', W + '/stats.json']) == 0",
    "eval": "assert main(['eval', '--pred', W + '/pred.jsonl', '--gold', D + '/test.jsonl', '--out', W + '/r.json']) == 0",
    "fit": "assert main(['fit', '--input', W + '/points.csv', '--out', W + '/fit.json']) == 0",
}
LOADS_NUMPY = {
    "index": "assert main(['index', '--manifest', M, '--out', W + '/kb.index.json']) == 0",
    "sweep-p": "assert main(['sweep-p', '--manifest', M, '--nkb-list', '1,2', '--out', W + '/curve.csv']) == 0",
    "ablate": "assert main(['ablate', '--manifest', M, '--scales', '0.5,1', '--out', W + '/ablation.json']) == 0",
    "retrieve": (
        "ds = kgte.load_dataset(M); index = kgte.build_index(kgte.build_kb(ds.train, ds.validation), 'triplet'); "
        "kgte.retrieve_triplets(ds.test[0].text, index, 5)"
    ),
}


def _loaded(snippet: str, work: Path) -> dict[str, bool]:
    (work / "pred.jsonl").write_text('[["Colosseum", "located_in", "Rome"]]\n[]\n[]\n[]\n', encoding="utf-8")
    (work / "points.csv").write_text("x,y\n0,1\n1,3\n2,5\n", encoding="utf-8")
    program = (
        "import sys\n"
        "import kgte\n"
        "from kgte.cli import main\n"
        f"M, D, W = {str(MANIFEST)!r}, {str(MANIFEST.parent)!r}, {str(work)!r}\n"
        f"{snippet}\n"
        "print(repr({name: name in sys.modules for name in ('numpy', 'requests')}))\n"
    )
    source = str(Path(kgte.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("snippet", LOADS_NO_NUMPY.values(), ids=LOADS_NO_NUMPY.keys())
def test_runs_that_embed_nothing_load_no_numpy(snippet, tmp_path):
    assert _loaded(snippet, tmp_path) == {"numpy": False, "requests": False}


@pytest.mark.parametrize("snippet", LOADS_NUMPY.values(), ids=LOADS_NUMPY.keys())
def test_runs_that_embed_load_numpy(snippet, tmp_path):
    assert _loaded(snippet, tmp_path) == {"numpy": True, "requests": False}
