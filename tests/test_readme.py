"""README's code runs as written, so a public name it uses cannot vanish
from ``kgte`` unnoticed."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

from conftest import DATA_DIR

README = Path(__file__).parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first python code block under README's ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_sketch_runs_on_the_mini_fixture(tmp_path, monkeypatch):
    shutil.copytree(DATA_DIR / "mini", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_python_block("## Library sketch"), "README.md", "exec"), namespace)
    assert sorted(namespace["p_at"]) == [1, 5, 10]
    assert "sentence to process" in namespace["prompt"].rendered
