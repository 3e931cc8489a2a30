"""Byte-for-byte checks of score-free files written for the mini fixture
against the copies under ``tests/data/golden/``: the ``kgte index`` JSON
header of each kind and the ``save_dataset`` files. The header holds no
vectors, so the check does not depend on the host's floating-point rounding.
"""

from __future__ import annotations

import pytest

from kgte import load_dataset, save_dataset
from kgte.cli import main
from kgte.vector_index import EXAMPLE_EMBED_MODES, NODE_KINDS
from conftest import DATA_DIR

GOLDEN = DATA_DIR / "golden"


@pytest.mark.parametrize("embed_mode", EXAMPLE_EMBED_MODES)
@pytest.mark.parametrize("kind", NODE_KINDS)
def test_index_header(mini_manifest, tmp_path, kind, embed_mode):
    header = tmp_path / f"{kind}.index.json"
    args = ["index", "--manifest", str(mini_manifest), "--kind", kind, "--embed-mode", embed_mode, "--out", str(header)]
    assert main(args) == 0
    assert header.read_bytes() == (GOLDEN / header.name).read_bytes()


def test_save_dataset_files(mini_manifest, tmp_path):
    save_dataset(load_dataset(mini_manifest), tmp_path)
    expected = sorted(path.name for path in (GOLDEN / "dataset").iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "dataset" / name).read_bytes(), name
