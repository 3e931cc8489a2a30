"""Byte-for-byte checks of score-free files written for the mini fixture
against the copies under ``tests/data/golden/``: the ``kgte index`` JSON
header of each kind, the ``save_dataset`` files, the rendered prompt of
every prompt kind in every mode, and the ``report.json``, ``sentences.jsonl``
and ``spec.json`` of ``kgte extract`` in the two modes without retrieval. The
header holds no vectors and the prompt contexts are built by hand from KB
records, with no retrieval, so the checks do not depend on the host's
floating-point rounding. The ``triplets`` and ``examples`` extract runs stay
out: their contexts are top-k rankings, which can differ in the last bits of
a score, and so in tie order, between hosts.
"""

from __future__ import annotations

import pytest

from kgte import RetrievedContext, build_kb, get_template, load_dataset, render, save_dataset
from kgte.cli import main
from kgte.prompting import MODES, PROMPT_KINDS
from kgte.vector_index import EXAMPLE_EMBED_MODES
from conftest import DATA_DIR

GOLDEN = DATA_DIR / "golden"


@pytest.mark.parametrize("kind,embed_mode", [("triplet", "sentence"), *(("example", mode) for mode in EXAMPLE_EMBED_MODES)])
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


@pytest.mark.parametrize("extractor", ["oracle-gold", "random"])
@pytest.mark.parametrize("mode", ["zero", "static2"])
def test_extract_outputs(monkeypatch, tmp_path, mode, extractor):
    # run from the data directory, so spec.json records the same relative manifest path on every host
    monkeypatch.chdir(DATA_DIR)
    out = tmp_path / "run"
    args = ["extract", "--manifest", "mini/manifest.json", "--mode", mode, "--extractor", extractor, "--out", str(out)]
    assert main(args) == 0
    golden = GOLDEN / "extract" / f"{mode}-{extractor}"
    assert sorted(path.name for path in out.iterdir()) == ["report.json", "sentences.jsonl", "spec.json"]
    for path in out.iterdir():
        assert path.read_bytes() == (golden / path.name).read_bytes(), path.name


def _prompt_inputs(manifest):
    """The first test sentence, the fixture's max triplet count and, per mode,
    a hand-built context: the first five KB triplets or the first three KB
    examples, in KB order, under made-up descending scores."""
    dataset = load_dataset(manifest)
    kb = build_kb(dataset.train, dataset.validation)
    triplets = tuple((t, 1.0 - i / 10) for i, t in enumerate(kb.triplets[:5]))
    examples = tuple((ex, 1.0 - i / 10) for i, ex in enumerate(kb.examples[:3]))
    contexts = {
        "zero": None,
        "static2": None,
        "triplets": RetrievedContext(mode="triplets", items=triplets, n_kb_requested=5),
        "examples": RetrievedContext(mode="examples", items=examples, n_kb_requested=3),
    }
    return dataset.test[0].text, dataset.max_triplets, contexts


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", PROMPT_KINDS)
def test_prompt(mini_manifest, kind, mode):
    sentence, max_triplets, contexts = _prompt_inputs(mini_manifest)
    prompt = render(get_template(kind, mode), sentence, max_triplets, contexts[mode])
    assert not prompt.truncated
    assert prompt.rendered.encode("utf-8") == (GOLDEN / "prompts" / f"{kind}__{mode}.txt").read_bytes()


@pytest.mark.parametrize(("mode", "budget", "kept"), [("triplets", 388, 2), ("examples", 515, 1)])
def test_truncated_prompt(mini_manifest, mode, budget, kept):
    sentence, max_triplets, contexts = _prompt_inputs(mini_manifest)
    prompt = render(get_template("base", mode), sentence, max_triplets, contexts[mode], budget)
    assert prompt.truncated and prompt.context_items_included == kept
    assert prompt.rendered.encode("utf-8") == (GOLDEN / "prompts" / f"base__{mode}__budget{budget}.txt").read_bytes()
