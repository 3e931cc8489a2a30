"""Byte-for-byte checks of score-free files written for the mini fixture
against the copies under ``tests/data/golden/``: the ``kgte index`` JSON
header of each kind and example embed mode, the ``save_dataset`` files, the rendered prompt of
every prompt kind in every mode, and the ``report.json``, ``sentences.jsonl``
and ``spec.json`` of ``kgte extract`` in the two modes without retrieval (and
the replay of each run's ``spec.json`` as written before the spec held an
``encoder`` record, kept under ``legacy-spec/``). The
header holds no vectors and the prompt contexts are built by hand from KB
records, with no retrieval, so the checks do not depend on the host's
floating-point rounding. The ``triplets`` and ``examples`` extract runs stay
out: their contexts are top-k rankings, which can differ in the last bits of
a score, and so in tie order, between hosts.

The files of ``kgte index --scale 0.5 --seed 2`` are pinned by SHA-256, the
``.npy`` matrix included: a downscaled index is a selection of the full
KB's rows, and it must save exactly as the index built from the retained KB
alone does. Each row is the unit vector of integer n-gram counts, so its
bytes do not depend on BLAS.

The ``kgte`` commands whose JSON or CSV re-serializes result records are
pinned too, under ``cli/``: ``ingest``, ``eval`` of a checked-in prediction
file (a hit, a miss, an extra triplet, gold sets of one and two triplets),
``sweep-p``, ``ablate`` with its points CSV and ``fit`` of that CSV. The
sweep and the ablation do rank, but on the mini fixture every pair of
neighbouring scores in each test sentence's top six differs by more than
0.002, far above any rounding difference, so their order is the same on
every host.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from kgte import PromptTemplate, RetrievedContext, build_kb, load_dataset, render, replay_experiment, save_dataset
from kgte.cli import main
from kgte.prompting import MODES, PROMPT_KINDS
from kgte.vector_index import EXAMPLE_EMBED_MODES
from conftest import DATA_DIR

GOLDEN = DATA_DIR / "golden"
CLI_GOLDEN = GOLDEN / "cli"
MINI = DATA_DIR / "mini" / "manifest.json"


@pytest.mark.parametrize("kind,embed_mode", [("triplet", "sentence"), *(("example", mode) for mode in EXAMPLE_EMBED_MODES)])
def test_index_header(mini_manifest, tmp_path, kind, embed_mode):
    # one golden per (kind, embed mode): the header records an example index's mode
    name = kind if embed_mode == "sentence" else f"{kind}-{embed_mode}"
    header = tmp_path / f"{name}.index.json"
    args = ["index", "--manifest", str(mini_manifest), "--kind", kind, "--embed-mode", embed_mode, "--out", str(header)]
    assert main(args) == 0
    assert header.read_bytes() == (GOLDEN / header.name).read_bytes()


# (kind, embed mode) -> SHA-256 of the header and of the matrix file of
# `kgte index --scale 0.5 --seed 2` on the mini fixture
SCALED_INDEX_SHA256 = {
    ("triplet", "sentence"): (
        "86bd5450ca526de33274942153ce469e412256e3d49ffd78e2be86a20805c702",
        "3e9efef577b3a86c67574966db7a720da7a4428e21e85bd8c3c62ac116619627",
    ),
    ("example", "sentence+triplets"): (
        "3e7ffb842c78b4015c5fd7bf7a24977ce893cd1f38ad149934dddab3fb80dd26",
        "e5f6c6867788f1991d0366d7a6f7445d082c636f02807b385ff29b64405b25b6",
    ),
}


@pytest.mark.parametrize("kind,embed_mode", SCALED_INDEX_SHA256)
def test_scaled_index_files(mini_manifest, tmp_path, kind, embed_mode):
    header = tmp_path / "scaled.index.json"
    args = ["index", "--manifest", str(mini_manifest), "--kind", kind, "--embed-mode", embed_mode,
            "--scale", "0.5", "--seed", "2", "--out", str(header)]
    assert main(args) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (header, header.with_suffix(".npy")))
    assert digests == SCALED_INDEX_SHA256[kind, embed_mode]


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


@pytest.mark.parametrize("extractor", ["oracle-gold", "random"])
@pytest.mark.parametrize("mode", ["zero", "static2"])
def test_a_spec_written_before_the_encoder_field_replays(monkeypatch, tmp_path, mode, extractor):
    # its top-level dimension and ngram_range are the hashed n-gram encoder; replay writes the spec as it is now
    monkeypatch.chdir(DATA_DIR)
    legacy = DATA_DIR / "legacy-spec" / f"{mode}-{extractor}.json"
    assert {"dimension", "ngram_range"} <= set(json.loads(legacy.read_text())) and "encoder" not in legacy.read_text()
    replay_experiment(legacy, tmp_path)
    golden = GOLDEN / "extract" / f"{mode}-{extractor}"
    for name in ("report.json", "sentences.jsonl", "spec.json"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


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
    prompt = render(PromptTemplate(kind, mode), sentence, max_triplets, contexts[mode])
    assert not prompt.truncated
    assert prompt.rendered.encode("utf-8") == (GOLDEN / "prompts" / f"{kind}__{mode}.txt").read_bytes()


@pytest.mark.parametrize(("mode", "budget", "kept"), [("triplets", 388, 2), ("examples", 515, 1)])
def test_truncated_prompt(mini_manifest, mode, budget, kept):
    sentence, max_triplets, contexts = _prompt_inputs(mini_manifest)
    prompt = render(PromptTemplate("base", mode), sentence, max_triplets, contexts[mode], budget)
    assert prompt.truncated and prompt.context_items_included == kept
    assert prompt.rendered.encode("utf-8") == (GOLDEN / "prompts" / f"base__{mode}__budget{budget}.txt").read_bytes()


# golden file name -> the command that writes it with --out
CLI_RUNS = {
    "ingest.json": ["ingest", "--manifest", MINI],
    "eval.json": ["eval", "--pred", CLI_GOLDEN / "pred.jsonl", "--gold", MINI.parent / "test.jsonl"],
    "sweep-p.csv": ["sweep-p", "--manifest", MINI, "--nkb-list", "1,2,5"],
    "fit.json": ["fit", "--input", CLI_GOLDEN / "ablate-points.csv"],
    "fit-params-log-x.json": ["fit", "--input", CLI_GOLDEN / "params.csv", "--log-x"],
}


@pytest.mark.parametrize("name", CLI_RUNS)
def test_cli_output(tmp_path, name):
    out = tmp_path / name
    assert main([*map(str, CLI_RUNS[name]), "--out", str(out)]) == 0
    assert out.read_bytes() == (CLI_GOLDEN / name).read_bytes()


def test_ablate_outputs(tmp_path):
    out, points = tmp_path / "ablate.json", tmp_path / "ablate-points.csv"
    args = ["ablate", "--manifest", str(MINI), "--scales", "0,0.5,1", "--out", str(out), "--points-out", str(points)]
    assert main(args) == 0
    for path in (out, points):
        assert path.read_bytes() == (CLI_GOLDEN / path.name).read_bytes(), path.name


def test_log_x_fit_of_the_ablation_points_names_the_zero_p(capsys):
    # the scale-0 point has P_S = 0, which has no logarithm
    assert main(["fit", "--input", str(CLI_GOLDEN / "ablate-points.csv"), "--log-x"]) == 1
    assert capsys.readouterr().err.encode("utf-8") == (CLI_GOLDEN / "fit-log-x.stderr").read_bytes()
