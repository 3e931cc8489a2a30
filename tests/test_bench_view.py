"""The benchmark's view of the program: every name ``bench/workload.py``
traces still exists, every workload's jobs still run against the program's
signatures and pass the benchmark's own output checks, and its brute-force
retrieval check agrees with ``retrieve_triplets``. ``bench/`` is imported,
never changed."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import kgte
from kgte import EncoderConfig, build_index, build_kb, load_dataset, retrieve_triplets

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workload():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import workload
    finally:
        sys.path.remove(str(BENCH_DIR))
    return workload


def test_every_traced_target_resolves_to_a_callable(workload):
    targets = workload._trace_targets(kgte, {})
    assert targets
    for owner, attribute, name, _ in targets:
        assert callable(getattr(owner, attribute, None)), f"{name}: {owner!r} has no callable {attribute!r}"


@pytest.mark.parametrize("n_kb", [1, 3, 5, 10])
def test_brute_force_check_equals_retrieve_triplets(workload, mini_manifest, n_kb):
    dataset = load_dataset(mini_manifest)
    index = build_index(build_kb(dataset.train, dataset.validation), "triplet", config=EncoderConfig(dimension=64))
    matrix = np.stack([node.vector for node in index.nodes])
    for sentence in dataset.test + dataset.train:
        want = workload.brute_force_triplets(kgte, index, matrix, sentence.text, n_kb)
        assert list(retrieve_triplets(sentence.text, index, n_kb).items) == want


@pytest.mark.parametrize("name", ["webnlg-pipeline", "nyt-index", "webnlg-llm"])
def test_every_workload_runs_its_jobs_on_the_mini_fixture(workload, mini_manifest, tmp_path, name):
    dataset = load_dataset(mini_manifest)
    ctx = workload.Context(kgte, dataset, build_kb(dataset.train, dataset.validation), mini_manifest, 0, tmp_path)
    if name == "webnlg-llm":
        records = map(json.loads, (mini_manifest.parent / "test.jsonl").read_text(encoding="utf-8").splitlines())
        ctx.results["golds"] = {r["text"]: tuple(tuple(t) for t in r["triplets"]) for r in records}
    workload.run_pass(ctx, workload.WORKLOADS[name])
    if name == "webnlg-llm":
        assert workload.check_llm(ctx)[0] == []
    else:
        assert workload.check_retrieval(ctx, list(range(len(dataset.test)))) == []
