"""The benchmark's view of the program: every name ``bench/workload.py``
traces still exists, every workload's jobs still run against the program's
signatures, untraced and traced, and pass the benchmark's own output checks,
and its brute-force retrieval check agrees with ``retrieve_triplets``.
``bench/`` is imported, never changed."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

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
    for sentence in dataset.test + dataset.train:
        want = workload.brute_force_triplets(kgte, index, index.vectors, sentence.text, n_kb)
        assert list(retrieve_triplets(sentence.text, index, n_kb).items) == want


def _context(workload, manifest, work, name):
    dataset = load_dataset(manifest)
    ctx = workload.Context(kgte, dataset, build_kb(dataset.train, dataset.validation), manifest, 0, work)
    if name == "webnlg-llm":
        records = map(json.loads, (manifest.parent / "test.jsonl").read_text(encoding="utf-8").splitlines())
        ctx.results["golds"] = {r["text"]: tuple(tuple(t) for t in r["triplets"]) for r in records}
    return ctx


WORKLOAD_NAMES = ["webnlg-pipeline", "nyt-index", "webnlg-llm"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_runs_its_jobs_on_the_mini_fixture(workload, mini_manifest, tmp_path, name):
    ctx = _context(workload, mini_manifest, tmp_path, name)
    workload.run_pass(ctx, workload.WORKLOADS[name])
    if name == "webnlg-llm":
        assert workload.check_llm(ctx)[0] == []
    else:
        assert workload.check_retrieval(ctx, list(range(len(ctx.dataset.test)))) == []


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_runs_its_traced_pass_on_the_mini_fixture(workload, mini_manifest, tmp_path, name):
    """The traced pass runs the tracer's wrappers and the ``_trace_targets``
    hooks, which read program attributes the untraced pass never touches. On
    a fixture this small a job's own overhead can exceed the coverage floor,
    so that is the one problem allowed."""
    ctx = _context(workload, mini_manifest, tmp_path, name)
    timings, _, problems = workload.traced_pass(ctx, workload.WORKLOADS[name])
    assert [job for job, _ in timings] == [job for job, _ in workload.WORKLOADS[name]]
    floor = re.escape(f"of its wall time, below {workload.MIN_COVERAGE}")
    for problem in problems:
        assert re.fullmatch(rf"job\.[\w-]+: traced layers cover [\d.]+ {floor}", problem), problem
