"""Tests of the benchmark's own parts.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus_gen  # noqa: E402
import fake_llm  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

SMALL = corpus_gen.CorpusShape(train=300, validation=40, test=60, relations=12, max_triplets=7, avg_triplets=2.29, entity_pool=30)


@pytest.mark.parametrize("shape", [SMALL, corpus_gen.WEBNLG, corpus_gen.NYT], ids=["small", "webnlg", "nyt"])
def test_generator_hits_the_shape(shape):
    produced = corpus_gen.stats(corpus_gen.generate(shape, seed=4))
    corpus_gen.check_shape(shape, produced)
    assert produced["max_triplets"] == shape.max_triplets
    assert abs(produced["avg_triplets"] - shape.avg_triplets) <= 0.05


def test_generator_is_a_function_of_the_seed():
    assert corpus_gen.generate(SMALL, 1) == corpus_gen.generate(SMALL, 1)
    assert corpus_gen.generate(SMALL, 1) != corpus_gen.generate(SMALL, 2)


def test_entity_pool_controls_repeats():
    def distinct_share(pool: int) -> float:
        shape = corpus_gen.CorpusShape(1000, 100, 100, 12, 7, 2.29, pool)
        triplets = [tuple(t) for split in corpus_gen.generate(shape, 0).values() for r in split for t in r["triplets"]]
        return len(set(triplets)) / len(triplets)

    assert distinct_share(10) < distinct_share(200)


def test_triplet_counts_pin_max_and_mean():
    counts = corpus_gen.triplet_counts(random.Random(0), 1000, 22, 1.72)
    assert max(counts) == 22 and min(counts) >= 1
    assert sum(counts) == round(1.72 * 1000)


def test_check_shape_rejects_a_missed_maximum():
    produced = corpus_gen.stats(corpus_gen.generate(SMALL, 0))
    with pytest.raises(ValueError, match="max triplets"):
        corpus_gen.check_shape(corpus_gen.CorpusShape(**{**SMALL.__dict__, "max_triplets": 8}), produced)


def test_written_corpus_loads_with_the_recorded_stats(tmp_path):
    kgte = pytest.importorskip("kgte")
    manifest = corpus_gen.write_corpus(SMALL, 3, tmp_path / "small")
    recorded = json.loads((manifest.parent / "dataset_stats.json").read_text())["stats"]
    assert kgte.dataset_stats(kgte.load_dataset(manifest)).to_dict() == recorded


def _prompt(sentence: str) -> dict:
    return {"messages": [{"role": "user", "content": f"Extract.\n\nSentence: {sentence}\nTriplets:\n"}]}


def _sentence_with_fate(kind: str) -> str:
    return next(f"sentence {i}" for i in range(10_000) if fake_llm.fate(f"sentence {i}") == kind)


def test_fake_transport_is_deterministic():
    gold = {s: (("a", "r", "b"),) for s in (_sentence_with_fate("ok"), _sentence_with_fate("transient"))}
    replies = [
        [fake_llm.FakeChatTransport(gold, 0.0)(None, _prompt(s), {}, 1.0) for s in gold] for _ in range(2)
    ]
    assert replies[0] == replies[1]
    ok = replies[0][0]
    assert ok[0] == 200
    content = json.loads(ok[1])["choices"][0]["message"]["content"]
    assert content == "(a, r, b)\n" + fake_llm.MALFORMED_LINE


def test_fake_transport_fates():
    transient, permanent = _sentence_with_fate("transient"), _sentence_with_fate("permanent")
    transport = fake_llm.FakeChatTransport({transient: (("a", "r", "b"),), permanent: (("c", "r", "d"),)}, 0.0)
    assert [transport(None, _prompt(transient), {}, 1.0)[0] for _ in range(2)] == [503, 200]
    assert [transport(None, _prompt(permanent), {}, 1.0)[0] for _ in range(2)] == [400, 400]
    assert transport.attempts == 4


def test_sentence_of_takes_the_last_sentence_label():
    prompt = "Sentence: Rome is big.\nTriplets:\n(rome, size, big)\n\nSentence: The real one.\nTriplets:\n"
    assert fake_llm.sentence_of("Intro\n" + prompt) == "The real one."


def test_client_run_matches_the_expected_outcome(tmp_path):
    kgte = pytest.importorskip("kgte")
    manifest = corpus_gen.write_corpus(SMALL, 5, tmp_path / "small")
    records = [json.loads(line) for line in (manifest.parent / "test.jsonl").read_text().splitlines()]
    golds = {r["text"]: tuple(tuple(t) for t in r["triplets"]) for r in records}
    want = fake_llm.expected_outcome(golds)
    assert want.failures and want.retries  # the fates this corpus needs

    sleeper = fake_llm.CountingSleeper()
    transport = fake_llm.FakeChatTransport(golds, 0.0)
    generation = kgte.GenerationConfig(in_flight=2)
    client = kgte.RemoteLLMClient("http://fake", generation, api_key="", transport=transport, sleeper=sleeper, backoff_base=0.0)
    spec = kgte.ExperimentRunSpec(manifest=str(manifest), mode="static2", extractor="llm", generation=generation)
    result = kgte.run_experiment(spec, llm_client=client)
    assert result.failures == want.failures
    assert sleeper.calls == want.retries and transport.attempts == want.attempts
    assert sum(r.malformed_lines for r in result.runs) == want.malformed_lines
    assert result.report.f1 == want.f1


def test_self_times_on_a_hand_built_tree():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 4.0, parent=root)
    a1 = Span("a1", 2.0, 3.0, parent=a)
    b = Span("b", 5.0, 9.0, parent=root)
    spans = [a1, a, b, root]
    selfs = self_times(spans)
    assert [selfs[id(s)] for s in spans] == [1.0, 2.0, 4.0, 3.0]
    assert sum(selfs.values()) == root.duration


def test_self_times_count_overlapping_worker_children_once():
    root = Span("root", 0.0, 10.0)
    # two workers under root, overlapping in [3, 5]; together they cover [1, 7]
    w1 = Span("w1", 1.0, 5.0, parent=root, thread=2)
    w2 = Span("w2", 3.0, 7.0, parent=root, thread=3)
    late = Span("late", 8.0, 12.0, parent=root, thread=2)  # clipped to root's end
    selfs = self_times([root, w1, w2, late])
    assert selfs[id(root)] == 10.0 - 6.0 - 2.0
    assert (selfs[id(w1)], selfs[id(w2)]) == (4.0, 4.0)


def test_tracer_patches_every_namespace_and_restores():
    kgte = pytest.importorskip("kgte")
    original = kgte.vector_index.top_k
    tracer = Tracer()
    tracer.install([(kgte.vector_index, "top_k", "vector_index.top_k", None)])
    try:
        for module in (kgte, kgte.vector_index, kgte.retriever, kgte.evaluation):
            assert module.top_k is not original
        index = kgte.build_index(kgte.KnowledgeBase(triplets=(kgte.Triplet("aa", "rr", "bb"),), examples=()), "triplet")
        with tracer.span("job"):
            kgte.retrieve_triplets("aa rr bb", index, 1)
    finally:
        tracer.uninstall()
    assert kgte.retriever.top_k is original and kgte.evaluation.top_k is original
    top_k, job = tracer.spans
    assert (top_k.name, top_k.parent) == ("vector_index.top_k", job)


def test_spans_nest_per_thread():
    import threading

    tracer = Tracer()
    with tracer.span("main"):
        worker = threading.Thread(target=lambda: tracer.wrap("inner", lambda: None)())
        worker.start()
        worker.join(timeout=5)
    assert not worker.is_alive()
    inner, main = tracer.spans
    assert inner.parent is None and inner.thread != main.thread


def test_executor_tasks_nest_under_the_submitting_span():
    tracer = Tracer()
    task = tracer.wrap("task", lambda: tracer.wrap("inner", lambda: None)())
    with tracer.span("submitter"):
        with tracer.executor_class()(max_workers=2) as pool:
            for future in [pool.submit(task) for _ in range(3)]:
                future.result(timeout=5)
    tasks = [s for s in tracer.spans if s.name == "task"]
    submitter = tracer.spans[-1]
    assert len(tasks) == 3 and all(t.parent is submitter and t.thread != submitter.thread for t in tasks)
    assert all(s.parent.name == "task" for s in tracer.spans if s.name == "inner")


def test_tracer_replaces_the_executor_in_kgte_and_restores():
    kgte = pytest.importorskip("kgte")
    original = kgte.analysis.ThreadPoolExecutor
    tracer = Tracer()
    tracer.install([])
    try:
        assert kgte.analysis.ThreadPoolExecutor is not original
    finally:
        tracer.uninstall()
    assert kgte.analysis.ThreadPoolExecutor is original


def test_every_input_seed_has_recorded_hashes():
    import run

    recorded = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())["webnlg-pipeline"]
    assert set(recorded) == {str(seed) for seed in range(run.INPUT_SEEDS)}


def test_window_rates_stay_within_a_phase():
    import run

    w = run.CALL_WINDOW
    steady = [i * 0.01 for i in range(2 * w + 1)]  # 100 calls per second
    stalled = [5.0 + i * 0.02 for i in range(w + 10)]  # 50 per second, after a gap
    rates = run.window_rates([steady, stalled])
    assert [round(r, 6) for r in rates] == [100.0, 100.0, 50.0]


def test_a_seed_without_recorded_hashes_fails_the_check():
    import workload

    problems, _ = workload.check_hashes("webnlg-pipeline", 10_000, {"sweep": "0" * 64})
    assert problems


def test_trace_checks_flag_low_coverage_and_unattributed_spans():
    import workload

    job = Span("job.query", 0.0, 10.0)
    covered = Span("retriever.retrieve", 0.0, 9.0, parent=job)
    stray = Span("extraction.generate", 1.0, 2.0, thread=2)  # a worker span with no parent
    metrics, problems = workload.layer_metrics([covered, job, stray], {})
    assert metrics["trace.coverage"] == pytest.approx(0.9)
    assert any("cover 0.9000" in p for p in problems)
    assert any("extraction.generate span(s) outside" in p for p in problems)
