"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines.
"""

from __future__ import annotations

import math
import os
import random
import string
import time
from collections import Counter

import numpy as np
import pytest

from kgte import (
    EncoderConfig,
    ExperimentRunSpec,
    RetrievedContext,
    Triplet,
    VectorIndex,
    build_index,
    build_kb,
    dataset_stats,
    diversity_filter,
    exhaustive_random_f1,
    linear_fit,
    load_dataset,
    log_param_fit,
    micro_f1,
    parse_triplets,
    random_extract,
    retrieve_triplets,
    run_experiment,
    save_dataset,
    sentence_f1,
    sweep_context_quality,
    top_k,
    triplet_to_string,
)
from kgte.vector_index import _select_rows
from conftest import (
    MINI_STATS,
    planted_dataset,
    planted_pair_records,
    planted_single_records,
)


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {message}")


# --- criterion 1: retrieval oracle equivalence --------------------------------


def test_criterion_1_retrieval_oracle_equivalence():
    dimension = 32
    rng = np.random.default_rng(2024)
    vectors = rng.normal(size=(1000, dimension))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    payloads = [Triplet(f"s{i}", "r", f"o{i}") for i in range(1000)]
    config = EncoderConfig(dimension=dimension)
    index = VectorIndex("triplet", payloads, list(vectors), config)

    # Ties: 1000 nodes drawn from 250 distinct unit vectors with four +-0.5
    # coordinates, queried with small-integer vectors. Every score is then
    # an exact multiple of 0.5, so duplicated rows and distinct rows tie
    # exactly, and ties straddle the k-th position.
    distinct = np.zeros((250, dimension))
    for row in distinct:
        row[rng.choice(dimension, size=4, replace=False)] = rng.choice([-0.5, 0.5], size=4)
    tied_index = VectorIndex(
        "triplet", payloads, list(distinct[rng.integers(0, 250, size=1000)]), config
    )
    # A selection: 400 of the tied rows, shuffled out of row order. Its ids
    # are positions in the selection, so its ties break by selection order.
    subset = rng.permutation(1000)[:400].tolist()
    assert subset != sorted(subset)
    selection = _select_rows(tied_index, subset)

    queries = rng.normal(size=(25, dimension))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    tie_queries = rng.integers(-3, 4, size=(25, dimension)).astype(np.float64)

    def oracle(matrix, rows, query, k):
        """Rows ``rows`` of ``matrix`` ranked by python-float dot, ties by position in ``rows``."""
        scored = []
        for position, row_id in enumerate(rows):
            acc = 0.0
            for i in range(dimension):
                acc += float(matrix[row_id, i]) * float(query[i])
            scored.append((position, acc))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]

    cases = (
        (index, vectors, range(1000), queries),
        (tied_index, tied_index._matrix, range(1000), tie_queries),
        (selection, tied_index._matrix, subset, tie_queries),
    )
    elapsed = 0.0
    straddled = Counter()
    for searched, matrix, rows, searched_queries in cases:
        for query in searched_queries:
            for k in (1, 5, 10):
                start = time.perf_counter()
                got = top_k(searched, query, k)
                elapsed += time.perf_counter() - start
                expected = oracle(matrix, rows, query, k + 1)
                if expected[k - 1][1] == expected[k][1]:
                    straddled[searched is selection] += 1
                expected = expected[:k]
                assert [i for i, _ in got] == [i for i, _ in expected]
                for (_, a), (_, b) in zip(got, expected):
                    assert a == pytest.approx(b, abs=1e-12)
    assert straddled[False] >= 25 and straddled[True] >= 25
    assert elapsed < 1.0
    report(
        1,
        f"top_k matches brute force on 1000x{dimension} and on a shuffled 400-row selection for k in 1/5/10, "
        f"ties at the k-th position in {sum(straddled.values())} of 225 cases ({elapsed:.3f}s)",
    )


# --- criterion 2: scorer fixture ----------------------------------------------


def test_criterion_2_scorer_fixture():
    predictions = [[Triplet("a", "r1", "b"), Triplet("c", "r2", "d")]]
    gold = [[Triplet("a", "r1", "b"), Triplet("e", "r3", "f"), Triplet("g", "r4", "h")]]
    hand = micro_f1(predictions, gold)
    assert hand.precision == 0.5
    assert hand.recall == pytest.approx(1 / 3)
    assert hand.f1 == 0.4

    rng = random.Random(50)
    pool = [Triplet(f"s{i}", f"r{i % 5}", f"o{i}") for i in range(40)]
    predictions = [rng.sample(pool, rng.randint(0, 6)) for _ in range(50)]
    gold = [rng.sample(pool, rng.randint(1, 6)) for _ in range(50)]
    got = micro_f1(predictions, gold)

    counters = Counter()
    for pred_raw, gold_raw in zip(predictions, gold):
        pred_set, gold_set = set(pred_raw), set(gold_raw)
        counters["tp"] += len(pred_set & gold_set)
        counters["pred"] += len(pred_set)
        counters["gold"] += len(gold_set)
    assert (got.tp, got.n_pred, got.n_gold) == (
        counters["tp"],
        counters["pred"],
        counters["gold"],
    )
    report(2, "hand case f1=0.4 exact; 50-sentence fixture matches independent counters")


# --- criterion 3: diversity filter properties ---------------------------------


def test_criterion_3_diversity_filter_and_monotone_growth():
    rng = random.Random(51)
    for _ in range(10_000):
        length = rng.randint(0, 25)
        ranked = [
            (Triplet(f"s{i}", f"r{rng.randint(0, 6)}", f"o{i}"), 1.0 - i * 0.01)
            for i in range(length)
        ]
        kept = diversity_filter(ranked)
        positions = [ranked.index(item) for item in kept]
        assert positions == sorted(positions)  # stable subsequence
        per_predicate = Counter(t.predicate for t, _ in kept)
        assert all(count <= 2 for count in per_predicate.values())

    records = planted_pair_records(20)
    kb = build_kb(records[:14], records[14:])
    index = build_index(kb, "triplet", config=EncoderConfig(dimension=128))
    for record in records[:10]:
        previous: set = set()
        for n_kb in range(1, 21):
            current = set(retrieve_triplets(record.text, index, n_kb).ranked_triplets())
            assert previous <= current
            previous = current
    report(3, "10k filtered lists stable with <=2 per predicate; growth monotone for N_KB 1..20")


# --- criterion 4: P(N_KB) behavior --------------------------------------------


def test_criterion_4_context_quality_curves():
    records = planted_single_records(30)
    kb = build_kb(records[:20], records[20:])
    index = build_index(kb, "triplet", config=EncoderConfig(dimension=128))
    curve = sweep_context_quality(records, index, [1, 2, 5, 10])
    assert curve.points[0] == (1, 1.0)
    ps = [p for _, p in curve.points]
    assert all(a <= b for a, b in zip(ps, ps[1:]))

    mixed = load_dataset(os.path.join(os.path.dirname(__file__), "data", "mini", "manifest.json"))
    mixed_kb = build_kb(mixed.train, mixed.validation)
    for kind in ("triplet", "example"):
        mixed_index = build_index(mixed_kb, kind, config=EncoderConfig(dimension=128))
        mixed_curve = sweep_context_quality(mixed.test, mixed_index, [1, 2, 4, 8])
        values = [p for _, p in mixed_curve.points]
        assert all(a <= b for a, b in zip(values, values[1:]))
    report(4, "P non-decreasing on all fixtures; planted nearest neighbor gives P(1)=1.0 exactly")


# --- criterion 5: random baseline apparatus -----------------------------------


def test_criterion_5_random_baseline():
    start = time.perf_counter()
    trials = 100_000

    # |context|=5, one gold triplet, max_triplets=1: expectation is exactly 0.2
    pool = [Triplet(f"s{i}", f"r{i}", f"o{i}") for i in range(5)]
    gold = {pool[2]}
    context = RetrievedContext(
        mode="triplets",
        items=tuple((t, 1.0 - i * 0.01) for i, t in enumerate(pool)),
        n_kb_requested=5,
    )
    assert exhaustive_random_f1(pool, gold, 1) == pytest.approx(0.2, abs=1e-12)
    rng = random.Random(314159)
    acc = 0.0
    for _ in range(trials):
        acc += sentence_f1(set(random_extract(context, 1, rng)), gold)
    assert acc / trials == pytest.approx(0.2, abs=0.005)

    # general small contexts: Monte Carlo within +/-0.01 of exhaustive
    deviations = []
    for size, gold_count, max_triplets, seed in ((3, 1, 2, 1), (7, 3, 4, 2), (12, 4, 5, 3)):
        pool = [Triplet(f"s{i}", f"r{i}", f"o{i}") for i in range(size)]
        gold = set(pool[:gold_count])
        context = RetrievedContext(
            mode="triplets",
            items=tuple((t, 1.0 - i * 0.01) for i, t in enumerate(pool)),
            n_kb_requested=size,
        )
        exact = exhaustive_random_f1(pool, gold, max_triplets)
        rng = random.Random(seed)
        acc = 0.0
        for _ in range(trials):
            acc += sentence_f1(set(random_extract(context, max_triplets, rng)), gold)
        mc = acc / trials
        assert mc == pytest.approx(exact, abs=0.01)
        p = 1.0  # every gold triplet sits inside the context by construction
        closed = (p / size) ** len(gold)
        deviations.append(closed - exact)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        5,
        "MC(100k) within 0.01 of exhaustive (0.2 fixture within 0.005); "
        f"closed-form deviations {['%.4f' % d for d in deviations]} ({elapsed:.1f}s)",
    )


# --- criterion 6: end-to-end determinism --------------------------------------


def test_criterion_6_end_to_end_determinism(tmp_path):
    manifest = save_dataset(planted_dataset(planted_pair_records(50)), tmp_path / "planted")
    spec = ExperimentRunSpec(
        manifest=str(manifest),
        mode="triplets",
        extractor="oracle-prefix",
        n_kb=2,
        dimension=128,
    )
    result = run_experiment(spec, tmp_path / "run1")
    assert result.report.f1 == 1.0

    run_experiment(spec, tmp_path / "run2")
    assert (tmp_path / "run1" / "report.json").read_bytes() == (
        tmp_path / "run2" / "report.json"
    ).read_bytes()

    random_spec = ExperimentRunSpec(
        manifest=str(manifest), mode="triplets", extractor="random", n_kb=2,
        seed=99, dimension=128,
    )
    a = run_experiment(random_spec).report.to_json()
    b = run_experiment(random_spec).report.to_json()
    assert a == b

    kb_less = ExperimentRunSpec(
        manifest=str(manifest), mode="triplets", extractor="random", n_kb=2,
        scale=0.0, seed=7, dimension=128,
    )
    zero = ExperimentRunSpec(
        manifest=str(manifest), mode="zero", extractor="random", seed=7
    )
    assert run_experiment(kb_less).report.to_json() == run_experiment(zero).report.to_json()
    report(6, "prefix oracle f1=1.0 on 50 sentences; reruns byte-identical; S=0 report equals zero-shot")


# --- criterion 7: fits ----------------------------------------------------------


def test_criterion_7_fits():
    fit = linear_fit([(0, 1), (1, 3), (2, 5), (3, 7)])
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.intercept - 1.0) < 1e-12
    assert fit.r2 == 1.0

    log_fit = log_param_fit([(n, 0.05 * math.log(n)) for n in (0.1, 1.5, 7, 13, 40, 65, 175, 1760)])
    assert abs(log_fit.slope - 0.05) < 1e-12
    assert log_fit.r2 >= 1.0 - 1e-12

    slope, intercept = 0.25, 0.21
    pairs = [(p, slope * p + intercept) for p in (0.0, 0.15, 0.3, 0.55, 0.8)]
    recovered = linear_fit(pairs)
    assert abs(recovered.slope - slope) < 1e-9
    assert abs(recovered.intercept - intercept) < 1e-9
    report(7, "line recovery to 1e-12 with r2=1; log slope 0.05; scale-response (0.25, 0.21) to 1e-9")


# --- criterion 8: dataset statistics -------------------------------------------


def test_criterion_8_dataset_statistics(mini_manifest):
    checked = []
    webnlg = os.environ.get("KGTE_WEBNLG_MANIFEST")
    if webnlg:
        stats = dataset_stats(load_dataset(webnlg))
        assert (stats.train, stats.validation, stats.test) == (5019, 500, 703)
        assert stats.relations == 171
        assert stats.max_triplets == 7
        assert abs(stats.avg_triplets - 2.29) <= 0.005
        checked.append("webnlg")
    nyt = os.environ.get("KGTE_NYT_MANIFEST")
    if nyt:
        stats = dataset_stats(load_dataset(nyt))
        assert (stats.train, stats.validation, stats.test) == (56195, 5000, 5000)
        assert stats.relations == 24
        assert stats.max_triplets == 22
        assert abs(stats.avg_triplets - 1.72) <= 0.005
        checked.append("nyt")
    if not checked:
        stats = dataset_stats(load_dataset(mini_manifest))
        assert stats.train == MINI_STATS["train"]
        assert stats.validation == MINI_STATS["validation"]
        assert stats.test == MINI_STATS["test"]
        assert stats.relations == MINI_STATS["relations"]
        assert stats.max_triplets == MINI_STATS["max_triplets"]
        assert abs(stats.avg_triplets - MINI_STATS["avg_triplets"]) <= 0.005
        checked.append("bundled mini fixture")
    report(8, f"statistics verified on: {', '.join(checked)}")


# --- criterion 9: parser round trip and totality --------------------------------


def test_criterion_9_parser_round_trip_and_totality():
    rng = random.Random(52)

    def normalized_field():
        words = [
            "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 3))
        ]
        return " ".join(words)

    for _ in range(10_000):
        triplet = Triplet(normalized_field(), normalized_field(), normalized_field())
        outcome = parse_triplets(triplet_to_string(triplet), max_triplets=1)
        assert outcome.triplets == (triplet,)
        assert outcome.malformed_lines == 0

    for _ in range(3_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 200)))
        parse_triplets(blob.decode("latin-1"), max_triplets=3)
    report(9, "10k round trips identical; parser total on 3k arbitrary byte blobs")
