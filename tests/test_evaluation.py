from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from kgte import (
    EncoderConfig,
    EvalReport,
    RetrievedContext,
    Triplet,
    build_index,
    build_kb,
    context_hit_probability,
    downscale_kb,
    micro_f1,
    sentence_f1,
    sweep_context_quality,
)
from kgte.evaluation import ContextQualityCurve, check_n_kb_values
from conftest import planted_single_records


def independent_micro(predictions, gold):
    """Counter-based reference scorer, kept deliberately separate from the
    library implementation."""
    counters = Counter()
    for pred_raw, gold_raw in zip(predictions, gold):
        pred_set, gold_set = set(pred_raw), set(gold_raw)
        counters["tp"] += sum(1 for t in pred_set if t in gold_set)
        counters["pred"] += len(pred_set)
        counters["gold"] += len(gold_set)
    p = counters["tp"] / counters["pred"] if counters["pred"] else 0.0
    r = counters["tp"] / counters["gold"] if counters["gold"] else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return counters["tp"], counters["pred"], counters["gold"], f1


def t(s, p, o):
    return Triplet(s, p, o)


def random_fixture(rng, sentences=50):
    pool = [t(f"s{i}", f"r{i % 6}", f"o{i}") for i in range(30)]
    predictions, gold = [], []
    for _ in range(sentences):
        gold.append(rng.sample(pool, rng.randint(1, 5)))
        predictions.append(rng.sample(pool, rng.randint(0, 5)))
    return predictions, gold


class TestMicroF1:
    def test_hand_computed_case(self):
        predictions = [[t("a", "r1", "b"), t("c", "r2", "d")]]
        gold = [[t("a", "r1", "b"), t("e", "r3", "f"), t("g", "r4", "h")]]
        report = micro_f1(predictions, gold)
        assert report.precision == 0.5
        assert report.recall == pytest.approx(1 / 3)
        assert report.f1 == 0.4  # exactly: 2*1/(2+3)

    def test_perfect_match(self):
        gold = [[t("a", "r", "b")], [t("c", "r", "d"), t("e", "r", "f")]]
        report = micro_f1(gold, gold)
        assert report.f1 == 1.0
        assert report.precision == 1.0 and report.recall == 1.0

    def test_empty_predictions(self):
        gold = [[t("a", "r", "b")], [t("c", "r", "d")]]
        report = micro_f1([[], []], gold)
        assert report.f1 == 0.0
        assert report.tp == 0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            micro_f1([[]], [[t("a", "r", "b")], [t("c", "r", "d")]])

    def test_matches_independent_counter(self):
        rng = random.Random(17)
        for _ in range(20):
            predictions, gold = random_fixture(rng)
            report = micro_f1(predictions, gold)
            tp, n_pred, n_gold, f1 = independent_micro(predictions, gold)
            assert (report.tp, report.n_pred, report.n_gold) == (tp, n_pred, n_gold)
            assert report.f1 == pytest.approx(f1, abs=1e-12)

    def test_permutation_invariant(self):
        rng = random.Random(18)
        predictions, gold = random_fixture(rng, sentences=20)
        base = micro_f1(predictions, gold)
        order = list(range(20))
        rng.shuffle(order)
        shuffled = micro_f1([predictions[i] for i in order], [gold[i] for i in order])
        assert (shuffled.tp, shuffled.n_pred, shuffled.n_gold, shuffled.f1) == (
            base.tp,
            base.n_pred,
            base.n_gold,
            base.f1,
        )
        # within-sentence order is also irrelevant
        reversed_preds = [list(reversed(p)) for p in predictions]
        assert micro_f1(reversed_preds, gold).f1 == base.f1

    def test_adding_correct_never_hurts_incorrect_never_helps(self):
        rng = random.Random(19)
        for _ in range(200):
            predictions, gold = random_fixture(rng, sentences=8)
            base = micro_f1(predictions, gold).f1
            index = rng.randrange(len(predictions))
            missing = [x for x in gold[index] if x not in predictions[index]]
            if missing:
                improved = [list(p) for p in predictions]
                improved[index] = improved[index] + [missing[0]]
                assert micro_f1(improved, gold).f1 >= base
            wrong = t("zzz", "zzz", str(rng.random()))
            worsened = [list(p) for p in predictions]
            worsened[index] = worsened[index] + [wrong]
            assert micro_f1(worsened, gold).f1 <= base

    def test_per_count_recombines_to_global(self):
        rng = random.Random(20)
        predictions, gold = random_fixture(rng)
        report = micro_f1(predictions, gold)
        assert sum(b.tp for b in report.per_count.values()) == report.tp
        assert sum(b.n_pred for b in report.per_count.values()) == report.n_pred
        assert sum(b.n_gold for b in report.per_count.values()) == report.n_gold
        tp = sum(b.tp for b in report.per_count.values())
        denom = sum(b.n_pred + b.n_gold for b in report.per_count.values())
        assert 2 * tp / denom == report.f1

    def test_report_stores_only_its_sentence_scores(self):
        predictions, gold = random_fixture(random.Random(21))
        report = micro_f1(predictions, gold)
        assert [f.name for f in dataclasses.fields(EvalReport)] == ["per_sentence"]
        rebuilt = EvalReport(per_sentence=report.per_sentence)
        assert rebuilt == report and rebuilt.to_json() == report.to_json()

    def test_bucket_precision_and_recall(self):
        predictions = [[t("a", "r", "b"), t("x", "r", "y")], [t("c", "r", "d")], []]
        gold = [[t("a", "r", "b")], [t("c", "r", "d"), t("e", "r", "f")], [t("g", "r", "h"), t("i", "r", "j")]]
        report = micro_f1(predictions, gold)
        assert (report.per_count[1].precision, report.per_count[1].recall) == (0.5, 1.0)
        assert (report.per_count[2].precision, report.per_count[2].recall) == (1.0, 0.25)
        assert (report.totals.precision, report.totals.recall) == (report.precision, report.recall) == (2 / 3, 2 / 5)
        empty = micro_f1([[]], [[]])
        assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)

    def test_per_count_keyed_by_gold_size(self):
        predictions = [[t("a", "r", "b")], []]
        gold = [[t("a", "r", "b")], [t("c", "r", "d"), t("e", "r", "f")]]
        report = micro_f1(predictions, gold)
        assert set(report.per_count) == {1, 2}
        assert report.per_count[1].f1 == 1.0
        assert report.per_count[2].f1 == 0.0

    def test_duplicate_predictions_scored_as_set(self):
        predictions = [[t("a", "r", "b"), t("a", "r", "b")]]
        gold = [[t("a", "r", "b")]]
        report = micro_f1(predictions, gold)
        assert report.n_pred == 1
        assert report.f1 == 1.0

    def test_directed_matching(self):
        report = micro_f1([[t("b", "r", "a")]], [[t("a", "r", "b")]])
        assert report.f1 == 0.0

    def test_json_serialization_is_stable(self):
        predictions = [[t("a", "r", "b")]]
        gold = [[t("a", "r", "b"), t("c", "r", "d")]]
        assert micro_f1(predictions, gold).to_json() == micro_f1(predictions, gold).to_json()


class TestSentenceF1:
    def test_harmonic_mean_identity(self):
        pred = {t("a", "r", "b"), t("x", "r", "y")}
        gold = {t("a", "r", "b"), t("c", "r", "d"), t("e", "r", "f")}
        assert sentence_f1(pred, gold) == 0.4

    def test_empty_sets(self):
        assert sentence_f1(set(), {t("a", "r", "b")}) == 0.0
        assert sentence_f1(set(), set()) == 0.0


def triplets_context(triplets) -> RetrievedContext:
    """A triplets-mode context holding ``triplets``, all at score 1."""
    items = tuple((triplet, 1.0) for triplet in triplets)
    return RetrievedContext(mode="triplets", items=items, n_kb_requested=len(items))


class TestContextHitProbability:
    def test_full_containment(self):
        gold = [[t("a", "r", "b")], [t("c", "r", "d")]]
        contexts = [triplets_context(set(g) | {t("x", "r", "y")}) for g in gold]
        assert context_hit_probability(contexts, gold) == 1.0

    def test_partial(self):
        gold = [[t("a", "r", "b"), t("c", "r", "d"), t("e", "r", "f")]]
        contexts = [triplets_context({t("a", "r", "b"), t("c", "r", "d")})]
        assert context_hit_probability(contexts, gold) == pytest.approx(2 / 3)

    def test_disjoint(self):
        gold = [[t("a", "r", "b")]]
        contexts = [triplets_context({t("x", "r", "y")})]
        assert context_hit_probability(contexts, gold) == 0.0

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            context_hit_probability([triplets_context(())], [[t("a", "r", "b")], [t("c", "r", "d")]])

    def test_monotone_in_context_inclusion(self):
        rng = random.Random(23)
        # distinct predicates: a triplets context holds at most two per predicate
        pool = [t(f"s{i}", f"r{i}", f"o{i}") for i in range(20)]
        for _ in range(100):
            gold = [rng.sample(pool, rng.randint(1, 4)) for _ in range(5)]
            small = [set(rng.sample(pool, rng.randint(0, 8))) for _ in range(5)]
            large = [s | set(rng.sample(pool, rng.randint(0, 8))) for s in small]
            p_small = context_hit_probability(list(map(triplets_context, small)), gold)
            assert p_small <= context_hit_probability(list(map(triplets_context, large)), gold)


class TestSweepContextQuality:
    def test_planted_p1_is_exactly_one(self):
        records = planted_single_records(30)
        kb = build_kb(records[:20], records[20:])
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=128))
        curve = sweep_context_quality(records, index, [1, 2, 5])
        assert curve.points[0] == (1, 1.0)

    def test_non_decreasing_on_mixed_fixture(self, mini_manifest):
        from kgte import load_dataset

        dataset = load_dataset(mini_manifest)
        kb = build_kb(dataset.train, dataset.validation)
        config = EncoderConfig(dimension=128)
        for kind in ("triplet", "example"):
            index = build_index(kb, kind, config=config)
            curve = sweep_context_quality(dataset.test, index, [1, 2, 3, 5, 8, 12])
            ps = [p for _, p in curve.points]
            assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_matches_per_nkb_retrieval(self):
        # prefix reuse must equal running the retriever at each N_KB
        from kgte import retrieve_triplets

        records = planted_single_records(12)
        kb = build_kb(records[:8], records[8:])
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=64))
        curve = sweep_context_quality(records, index, [1, 3, 5])
        golds = [list(r.gold) for r in records]
        for n_kb, p in curve.points:
            contexts = [retrieve_triplets(r.text, index, n_kb) for r in records]
            assert p == context_hit_probability(contexts, golds)

    def test_nested_downscale_is_pointwise_ordered(self):
        # distinct predicates keep the diversity filter vacuous, and n_kb
        # covering the whole KB makes retrieved sets nest with the KBs
        records = planted_single_records(24, seed=31)
        kb = build_kb(records[:16], records[16:])
        config = EncoderConfig(dimension=128)
        n_kb = len(kb.triplets)
        curves = {}
        for scale in (0.25, 0.5, 1.0):
            scaled = downscale_kb(kb, scale, seed=4)
            assert set(scaled.examples) <= set(kb.examples)
            index = build_index(scaled, "triplet", config=config)
            curves[scale] = sweep_context_quality(records, index, [n_kb])
        assert (
            curves[0.25].points[0][1]
            <= curves[0.5].points[0][1]
            <= curves[1.0].points[0][1]
        )

    def test_strictly_increasing_nkb_required(self):
        records = planted_single_records(6)
        kb = build_kb(records[:3], records[3:])
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=64))
        with pytest.raises(ValueError):
            sweep_context_quality(records, index, [3, 1])
        with pytest.raises(ValueError):
            sweep_context_quality(records, index, [0, 1])

    @pytest.mark.parametrize(
        "values,needle",
        [
            ([], "no n_kb values"),
            ([0, 1], "n_kb must be >= 1"),
            ([5, 3], "strictly increasing"),
            ([2, 2], "strictly increasing"),
            ([1, 2.5], "n_kb must be an int, got 2.5"),
            ([True, 3], "n_kb must be an int, got True"),
            ([1, "2"], "n_kb must be an int, got '2'"),
        ],
    )
    def test_n_kb_values_checked_alone(self, values, needle):
        with pytest.raises(ValueError, match=needle):
            check_n_kb_values(values)

    def test_curve_csv_export(self):
        curve = ContextQualityCurve(points=((1, 0.25), (5, 0.5)))
        assert curve.to_csv() == "n_kb,p\n1,0.25\n5,0.5\n"

    def test_curve_rejects_decreasing_p(self):
        with pytest.raises(ValueError):
            ContextQualityCurve(points=((1, 0.5), (2, 0.4)))
