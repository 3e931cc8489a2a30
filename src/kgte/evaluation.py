"""Micro-averaged scoring, per-triplet-count breakdowns, and the
context-quality metric P(N_KB).

Matching is exact equality of normalized (subject, predicate, object) tuples,
scored over sets, with subject/object order significant.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .corpus import AnnotatedSentence, Triplet, triplet_to_json
from .retriever import RetrievedContext, check_n_kb, retrieve_contexts
from .vector_index import VectorIndex, top_k  # noqa: F401  kept importable from here for call tracers


def _f1(tp: int, n_pred: int, n_gold: int) -> float:
    """2*tp/(n_pred+n_gold) is the harmonic mean of precision and recall and
    is exact in floating point for small counts; 0.0 when both are empty."""
    return 2 * tp / (n_pred + n_gold) if n_pred + n_gold else 0.0


def sentence_f1(pred: set, gold: set) -> float:
    """Per-sentence F1 of a predicted and a gold triplet set."""
    return _f1(len(pred & gold), len(pred), len(gold))


@dataclass(frozen=True)
class CountBucket:
    """Counters summed over a group of sentences: all, or one gold-set size."""

    tp: int
    n_pred: int
    n_gold: int

    @property
    def precision(self) -> float:
        return self.tp / self.n_pred if self.n_pred else 0.0

    @property
    def recall(self) -> float:
        return self.tp / self.n_gold if self.n_gold else 0.0

    @property
    def f1(self) -> float:
        return _f1(self.tp, self.n_pred, self.n_gold)


@dataclass(frozen=True)
class SentenceScore:
    index: int
    pred: tuple[Triplet, ...]
    gold: tuple[Triplet, ...]
    tp: int


def _sum_scores(scores: Sequence[SentenceScore]) -> CountBucket:
    return CountBucket(sum(s.tp for s in scores), sum(len(s.pred) for s in scores), sum(len(s.gold) for s in scores))


@dataclass(frozen=True)
class EvalReport:
    """Micro scores of aligned sentences. Only the per-sentence scores are
    stored; the totals and the per-gold-count buckets are their sums."""

    per_sentence: tuple[SentenceScore, ...]

    @cached_property
    def totals(self) -> CountBucket:
        return _sum_scores(self.per_sentence)

    tp = property(lambda self: self.totals.tp)
    n_pred = property(lambda self: self.totals.n_pred)
    n_gold = property(lambda self: self.totals.n_gold)
    precision = property(lambda self: self.totals.precision)
    recall = property(lambda self: self.totals.recall)
    f1 = property(lambda self: self.totals.f1)

    @cached_property
    def per_count(self) -> dict[int, CountBucket]:
        """Buckets keyed by gold-set size; they sum to ``totals`` exactly."""
        groups: dict[int, list[SentenceScore]] = {}
        for score in self.per_sentence:
            groups.setdefault(len(score.gold), []).append(score)
        return {count: _sum_scores(group) for count, group in groups.items()}

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "n_pred": self.n_pred,
            "n_gold": self.n_gold,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "per_count": {
                str(count): {**asdict(bucket), "f1": bucket.f1} for count, bucket in sorted(self.per_count.items())
            },
            "per_sentence": [
                {
                    "id": record.index,
                    "pred": list(map(triplet_to_json, record.pred)),
                    "gold": list(map(triplet_to_json, record.gold)),
                    "tp": record.tp,
                }
                for record in self.per_sentence
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def micro_f1(
    predictions: Sequence[Iterable[Triplet]], gold: Sequence[Iterable[Triplet]]
) -> EvalReport:
    """Corpus-level micro scores from aligned per-sentence triplet sets.

    Each gold triplet can match at most once (set semantics).
    """
    if len(predictions) != len(gold):
        raise ValueError(
            f"misaligned inputs: {len(predictions)} predictions vs {len(gold)} gold sets"
        )
    records = []
    for index, (pred_raw, gold_raw) in enumerate(zip(predictions, gold)):
        pred_set = set(pred_raw)
        gold_set = set(gold_raw)
        records.append(
            SentenceScore(
                index=index,
                pred=tuple(sorted(pred_set)),
                gold=tuple(sorted(gold_set)),
                tp=len(pred_set & gold_set),
            )
        )
    return EvalReport(per_sentence=tuple(records))


def context_hit_probability(
    contexts: Sequence[RetrievedContext], gold: Sequence[Iterable[Triplet]]
) -> float:
    """Fraction of gold triplets present in their sentence's retrieved context,
    among its ``ranked_triplets``: an examples-mode context contributes the
    union of its examples' gold sets.
    """
    if len(contexts) != len(gold):
        raise ValueError(f"misaligned inputs: {len(contexts)} contexts vs {len(gold)} gold sets")
    hits = 0
    total = 0
    for context, gold_raw in zip(contexts, gold):
        gold_set = set(gold_raw)
        total += len(gold_set)
        hits += len(gold_set.intersection(context.ranked_triplets()))
    if total == 0:
        raise ValueError("no gold triplets to score against")
    return hits / total


@dataclass(frozen=True)
class ContextQualityCurve:
    """P(N_KB) at strictly increasing N_KB values, as ``(n_kb, p)`` points; P
    never decreases as N_KB grows."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        ns = [n for n, _ in self.points]
        ps = [p for _, p in self.points]
        if any(a >= b for a, b in zip(ns, ns[1:])):
            raise ValueError("points must have strictly increasing n_kb")
        if any(a > b for a, b in zip(ps, ps[1:])):
            raise ValueError("P must be non-decreasing in n_kb")

    def to_csv(self) -> str:
        lines = ["n_kb,p"]
        lines.extend(f"{n},{p:.10g}" for n, p in self.points)
        return "\n".join(lines) + "\n"


def check_n_kb_values(n_kb_values: Sequence[int]) -> list[int]:
    """The N_KB values of a sweep as a list; rejects an empty list, a value
    that is not an int of at least 1 and a list that is not strictly
    increasing."""
    values = list(n_kb_values)
    if not values:
        raise ValueError("no n_kb values to sweep")
    for n in values:
        check_n_kb(n)
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError("n_kb values must be strictly increasing")
    return values


def sweep_context_quality(
    sentences: Sequence[AnnotatedSentence], index: VectorIndex, n_kb_values: Sequence[int]
) -> ContextQualityCurve:
    """P(N_KB) over a split for each requested N_KB, strictly increasing.

    The contexts come from ``retrieve_contexts`` over the split, diversity
    filter included for a triplet index: each sentence is encoded and ranked
    once, at the largest N_KB.
    """
    if not sentences:
        raise ValueError("no sentences to sweep")
    values = check_n_kb_values(n_kb_values)
    golds = [set(s.gold) for s in sentences]
    columns = retrieve_contexts([s.text for s in sentences], index, values)
    return ContextQualityCurve(
        points=tuple((n, context_hit_probability(contexts, golds)) for n, contexts in zip(values, columns))
    )
