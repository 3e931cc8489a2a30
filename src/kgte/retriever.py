"""Turn input sentences into KB context: from a triplet index, a
diversity-filtered triplet set; from an example index, a ranked list of
(sentence, triplets) examples.

``retrieve_contexts`` is the one path from a split of sentences to their
contexts, at one or more N_KB values; ``retrieve_triplets`` and
``retrieve_examples`` are its one-sentence forms."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .corpus import AnnotatedSentence, Triplet, check_int
from .encoder import encode_texts
from .vector_index import VectorIndex, top_k

# the persisted index kind each retrieval mode reads; the modes are also
# the prompting modes of the same names
CONTEXT_INDEX_KINDS = {"triplets": "triplet", "examples": "example"}
CONTEXT_MODES = tuple(CONTEXT_INDEX_KINDS)


@dataclass(frozen=True)
class RetrievedContext:
    mode: str
    items: tuple[tuple[Triplet | AnnotatedSentence, float], ...]
    n_kb_requested: int

    def __post_init__(self) -> None:
        if self.mode not in CONTEXT_MODES:
            raise ValueError(f"unknown context mode {self.mode!r}")
        if self.n_kb_requested < 0:
            raise ValueError("n_kb_requested must be >= 0")
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) > self.n_kb_requested:
            raise ValueError("more items than requested")
        scores = [score for _, score in self.items]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("items are not in descending score order")
        if self.mode == "triplets":
            per_predicate = Counter(t.predicate for t, _ in self.items)
            if per_predicate and per_predicate.most_common(1)[0][1] > 2:
                raise ValueError("triplets context holds more than two items per predicate")

    @property
    def n_returned(self) -> int:
        return len(self.items)

    def triplets(self) -> list[Triplet]:
        if self.mode != "triplets":
            raise ValueError("not a triplets context")
        return [t for t, _ in self.items]

    def examples(self) -> list[AnnotatedSentence]:
        if self.mode != "examples":
            raise ValueError("not an examples context")
        return [ex for ex, _ in self.items]

    def ranked_triplets(self) -> list[Triplet]:
        """Context triplets in rank order; for example contexts, gold triplets
        concatenated in example rank order, deduplicated."""
        if self.mode == "triplets":
            return self.triplets()
        return list(dict.fromkeys(t for ex, _ in self.items for t in ex.gold))

    def triplet_set(self) -> frozenset[Triplet]:
        return frozenset(self.ranked_triplets())


def empty_context(mode: str, n_kb: int = 0) -> RetrievedContext:
    """Context for the no-KB settings (scale 0, or prompts without retrieval)."""
    return RetrievedContext(mode=mode, items=(), n_kb_requested=n_kb)


def diversity_filter(
    ranked: Sequence[tuple[Triplet, float]]
) -> list[tuple[Triplet, float]]:
    """Keep the first two occurrences of each predicate, in rank order.

    Stable: the output is a subsequence of the input. A predicate seen only
    once keeps its single occurrence.
    """
    seen: Counter[str] = Counter()
    kept = []
    for triplet, score in ranked:
        if seen[triplet.predicate] < 2:
            kept.append((triplet, score))
            seen[triplet.predicate] += 1
    return kept


def check_n_kb(n_kb: int) -> None:
    """Reject an N_KB that is not an int of at least 1, the one rule every
    context request obeys."""
    check_int("n_kb", n_kb, 1)


def retrieve_contexts(
    texts: Sequence[str], index: VectorIndex, n_kb_values: Sequence[int]
) -> list[list[RetrievedContext]]:
    """The contexts of a split: ``result[j][i]`` is the context of
    ``texts[i]`` at ``n_kb_values[j]``.

    Each text is encoded once, by one ``encode_texts`` call over the split,
    and ranked once, at the largest N_KB. ``top_k`` orders nodes totally by
    (-score, id), so the top n nodes are the length-n prefix of the top
    max(N_KB): each context equals a separate retrieval at its N_KB. A
    triplet index passes each prefix through the diversity filter; an
    example index keeps it as is.
    """
    for n in n_kb_values:
        check_n_kb(n)
    if not n_kb_values:
        return []
    mode = next(mode for mode, kind in CONTEXT_INDEX_KINDS.items() if kind == index.kind)
    k = max(n_kb_values)
    columns: list[list[RetrievedContext]] = [[] for _ in n_kb_values]
    for query in encode_texts(texts, index.encoder_config):
        ranked = [(index.payloads[i], score) for i, score in top_k(index, query, k)]
        for column, n in zip(columns, n_kb_values):
            items = diversity_filter(ranked[:n]) if mode == "triplets" else ranked[:n]
            column.append(RetrievedContext(mode=mode, items=tuple(items), n_kb_requested=n))
    return columns


def retrieve_triplets(sentence: str, index: VectorIndex, n_kb: int) -> RetrievedContext:
    """Top ``n_kb`` KB triplets by cosine similarity to the sentence, then the
    diversity filter. The filter may return fewer than ``n_kb`` items; no
    top-up is performed."""
    if index.kind != "triplet":
        raise ValueError(f"retrieve_triplets needs a triplet index, got {index.kind!r}")
    return retrieve_contexts([sentence], index, [n_kb])[0][0]


def retrieve_examples(sentence: str, index: VectorIndex, n_kb: int) -> RetrievedContext:
    """Top ``n_kb`` (sentence, triplets) examples by similarity; no filtering."""
    if index.kind != "example":
        raise ValueError(f"retrieve_examples needs an example index, got {index.kind!r}")
    return retrieve_contexts([sentence], index, [n_kb])[0][0]
