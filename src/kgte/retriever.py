"""Turn input sentences into KB context: from a triplet index, a
diversity-filtered triplet set; from an example index, a ranked list of
(sentence, triplets) examples.

``retrieve_contexts`` is the one path from a split of sentences to their
contexts, at one or more N_KB values; ``retrieve_triplets`` and
``retrieve_examples`` are its one-sentence forms. It streams the split's
query embeddings from the encoder's row generator, so beside the index it
holds one block of 32 query rows (96 KiB at 384 dimensions), not a
len(split) x dimension matrix: 2.1 MiB for 703 WebNLG test sentences,
14.6 MiB for NYT's 5,000 at 384 dimensions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .corpus import AnnotatedSentence, Triplet, check_int, gold_triplets
from .encoder import _encoded_rows
from .vector_index import VectorIndex, top_k

# the persisted index kind each retrieval mode reads; the modes are also
# the prompting modes of the same names
CONTEXT_INDEX_KINDS = {"triplets": "triplet", "examples": "example"}
CONTEXT_MODES = tuple(CONTEXT_INDEX_KINDS)


@dataclass(frozen=True, slots=True)
class RetrievedContext:
    mode: str
    items: tuple[tuple[Triplet | AnnotatedSentence, float], ...]
    n_kb_requested: int

    def __post_init__(self) -> None:
        if self.mode not in CONTEXT_MODES:
            raise ValueError(f"unknown context mode {self.mode!r}")
        check_int("n_kb_requested", self.n_kb_requested, 0)  # 0 for a run without retrieval
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

    def ranked_triplets(self) -> list[Triplet]:
        """Context triplets in rank order; for example contexts, gold triplets
        concatenated in example rank order, deduplicated."""
        if self.mode == "triplets":
            return [t for t, _ in self.items]
        return list(gold_triplets(ex for ex, _ in self.items))


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

    Each text is encoded once, to the row ``encode_texts`` would give it,
    and ranked once, at the largest N_KB. The rows are streamed: one block
    of 32 is held at a time (for the external provider, one POSTed block),
    never a matrix of the split. ``top_k`` orders nodes totally by (-score,
    id), so the top n nodes are the length-n prefix of the top max(N_KB):
    each context equals a separate retrieval at its N_KB. A triplet index
    passes each prefix through the diversity filter; an example index keeps
    it as is.
    """
    for n in n_kb_values:
        check_n_kb(n)
    if not n_kb_values:
        return []
    mode = next(mode for mode, kind in CONTEXT_INDEX_KINDS.items() if kind == index.kind)
    k = max(n_kb_values)
    columns: list[list[RetrievedContext]] = [[] for _ in n_kb_values]
    for query in _encoded_rows(texts, index.encoder_config):
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
