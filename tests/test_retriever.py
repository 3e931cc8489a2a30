from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgte import (
    AnnotatedSentence,
    EncoderConfig,
    RetrievedContext,
    Triplet,
    VectorIndex,
    build_index,
    build_kb,
    diversity_filter,
    empty_context,
    encode,
    retrieve_contexts,
    retrieve_examples,
    retrieve_triplets,
    top_k,
)
from conftest import planted_pair_records, planted_single_records


def ranked_list(predicates, start_score=1.0):
    """Descending-score ranked list with one triplet per given predicate."""
    return [
        (Triplet(f"s{i}", predicate, f"o{i}"), start_score - i * 0.01)
        for i, predicate in enumerate(predicates)
    ]


class TestDiversityFilter:
    def test_first_two_per_relation(self):
        ranked = ranked_list(["r1", "r1", "r1", "r2", "r1"])
        kept = diversity_filter(ranked)
        assert [ranked.index(item) for item in kept] == [0, 1, 3]

    def test_all_distinct_relations_kept(self):
        ranked = ranked_list(["r1", "r2", "r3", "r4", "r5"])
        assert diversity_filter(ranked) == ranked

    def test_single_occurrence_kept(self):
        ranked = ranked_list(["r1"])
        assert diversity_filter(ranked) == ranked

    def test_empty_input(self):
        assert diversity_filter([]) == []

    def test_alternating_relations(self):
        ranked = ranked_list(["r1", "r2", "r1", "r2", "r1", "r2"])
        assert diversity_filter(ranked) == ranked[:4]

    def test_output_is_stable_subsequence_with_cap(self):
        rng = random.Random(5)
        for _ in range(500):
            predicates = [f"r{rng.randint(0, 4)}" for _ in range(rng.randint(0, 20))]
            ranked = ranked_list(predicates)
            kept = diversity_filter(ranked)
            positions = [ranked.index(item) for item in kept]
            assert positions == sorted(positions)
            counts = {}
            for triplet, _ in kept:
                counts[triplet.predicate] = counts.get(triplet.predicate, 0) + 1
            assert all(count <= 2 for count in counts.values())


def _planted_triplet_index(records, dimension=128):
    kb = build_kb(records[: len(records) // 2], records[len(records) // 2 :])
    return build_index(kb, "triplet", config=EncoderConfig(dimension=dimension))


class TestRetrieveTriplets:
    def test_planted_nearest_neighbor_is_rank_one(self):
        records = planted_single_records(20)
        index = _planted_triplet_index(records)
        for record in records[:5]:
            context = retrieve_triplets(record.text, index, 1)
            assert context.triplets() == [record.gold[0]]
            assert context.items[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_context_growth(self):
        records = planted_pair_records(20)
        index = _planted_triplet_index(records)
        for record in records[:5]:
            previous: set = set()
            for n_kb in range(1, 21):
                current = set(retrieve_triplets(record.text, index, n_kb).triplets())
                assert previous <= current
                previous = current

    def test_n_returned_bounded_by_request(self):
        records = planted_pair_records(10)
        index = _planted_triplet_index(records)
        for n_kb in (1, 3, 7, 50):
            context = retrieve_triplets(records[0].text, index, n_kb)
            assert context.n_returned <= n_kb
            assert context.n_kb_requested == n_kb

    def test_requires_triplet_index(self):
        records = planted_pair_records(6)
        kb = build_kb(records[:3], records[3:])
        example_index = build_index(kb, "example", config=EncoderConfig(dimension=64))
        with pytest.raises(ValueError):
            retrieve_triplets("whatever sentence", example_index, 3)

    def test_prefix_property_of_increasing_n_kb(self):
        # the raw ranked candidates at k are a prefix of those at k+1
        records = planted_pair_records(15)
        index = _planted_triplet_index(records)
        query = encode(records[2].text, index.encoder_config)
        for k in range(1, 10):
            shorter = [i for i, _ in top_k(index, query, k)]
            longer = [i for i, _ in top_k(index, query, k + 1)]
            assert longer[:k] == shorter


def _tied_vectors(rng, rows, dimension):
    """The tied recipe of the acceptance suite's criterion 1: rows drawn from a
    quarter as many distinct unit vectors with four +-0.5 coordinates, so
    duplicated rows score exactly alike and ties straddle every cut."""
    distinct = np.zeros((rows // 4, dimension))
    for row in distinct:
        row[rng.choice(dimension, size=4, replace=False)] = rng.choice([-0.5, 0.5], size=4)
    return distinct[rng.integers(0, len(distinct), size=rows)]


_SPLIT_RECORDS = planted_pair_records(16)


@functools.cache
def _split_indexes() -> dict[str, VectorIndex]:
    """Both index kinds built from a KB, and both kinds over tied vectors."""
    kb = build_kb(_SPLIT_RECORDS[:8], _SPLIT_RECORDS[8:])
    config = EncoderConfig(dimension=32)
    tied = _tied_vectors(np.random.default_rng(2024), 400, config.dimension)
    examples = [
        AnnotatedSentence(f"example sentence {i}", (Triplet(f"s{i}", f"r{i % 5}", f"o{i}"),)) for i in range(len(tied))
    ]
    return {
        "triplet": build_index(kb, "triplet", config=config),
        "example": build_index(kb, "example", config=config),
        "tied-triplet": VectorIndex("triplet", [ex.gold[0] for ex in examples], tied, config),
        "tied-example": VectorIndex("example", examples, tied, config),
    }


@st.composite
def split_queries(draw):
    """An index, a split of texts, and an unsorted N_KB list holding a
    repeated value and a value past the index size."""
    index = draw(st.sampled_from(list(_split_indexes().values())))
    texts = draw(
        st.lists(
            st.one_of(
                st.sampled_from([r.text for r in _SPLIT_RECORDS]),
                st.text("abcdefgh xyz", min_size=3, max_size=24).filter(str.strip),
            ),
            max_size=4,
        )
    )
    values = draw(st.lists(st.integers(1, len(index) + 3), min_size=1, max_size=4))
    n_kb_values = draw(st.permutations([*values, values[0], len(index) + 1]))
    return index, texts, n_kb_values


class TestRetrieveContexts:
    @settings(max_examples=200, deadline=None, database=None)
    @given(query=split_queries())
    def test_each_context_equals_its_one_sentence_retrieval(self, query):
        index, texts, n_kb_values = query
        retrieve = retrieve_triplets if index.kind == "triplet" else retrieve_examples
        columns = retrieve_contexts(texts, index, n_kb_values)
        assert len(columns) == len(n_kb_values)
        for n_kb, column in zip(n_kb_values, columns):
            assert len(column) == len(texts)
            for text, context in zip(texts, column):
                # exact equality: same payloads, same float scores, same request
                assert context == retrieve(text, index, n_kb)

    def test_prefixes_equal_separate_retrievals(self):
        records = planted_pair_records(16)
        kb = build_kb(records[:8], records[8:])
        config = EncoderConfig(dimension=64)
        texts = [record.text for record in records[:4]]
        n_kb_values = [7, 1, 3, 3, 12]
        for kind, retrieve in (("triplet", retrieve_triplets), ("example", retrieve_examples)):
            index = build_index(kb, kind, config=config)
            columns = retrieve_contexts(texts, index, n_kb_values)
            assert columns == [[retrieve(text, index, n) for text in texts] for n in n_kb_values]

    def test_rejects_nonpositive_n_kb(self):
        index = _planted_triplet_index(planted_pair_records(6))
        with pytest.raises(ValueError):
            retrieve_contexts(["whatever sentence"], index, [3, 0])


class TestRetrieveExamples:
    def test_self_similar_example_ranks_first(self):
        records = planted_pair_records(14)
        kb = build_kb(records[:7], records[7:])
        index = build_index(kb, "example", config=EncoderConfig(dimension=128))
        context = retrieve_examples(records[3].text, index, 5)
        assert context.examples()[0] == records[3]
        assert context.n_returned == 5

    def test_no_diversity_filter_applied(self):
        # example retrieval returns the full top-k even when every example
        # shares a predicate; only triplet retrieval filters
        base = planted_single_records(10, seed=21)
        records = [
            base[i].__class__(
                base[i].text, (Triplet(base[i].gold[0].subject, "shared", base[i].gold[0].object),)
            )
            for i in range(10)
        ]
        kb = build_kb(records[:5], records[5:])
        index = build_index(kb, "example", config=EncoderConfig(dimension=64))
        context = retrieve_examples(records[0].text, index, 10)
        assert context.n_returned == 10


class TestRetrievedContext:
    def test_triplets_mode_rejects_three_per_predicate(self):
        items = tuple((Triplet(f"s{i}", "same", f"o{i}"), 1.0 - i * 0.1) for i in range(3))
        with pytest.raises(ValueError):
            RetrievedContext(mode="triplets", items=items, n_kb_requested=5)

    def test_scores_must_descend(self):
        items = ((Triplet("a", "r", "b"), 0.1), (Triplet("c", "r2", "d"), 0.9))
        with pytest.raises(ValueError):
            RetrievedContext(mode="triplets", items=items, n_kb_requested=5)

    def test_empty_context_helpers(self):
        context = empty_context("triplets", 5)
        assert context.n_returned == 0
        assert context.triplets() == []
        assert context.triplet_set() == frozenset()

    def test_example_context_triplet_union(self):
        records = planted_pair_records(4)
        items = tuple((record, 1.0 - i * 0.1) for i, record in enumerate(records))
        context = RetrievedContext(mode="examples", items=items, n_kb_requested=4)
        expected = [t for record in records for t in record.gold]
        assert context.ranked_triplets() == expected
        assert context.triplet_set() == frozenset(expected)
