from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgte._transport
from kgte import (
    AnnotatedSentence,
    EncodeError,
    EncoderConfig,
    RetrievedContext,
    Triplet,
    VectorIndex,
    build_index,
    build_kb,
    diversity_filter,
    encode,
    encode_texts,
    load_index,
    retrieve_contexts,
    retrieve_examples,
    retrieve_triplets,
    top_k,
)
from conftest import DATA_DIR, fake_embedding, planted_pair_records, planted_single_records


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
            assert context.ranked_triplets() == [record.gold[0]]
            assert context.items[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_context_growth(self):
        records = planted_pair_records(20)
        index = _planted_triplet_index(records)
        for record in records[:5]:
            previous: set = set()
            for n_kb in range(1, 21):
                current = set(retrieve_triplets(record.text, index, n_kb).ranked_triplets())
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


class TestStreamedQueries:
    """``retrieve_contexts`` encodes a split a block of rows at a time, with
    what ``encode_texts`` would send and return."""

    def test_external_posts_equal_encode_texts_posts(self, monkeypatch):
        index = load_index(DATA_DIR / "golden" / "external" / "triplet.index.json")
        texts = [f"query sentence number {i}" for i in range(70)]
        posts = []

        def transport(url, payload, headers, timeout):
            posts.append((url, json.dumps(payload), dict(headers), timeout))
            return 200, json.dumps({"data": [{"embedding": fake_embedding(text)} for text in payload["input"]]})

        monkeypatch.setattr(kgte._transport, "_requests_transport", transport)
        matrix = encode_texts(texts, index.encoder_config)
        by_matrix = posts[:]
        posts.clear()
        columns = retrieve_contexts(texts, index, [1, 3])
        assert posts == by_matrix and len(posts) == 3
        for row, context in zip(matrix, columns[1]):
            ranked = [(index.payloads[i], score) for i, score in top_k(index, row, 3)]
            assert context.items == tuple(diversity_filter(ranked))

    def test_external_blank_text_fails_before_any_post(self, embed_posts):
        index = load_index(DATA_DIR / "golden" / "external" / "triplet.index.json")
        texts = [f"query sentence number {i}" for i in range(70)]
        texts[40] = " \t "
        with pytest.raises(EncodeError, match="^text 40: cannot encode text that is empty after normalization$"):
            retrieve_contexts(texts, index, [2])
        assert embed_posts == []

    def test_hashed_error_names_the_split_position(self):
        index = _planted_triplet_index(planted_pair_records(6))
        texts = ["hello world"] * 37 + ["ab"]  # in the second block of 32
        with pytest.raises(EncodeError, match="^text 37: text shorter than the minimum n-gram size 3$"):
            retrieve_contexts(texts, index, [2])

    def test_a_split_peaks_below_its_query_matrix(self):
        # numpy registers its buffers with tracemalloc, so the peak counts a
        # query matrix if one is made: 2,000 x 384 float64 is 5.9 MiB
        index = _planted_triplet_index(planted_single_records(12), dimension=384)
        words = ["rome", "paris", "capital", "located", "born", "pilot", "texas", "poland"]
        texts = [" ".join(combo) for combo in itertools.islice(itertools.product(words, repeat=4), 2000)]
        for text in set(texts):  # fill the n-gram slot cache, which is no query state
            encode(text, index.encoder_config)
        tracemalloc.start()
        try:
            columns = retrieve_contexts(texts, index, [1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(columns[0]) == 2000
        assert peak < 2000 * 384 * 8


class TestRetrieveExamples:
    def test_self_similar_example_ranks_first(self):
        records = planted_pair_records(14)
        kb = build_kb(records[:7], records[7:])
        index = build_index(kb, "example", config=EncoderConfig(dimension=128))
        context = retrieve_examples(records[3].text, index, 5)
        assert context.items[0][0] == records[3]
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

    @pytest.mark.parametrize("n_kb_requested", [True, 2.5, -1, None], ids=["bool", "float", "negative", "none"])
    def test_n_kb_requested_must_be_a_non_negative_int(self, n_kb_requested):
        with pytest.raises(ValueError, match="^n_kb_requested must be"):
            RetrievedContext(mode="triplets", items=(), n_kb_requested=n_kb_requested)

    def test_a_run_without_retrieval_requests_zero(self):
        assert RetrievedContext(mode="triplets", items=(), n_kb_requested=0).n_returned == 0

    def test_empty_context_helpers(self):
        context = RetrievedContext(mode="triplets", items=(), n_kb_requested=5)
        assert context.n_returned == 0
        assert context.ranked_triplets() == []

    def test_is_slotted_and_replaceable(self):
        context = RetrievedContext(mode="triplets", items=(), n_kb_requested=5)
        assert not hasattr(context, "__dict__")
        assert dataclasses.replace(context, n_kb_requested=2) == RetrievedContext(mode="triplets", items=(), n_kb_requested=2)

    def test_example_context_triplet_union(self):
        records = planted_pair_records(4)
        items = tuple((record, 1.0 - i * 0.1) for i, record in enumerate(records))
        context = RetrievedContext(mode="examples", items=items, n_kb_requested=4)
        expected = [t for record in records for t in record.gold]
        assert context.ranked_triplets() == expected
