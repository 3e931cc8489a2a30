from __future__ import annotations

import dataclasses
import gc
import json
import pickle
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgte import (
    AnnotatedSentence,
    EncoderConfig,
    IndexFormatError,
    IndexNode,
    Triplet,
    VectorIndex,
    build_index,
    build_kb,
    encode,
    load_index,
    retrieve_contexts,
    save_index,
    select_rows,
    top_k,
)
import kgte.encoder
from conftest import FAKE_EMBED_DIM
from kgte.corpus import normalize_surface
from kgte.vector_index import EXAMPLE_EMBED_MODES


def brute_force_top_k(index, query, k):
    """Independent oracle: per-row python-float dot, full sort by
    (-score, id)."""
    scored = []
    for row_id, row in enumerate(index._matrix):
        score = 0.0
        for i in range(index.dimension):
            score += float(row[i]) * float(query[i])
        scored.append((row_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


# Unit vectors whose dot products with small-integer queries are exact in
# float64, so ties are exact ties under any summation order.
EXACT_ROWS = [
    np.array(row)
    for row in (
        [1.0, 0.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.5, 0.5, 0.5, 0.5],
        [0.5, -0.5, 0.5, -0.5],
    )
]


def random_unit_index(n, dimension, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dimension))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    payloads = [Triplet(f"s{i}", "r", f"o{i}") for i in range(n)]
    config = EncoderConfig(dimension=dimension)
    return VectorIndex("triplet", payloads, list(vectors), config), rng


def small_kb():
    t1 = Triplet("alan bean", "birth place", "wheeler texas")
    t2 = Triplet("alan bean", "occupation", "test pilot")
    t3 = Triplet("rome", "capital of", "italy")
    examples = [
        AnnotatedSentence("Alan Bean was born in Wheeler, Texas.", (t1,)),
        AnnotatedSentence("Alan Bean worked as a test pilot.", (t2, t1)),
        AnnotatedSentence("Rome is the capital of Italy.", (t3,)),
    ]
    return build_kb(examples[:2], examples[2:])


class TestBuildIndex:
    def test_triplet_nodes_bijective_with_kb(self):
        kb = small_kb()
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=64))
        assert len(index) == 3
        assert index.payloads == kb.triplets

    def test_duplicate_triplet_across_examples_single_node(self):
        # t1 appears in two examples but the KB deduplicates upstream
        kb = small_kb()
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=64))
        subjects = list(index.payloads)
        assert len(subjects) == len(set(subjects))

    def test_example_nodes_sentence_only_mode(self):
        kb = small_kb()
        config = EncoderConfig(dimension=64)
        index = build_index(kb, "example", "sentence", config)
        assert len(index) == 3
        assert index.payloads[0] is kb.examples[0]

    def test_identical_sentences_same_vector_distinct_payloads(self):
        t1 = Triplet("a", "r1", "b")
        t2 = Triplet("c", "r2", "d")
        s1 = AnnotatedSentence("the same sentence", (t1,))
        s2 = AnnotatedSentence("the same sentence", (t2,))
        kb = build_kb([s1], [s2])
        config = EncoderConfig(dimension=64)
        index = build_index(kb, "example", "sentence", config)
        assert np.array_equal(index._matrix[0], index._matrix[1])
        assert index.payloads[0] != index.payloads[1]
        # sentence+triplets mode separates them
        combined = build_index(kb, "example", "sentence+triplets", config)
        assert not np.array_equal(combined._matrix[0], combined._matrix[1])

    def test_embed_mode_rejected_on_a_triplet_index(self):
        with pytest.raises(ValueError, match="needs an example index"):
            build_index(small_kb(), "triplet", "sentence+triplets", EncoderConfig(dimension=64))

    def test_empty_kb_rejected(self):
        kb = small_kb()
        empty = dataclasses.replace(kb, triplets=(), examples=())
        with pytest.raises(ValueError):
            build_index(empty, "triplet", config=EncoderConfig(dimension=64))


@pytest.fixture
def encode_calls(monkeypatch) -> list[str]:
    """Counts the hashed n-gram encoder's calls; returns the encoded texts."""
    texts = []
    real_encode = kgte.encoder.encode

    def counting_encode(text, config):
        texts.append(text)
        return real_encode(text, config)

    monkeypatch.setattr(kgte.encoder, "encode", counting_encode)
    return texts


class TestOneLiveCopy:
    """``build_index`` returns the live index built from equal inputs, and
    holds no index alive itself."""

    # a dimension no other test builds with, so no index of theirs is equal
    CONFIG = EncoderConfig(dimension=24)

    def test_equal_inputs_give_the_live_index_and_encode_nothing(self, encode_calls):
        index = build_index(small_kb(), "triplet", config=self.CONFIG)
        assert len(encode_calls) == len(index)
        encode_calls.clear()
        # an equal KB and config built from fresh objects
        again = build_index(small_kb(), "triplet", config=EncoderConfig(dimension=24))
        assert again is index
        assert encode_calls == []

    def test_a_dropped_index_is_freed_and_built_again(self, encode_calls):
        index = build_index(small_kb(), "example", "sentence+triplets", self.CONFIG)
        matrix = index._matrix.copy()
        ref = weakref.ref(index)
        del index
        gc.collect()
        assert ref() is None
        encode_calls.clear()
        rebuilt = build_index(small_kb(), "example", "sentence+triplets", self.CONFIG)
        assert len(encode_calls) == len(rebuilt) == 3
        assert np.array_equal(rebuilt._matrix, matrix)

    def test_any_different_input_gives_a_distinct_index(self):
        kb = small_kb()
        base = build_index(kb, "example", "sentence", self.CONFIG)
        others = [
            build_index(kb, "triplet", config=self.CONFIG),
            build_index(kb, "example", "sentence+triplets", self.CONFIG),
            build_index(kb, "example", "sentence", EncoderConfig(dimension=25)),
            build_index(kb, "example", "sentence", EncoderConfig(dimension=24, ngram_range=(2, 4))),
            build_index(dataclasses.replace(kb, triplets=kb.triplets[::-1]), "triplet", config=self.CONFIG),
            build_index(dataclasses.replace(kb, examples=kb.examples[::-1]), "example", "sentence", self.CONFIG),
        ]
        built = [base, *others]
        assert len({id(index) for index in built}) == len(built)
        assert others[-2].payloads == kb.triplets[::-1]
        assert others[-1].payloads == kb.examples[::-1]
        assert np.array_equal(others[-1]._matrix, base._matrix[::-1])

    def test_a_live_external_index_sends_no_request(self, embed_posts):
        config = EncoderConfig(provider="external", dimension=FAKE_EMBED_DIM, endpoint="http://embed.invalid/v1", model="m-1")
        index = build_index(small_kb(), "triplet", config=config)
        assert len(embed_posts) == 1
        assert build_index(small_kb(), "triplet", config=config) is index
        assert len(embed_posts) == 1
        del index
        gc.collect()
        build_index(small_kb(), "triplet", config=config)
        assert len(embed_posts) == 2


class TestTopK:
    def test_query_equal_to_node_vector_ranks_first(self):
        index, _ = random_unit_index(50, 16, seed=1)
        query = index._matrix[17]
        ranked = top_k(index, query, 3)
        assert ranked[0][0] == 17
        assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_k_larger_than_node_count_returns_all(self):
        index, _ = random_unit_index(5, 8, seed=2)
        assert len(top_k(index, index._matrix[0], 50)) == 5

    def test_matches_brute_force_oracle(self):
        index, rng = random_unit_index(200, 16, seed=3)
        for _ in range(10):
            query = rng.normal(size=16)
            query /= np.linalg.norm(query)
            got = top_k(index, query, 10)
            expected = brute_force_top_k(index, query, 10)
            assert [i for i, _ in got] == [i for i, _ in expected]
            for (_, a), (_, b) in zip(got, expected):
                assert a == pytest.approx(b, abs=1e-12)

    def test_tie_break_by_ascending_id(self):
        config = EncoderConfig(dimension=4)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        payloads = [Triplet(f"s{i}", "r", f"o{i}") for i in range(4)]
        index = VectorIndex("triplet", payloads, [v, v, v, v], config)
        ranked = top_k(index, v, 4)
        assert [i for i, _ in ranked] == [0, 1, 2, 3]

    def test_scores_non_increasing_ids_increase_on_ties(self):
        index, rng = random_unit_index(100, 8, seed=4)
        query = rng.normal(size=8)
        query /= np.linalg.norm(query)
        ranked = top_k(index, query, 100)
        for (ia, sa), (ib, sb) in zip(ranked, ranked[1:]):
            assert sa >= sb
            if sa == sb:
                assert ia < ib

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        rows=st.lists(st.integers(0, len(EXACT_ROWS) - 1), min_size=1, max_size=14),
        query=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    )
    def test_repeated_rows_match_oracle_for_every_k(self, rows, query):
        payloads = [Triplet(f"s{i}", "r", f"o{i}") for i in range(len(rows))]
        index = VectorIndex(
            "triplet", payloads, [EXACT_ROWS[r] for r in rows], EncoderConfig(dimension=4)
        )
        query = np.array(query, dtype=np.float64)
        for k in range(1, len(index) + 2):
            assert top_k(index, query, k) == brute_force_top_k(index, query, k)

    def test_dimension_mismatch_rejected(self):
        index, _ = random_unit_index(5, 8)
        with pytest.raises(ValueError):
            top_k(index, np.ones(4) / 2.0, 1)

    def test_k_must_be_positive(self):
        index, _ = random_unit_index(5, 8)
        with pytest.raises(ValueError):
            top_k(index, index._matrix[0], 0)

    @pytest.mark.parametrize("k", [True, 2.0, "2", np.int64(2), None])
    def test_k_must_be_an_int(self, k):
        index, _ = random_unit_index(5, 8)
        with pytest.raises(ValueError, match="k must be an int"):
            top_k(index, index._matrix[0], k)

    def test_returns_row_ids_and_scores_as_python_numbers(self):
        index, _ = random_unit_index(20, 8, seed=5)
        ranked = top_k(index, index._matrix[3], 4)
        scores = index._matrix @ index._matrix[3]
        for row_id, score in ranked:
            assert type(row_id) is int and type(score) is float
            assert score == scores[row_id]


class TestConstructor:
    def test_adopts_a_contiguous_float64_matrix_without_a_copy(self):
        matrix = np.array(EXACT_ROWS)
        payloads = [Triplet(f"s{i}", "r", f"o{i}") for i in range(len(matrix))]
        index = VectorIndex("triplet", payloads, matrix, EncoderConfig(dimension=4))
        assert index._matrix is matrix
        assert not matrix.flags.writeable
        assert index.payloads == tuple(payloads)

    def test_dimension_is_the_encoder_configs(self):
        index, _ = random_unit_index(3, 8)
        assert index.dimension == index.encoder_config.dimension == 8
        with pytest.raises(AttributeError):
            index.dimension = 9
        assert not hasattr(index, "metric")
        assert not hasattr(VectorIndex, "from_entries")

    @pytest.mark.parametrize(
        "payload_count,vectors,dimension",
        [
            pytest.param(1, [[1.0, 0.0]], 384, id="dimension-below-config"),
            pytest.param(1, [[1.0, 0.0, 0.0, 0.0, 0.0]], 4, id="dimension-above-config"),
            pytest.param(2, [[1.0, 0.0, 0.0, 0.0]], 4, id="fewer-rows-than-payloads"),
            pytest.param(1, [[1.0, 0.0, 0.0, 0.0]] * 2, 4, id="more-rows-than-payloads"),
            pytest.param(1, [1.0, 0.0, 0.0, 0.0], 4, id="flat"),
        ],
    )
    def test_shape_must_match_payloads_and_config(self, payload_count, vectors, dimension):
        payloads = [Triplet(f"s{i}", "r", "o") for i in range(payload_count)]
        with pytest.raises(ValueError, match="shape"):
            VectorIndex("triplet", payloads, np.array(vectors), EncoderConfig(dimension=dimension))

    def test_unknown_kind_and_empty_index_rejected(self):
        config = EncoderConfig(dimension=4)
        with pytest.raises(ValueError, match="kind"):
            VectorIndex("sentence", [Triplet("a", "r", "b")], EXACT_ROWS[:1], config)
        with pytest.raises(ValueError, match="no nodes"):
            VectorIndex("triplet", [], np.empty((0, 4)), config)

    @pytest.mark.parametrize("kind", ["triplet", "example"])
    def test_payload_of_the_other_kind_rejected(self, kind):
        triplet = Triplet("a", "r", "b")
        sentence = AnnotatedSentence("a r b", (triplet,))
        right, wrong = (triplet, sentence) if kind == "triplet" else (sentence, triplet)
        message = f"^row 1: a {kind} index holds {type(right).__name__} payloads, not {type(wrong).__name__}$"
        with pytest.raises(ValueError, match=message):
            VectorIndex(kind, [right, wrong], EXACT_ROWS[:2], EncoderConfig(dimension=4))

    def test_rejected_vectors_stay_writable(self):
        matrix = np.array([[1.0, 1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="not unit"):
            VectorIndex("triplet", [Triplet("a", "r", "b")], matrix, EncoderConfig(dimension=4))
        assert matrix.flags.writeable

    def test_example_embed_mode_is_checked(self):
        config = EncoderConfig(dimension=4)
        example = [AnnotatedSentence("a r b", (Triplet("a", "r", "b"),))]
        assert VectorIndex("example", example, EXACT_ROWS[:1], config).example_embed_mode == "sentence"
        assert VectorIndex("example", example, EXACT_ROWS[:1], config, "sentence+triplets").example_embed_mode == "sentence+triplets"
        with pytest.raises(ValueError, match="unknown example embed mode 'triplets'"):
            VectorIndex("example", example, EXACT_ROWS[:1], config, "triplets")
        with pytest.raises(ValueError, match="needs an example index, not triplet"):
            VectorIndex("triplet", [Triplet("a", "r", "b")], EXACT_ROWS[:1], config, "sentence+triplets")

    def test_indexes_compare_by_identity(self):
        payloads = [Triplet(f"s{i}", "r", f"o{i}") for i in range(len(EXACT_ROWS))]
        config = EncoderConfig(dimension=4)
        a = VectorIndex("triplet", payloads, EXACT_ROWS, config)
        b = VectorIndex("triplet", payloads, EXACT_ROWS, config)
        assert a == a and a != b
        assert len({a, b}) == 2


class TestImmutability:
    def test_matrix_and_vectors_frozen(self):
        index, _ = random_unit_index(5, 8)
        with pytest.raises(ValueError):
            index._matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            index.nodes[0].vector[0] = 5.0
        assert isinstance(index.nodes, tuple)

    def test_node_vectors_are_rows_of_the_matrix(self):
        index, _ = random_unit_index(5, 8)
        for node in index.nodes:
            assert node.vector.base is index._matrix
            assert np.array_equal(node.vector, index._matrix[node.id])

    def test_nodes_have_no_instance_dict(self):
        index, _ = random_unit_index(3, 4)
        for node in index.nodes:
            assert not hasattr(node, "__dict__")

    def test_payloads_and_nodes_cannot_be_reassigned(self):
        index, _ = random_unit_index(3, 4)
        for name in ("payloads", "nodes"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(index, name, ())
        assert isinstance(index.payloads, tuple)

    def test_non_unit_vector_rejected(self):
        config = EncoderConfig(dimension=4)
        with pytest.raises(ValueError):
            VectorIndex(
                "triplet", [Triplet("a", "r", "b")], [np.array([1.0, 1.0, 0.0, 0.0])], config
            )


class TestSelectRows:
    """A selection is some rows of an index, in an order of its own, over
    the same shared matrix."""

    ROWS = [7, 2, 11, 3, 2]  # out of row order, row 2 twice

    def test_shares_the_matrix_and_keeps_read_only_row_ids(self, encode_calls):
        index, _ = random_unit_index(12, 8)
        selection = select_rows(index, self.ROWS)
        assert selection._matrix is index._matrix
        assert selection._rows.tolist() == self.ROWS and not selection._rows.flags.writeable
        assert selection.payloads == tuple(index.payloads[r] for r in self.ROWS)
        assert len(selection) == len(self.ROWS)
        assert (selection.kind, selection.encoder_config, selection.example_embed_mode) == (
            index.kind, index.encoder_config, index.example_embed_mode)
        assert encode_calls == []

    def test_nodes_are_the_selections_own_rows(self):
        index, _ = random_unit_index(12, 8)
        selection = select_rows(index, self.ROWS)
        nodes = selection.nodes
        assert [n.id for n in nodes] == list(range(len(self.ROWS)))
        for node, row in zip(nodes, self.ROWS, strict=True):
            assert node.payload is index.payloads[row]
            assert node.vector.base is index._matrix
            assert np.array_equal(node.vector, index._matrix[row])
            assert not node.vector.flags.writeable

    def test_scores_are_the_full_products_read_at_the_rows(self):
        index, rng = random_unit_index(300, 16)
        selection = select_rows(index, rng.permutation(300)[:120].tolist())
        for query in rng.normal(size=(5, 16)):
            scores = (index._matrix @ query)[selection._rows].tolist()
            ranked = top_k(selection, query, len(selection))
            assert ranked == sorted(enumerate(scores), key=lambda pair: (-pair[1], pair[0]))

    def test_a_selection_of_a_selection_composes(self):
        index, _ = random_unit_index(12, 8)
        inner = select_rows(select_rows(index, self.ROWS), [4, 0, 2])
        assert inner._matrix is index._matrix
        assert inner._rows.tolist() == [2, 7, 11]
        assert inner.payloads == tuple(index.payloads[r] for r in (2, 7, 11))

    @pytest.mark.parametrize(
        "rows,needle",
        [([], "non-empty"), ([[0, 1]], "non-empty"), ([0, 12], r"\[0, 12\)"), ([-1], r"\[0, 12\)"),
         ([0.0, 1.0], "must be ints"), ([True], "must be ints")],
        ids=["empty", "nested", "past-the-end", "negative", "floats", "bools"],
    )
    def test_bad_rows_rejected(self, rows, needle):
        index, _ = random_unit_index(12, 8)
        with pytest.raises(ValueError, match=needle):
            select_rows(index, rows)

    @pytest.mark.parametrize("kind", ["triplet", "example"])
    def test_saves_as_the_index_of_its_payloads_and_loads_as_a_plain_index(self, tmp_path, kind):
        kb = small_kb()
        config = EncoderConfig(dimension=16)
        index = build_index(kb, kind, config=config)
        rows = [2, 0] if kind == "triplet" else [1, 2]
        selection = select_rows(index, rows)
        save_index(selection, tmp_path / "selection.json")
        payloads = [index.payloads[r] for r in rows]
        save_index(VectorIndex(kind, payloads, index._matrix[rows], config), tmp_path / "built.json")
        for suffix in (".json", ".npy"):
            assert (tmp_path / f"selection{suffix}").read_bytes() == (tmp_path / f"built{suffix}").read_bytes()
        loaded = load_index(tmp_path / "selection.json")
        assert loaded._rows is None and loaded.payloads == selection.payloads
        assert np.array_equal(loaded._matrix, index._matrix[rows])


class TestNoPerRowObjects:
    """Building, retrieving, saving and loading make no per-row object;
    ``nodes`` makes one ``IndexNode`` per row on first access."""

    @pytest.mark.parametrize("kind", ["triplet", "example"])
    def test_no_path_builds_nodes_until_they_are_read(self, tmp_path, kind):
        kb = small_kb()
        index = build_index(kb, kind, config=EncoderConfig(dimension=16))
        texts = [example.text for example in kb.examples]
        contexts = retrieve_contexts(texts, index, [1, 2])
        top_k(index, index._matrix[0], 2)
        save_index(index, tmp_path / "index.json")
        reloaded = load_index(tmp_path / "index.json")
        assert retrieve_contexts(texts, reloaded, [1, 2]) == contexts
        for built in (index, reloaded):
            assert "nodes" not in vars(built)
            nodes = built.nodes
            assert [(n.id, n.kind) for n in nodes] == [(i, kind) for i in range(len(built))]
            assert all(n.payload is p for n, p in zip(nodes, built.payloads, strict=True))
            for node in nodes:
                assert type(node) is IndexNode
                assert np.shares_memory(node.vector, built._matrix)
                assert np.array_equal(node.vector, built._matrix[node.id])
                assert not node.vector.flags.writeable
            assert built.nodes is nodes and vars(built)["nodes"] is nodes


def _payload_text():
    # any printable text, non-ASCII included, that survives normalization
    return st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=12).filter(normalize_surface)


_triplets = st.builds(Triplet, _payload_text(), _payload_text(), _payload_text())


@st.composite
def saved_index_inputs(draw):
    """A kind, one payload per row, and a unit matrix with repeated rows."""
    kind = draw(st.sampled_from(["triplet", "example"]))
    dimension = draw(st.integers(1, 6))
    pool = draw(
        st.lists(
            st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=dimension, max_size=dimension).filter(
                lambda v: np.linalg.norm(v) > 1e-3
            ),
            min_size=1,
            max_size=4,
        )
    )
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
    matrix = np.array([pool[r] for r in rows], dtype=np.float64)
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    if kind == "triplet":
        payloads = draw(st.lists(_triplets, min_size=len(rows), max_size=len(rows)))
    else:
        examples = st.builds(AnnotatedSentence, _payload_text(), st.lists(_triplets, max_size=3).map(tuple))
        payloads = draw(st.lists(examples, min_size=len(rows), max_size=len(rows)))
    return kind, payloads, matrix


@st.composite
def saved_indexes(draw):
    """An index of either kind under either encoder provider, an example
    index in either embed mode; its vectors are given, so nothing is encoded."""
    kind, payloads, matrix = draw(saved_index_inputs())
    dimension = matrix.shape[1]
    low = draw(st.integers(1, 4))
    config = draw(
        st.sampled_from(
            [
                EncoderConfig(dimension=dimension, ngram_range=(low, draw(st.integers(low, 6)))),
                EncoderConfig(provider="external", dimension=dimension, endpoint="http://embed.invalid/v1", model="m-1"),
            ]
        )
    )
    embed_mode = draw(st.sampled_from(EXAMPLE_EMBED_MODES)) if kind == "example" else "sentence"
    return VectorIndex(kind, payloads, matrix, config, embed_mode)


class TestPersistence:
    @settings(max_examples=150, deadline=None, database=None)
    @given(index=saved_indexes())
    def test_round_trip_keeps_every_index_fact(self, tmp_path_factory, index):
        path = tmp_path_factory.mktemp("index") / "index.json"
        save_index(index, path)
        reloaded = load_index(path)
        assert (reloaded.kind, reloaded.example_embed_mode) == (index.kind, index.example_embed_mode)
        assert reloaded.encoder_config == index.encoder_config
        assert reloaded.payloads == index.payloads
        assert reloaded._matrix.dtype == np.float64 and reloaded._matrix.tobytes() == index._matrix.tobytes()
        header = json.loads(path.read_text())
        assert set(header) == {"version", "kind", "encoder", "payloads", *(["example_embed_mode"] if index.kind == "example" else [])}

    @settings(max_examples=150, deadline=None, database=None)
    @given(inputs=saved_index_inputs(), query_seed=st.integers(0, 2**32 - 1))
    def test_round_trip_small_index(self, tmp_path_factory, inputs, query_seed):
        kind, payloads, matrix = inputs
        index = VectorIndex(kind, payloads, matrix, EncoderConfig(dimension=matrix.shape[1]))
        path = tmp_path_factory.mktemp("index") / "index.json"
        save_index(index, path)
        reloaded = load_index(path)
        assert np.array_equal(reloaded._matrix, index._matrix)
        assert reloaded._matrix.dtype == np.float64 and reloaded._matrix.flags.c_contiguous
        assert reloaded.payloads == index.payloads
        assert reloaded.encoder_config == index.encoder_config
        queries = np.random.default_rng(query_seed).normal(size=(3, matrix.shape[1]))
        for query in [*queries, matrix[0]]:
            for k in range(1, len(index) + 1):
                assert top_k(reloaded, query, k) == top_k(index, query, k)

    def test_round_trip_example_index(self, tmp_path):
        kb = small_kb()
        config = EncoderConfig(dimension=64)
        index = build_index(kb, "example", "sentence", config)
        path = tmp_path / "index.json"
        save_index(index, path)
        reloaded = load_index(path)
        assert reloaded.payloads == kb.examples

    def test_matrix_written_beside_the_header(self, tmp_path):
        index = build_index(small_kb(), "triplet", config=EncoderConfig(dimension=16))
        matrix_path = save_index(index, tmp_path / "kb.index.json")
        assert matrix_path == tmp_path / "kb.index.npy"
        # the header names no matrix file: the matrix is always the one beside it
        assert list(json.loads((tmp_path / "kb.index.json").read_text())) == ["version", "kind", "encoder", "payloads"]
        assert np.array_equal(np.load(matrix_path), index._matrix)
        with pytest.raises(ValueError):
            save_index(index, tmp_path / "kb.npy")

    def test_external_provider_index_reloads_without_config(self, tmp_path):
        config = EncoderConfig(provider="external", dimension=4, endpoint="http://embed.invalid/v1", model="m-1")
        payloads = [Triplet(f"s{i}", "r", f"o{i}") for i in range(len(EXACT_ROWS))]
        index = VectorIndex("triplet", payloads, EXACT_ROWS, config)
        path = tmp_path / "index.json"
        save_index(index, path)
        reloaded = load_index(path)
        assert reloaded.encoder_config == config
        assert np.array_equal(reloaded._matrix, index._matrix)

    def test_truncated_file_reports_offset(self, tmp_path):
        kb = small_kb()
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=16))
        path = tmp_path / "index.json"
        save_index(index, path)
        content = path.read_text()
        path.write_text(content[: len(content) // 2])
        with pytest.raises(IndexFormatError) as excinfo:
            load_index(path)
        assert excinfo.value.offset is not None
        assert "offset" in str(excinfo.value)
        assert str(path) in str(excinfo.value)

    def test_invalid_utf8_header_reports_offset(self, tmp_path):
        index = build_index(small_kb(), "triplet", config=EncoderConfig(dimension=16))
        path = tmp_path / "index.json"
        save_index(index, path)
        content = path.read_bytes()
        at = content.index(b"alan bean")
        path.write_bytes(content[:at] + b"\xff" + content[at + 1 :])
        with pytest.raises(IndexFormatError) as excinfo:
            load_index(path)
        assert excinfo.value.offset == at
        assert str(excinfo.value).startswith(f"{path}: not valid UTF-8 at byte {at}")

    def test_version_mismatch_rejected(self, tmp_path):
        kb = small_kb()
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=16))
        path = tmp_path / "index.json"
        save_index(index, path)
        doc = path.read_text().replace('"version":3', '"version":99', 1)
        path.write_text(doc)
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        # the encoder config states the dimension once; a matrix of another
        # width fails the index's shape check
        kb = small_kb()
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=16))
        path = tmp_path / "index.json"
        save_index(index, path)
        doc = path.read_text()
        assert doc.count('"dimension":16') == 1
        path.write_text(doc.replace('"dimension":16', '"dimension":17', 1))
        with pytest.raises(IndexFormatError, match=r"shape \(3, 16\), not \(payloads, dim\) \(3, 17\)") as excinfo:
            load_index(path)
        assert str(path) in str(excinfo.value)

    def test_example_embed_mode_is_recorded(self, tmp_path):
        headers = {}
        for mode in EXAMPLE_EMBED_MODES:
            index = build_index(small_kb(), "example", mode, EncoderConfig(dimension=16))
            path = tmp_path / f"{mode}.index.json"
            save_index(index, path)
            headers[mode] = json.loads(path.read_text())
            assert list(headers[mode]) == ["version", "kind", "example_embed_mode", "encoder", "payloads"]
            assert load_index(path).example_embed_mode == mode
        sentence, with_triplets = (headers[mode] for mode in EXAMPLE_EMBED_MODES)
        assert (sentence["example_embed_mode"], with_triplets["example_embed_mode"]) == EXAMPLE_EMBED_MODES
        assert {**sentence, "example_embed_mode": None} == {**with_triplets, "example_embed_mode": None}

    def test_round_trip_at_kb_scale(self, tmp_path):
        # ~13k nodes, the size of a full-scale benchmark triplet index
        index, rng = random_unit_index(13000, 32, seed=8)
        path = tmp_path / "big.json"
        save_index(index, path)
        reloaded = load_index(path)
        assert len(reloaded) == 13000
        assert np.array_equal(reloaded._matrix, index._matrix)
        for _ in range(5):
            query = rng.normal(size=32)
            query /= np.linalg.norm(query)
            assert top_k(reloaded, query, 10) == top_k(index, query, 10)


class TestSharedSurfaces:
    @pytest.mark.parametrize("kind", ["triplet", "example"])
    def test_reloaded_payloads_share_surface_objects(self, tmp_path, kind):
        kb = small_kb()
        path = tmp_path / "index.json"
        save_index(build_index(kb, kind, config=EncoderConfig(dimension=16)), path)
        reloaded = load_index(path)
        payloads = list(reloaded.payloads)
        triplets = payloads if kind == "triplet" else [t for ex in payloads for t in ex.gold]
        by_value = {}
        for t in list(kb.triplets) + triplets:
            for f in t.as_tuple():
                assert by_value.setdefault(f, f) is f
        assert by_value["alan bean"] is triplets[0].subject


class TestMalformedIndexFile:
    """A broken header or matrix file fails with ``IndexFormatError`` naming
    the header file (and the node, for a broken payload)."""

    def _saved_doc(self, tmp_path, kind):
        kb = small_kb()
        index = build_index(kb, kind, config=EncoderConfig(dimension=16))
        path = tmp_path / "index.json"
        save_index(index, path)
        return path, json.loads(path.read_text())

    def _rejected(self, path, *needles):
        with pytest.raises(IndexFormatError) as excinfo:
            load_index(path)
        for needle in (str(path), *needles):
            assert needle in str(excinfo.value)

    def _assert_rejected(self, path, doc, needle):
        path.write_text(json.dumps(doc))
        self._rejected(path, "node 1", needle)

    @pytest.mark.parametrize("field", ["payload", "vector"])
    def test_node_missing_field(self, tmp_path, field):
        # v2 keeps payloads and vectors apart, so a node missing either one
        # leaves the matrix with a row count that differs from the payloads'
        path, doc = self._saved_doc(tmp_path, "triplet")
        matrix_path = path.with_suffix(".npy")
        if field == "payload":
            del doc["payloads"][1]
            path.write_text(json.dumps(doc))
        else:
            np.save(matrix_path, np.delete(np.load(matrix_path), 1, axis=0))
        self._rejected(path, "shape", str(matrix_path))

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda p, m: p.unlink(), id="missing"),
            pytest.param(lambda p, m: p.write_bytes(p.read_bytes()[:-9]), id="truncated"),
            pytest.param(lambda p, m: p.write_bytes(b""), id="empty"),
            pytest.param(lambda p, m: np.save(p, m.astype(np.float32)), id="float32"),
            pytest.param(lambda p, m: np.save(p, m.astype(">f8")), id="big-endian"),
            pytest.param(lambda p, m: np.save(p, np.vstack([m, m[:1]])), id="extra-row"),
            pytest.param(lambda p, m: np.save(p, m[:, :-1]), id="too-few-columns"),
            pytest.param(lambda p, m: np.save(p, np.hstack([m, m[:, :1]])), id="too-many-columns"),
            pytest.param(lambda p, m: np.save(p, m.ravel()), id="flat"),
            pytest.param(lambda p, m: np.save(p, m.astype(object), allow_pickle=True), id="object"),
            pytest.param(lambda p, m: p.write_bytes(pickle.dumps(m)), id="pickled"),
        ],
    )
    def test_malformed_matrix_file(self, tmp_path, damage):
        path, _ = self._saved_doc(tmp_path, "triplet")
        matrix_path = path.with_suffix(".npy")
        damage(matrix_path, np.load(matrix_path))
        self._rejected(path, "matrix file")

    def test_non_unit_matrix_row_rejected(self, tmp_path):
        path, _ = self._saved_doc(tmp_path, "triplet")
        matrix_path = path.with_suffix(".npy")
        matrix = np.load(matrix_path)
        matrix[1] *= 2.0
        np.save(matrix_path, matrix)
        self._rejected(path, "node 1", "not unit")

    def test_version_1_file_asks_for_a_rebuild(self, tmp_path):
        path = tmp_path / "index.json"
        v1 = {
            "version": 1,
            "dimension": 4,
            "metric": "cosine",
            "kind": "triplet",
            "encoder": "hashed-ngram:dim=4:ngrams=3-5",
            "nodes": [{"id": 0, "payload": ["a", "r", "b"], "vector": [1.0, 0.0, 0.0, 0.0]}],
        }
        path.write_text(json.dumps(v1))
        self._rejected(path, "version 1", "kgte index")

    @pytest.mark.parametrize("field", ["text", "triplets"])
    def test_example_payload_missing_field(self, tmp_path, field):
        path, doc = self._saved_doc(tmp_path, "example")
        del doc["payloads"][1][field]
        self._assert_rejected(path, doc, field)

    def test_example_triplet_not_three_elements(self, tmp_path):
        path, doc = self._saved_doc(tmp_path, "example")
        doc["payloads"][1]["triplets"] = [["a", "r"]]
        self._assert_rejected(path, doc, "3-element")

    @pytest.mark.parametrize(
        "fields,needle",
        [
            pytest.param([1, "r", "b"], "3-element list of strings", id="int-field"),
            pytest.param(["a", None, "b"], "3-element list of strings", id="null-field"),
            pytest.param(["a", " _\t ", "b"], "predicate is empty after normalization", id="blank-field"),
        ],
    )
    def test_bad_triplet_payload_field(self, tmp_path, fields, needle):
        path, doc = self._saved_doc(tmp_path, "triplet")
        doc["payloads"][1] = fields
        self._assert_rejected(path, doc, needle)

    @pytest.mark.parametrize(
        "fields,needle",
        [
            pytest.param([1, "r", "b"], "3-element list of strings", id="int-field"),
            pytest.param(["a", "r", "  "], "object is empty after normalization", id="blank-field"),
        ],
    )
    def test_bad_example_triplet_field(self, tmp_path, fields, needle):
        path, doc = self._saved_doc(tmp_path, "example")
        doc["payloads"][1]["triplets"].append(fields)
        self._assert_rejected(path, doc, needle)

    @pytest.mark.parametrize("text", [5, None, "  "])
    def test_bad_example_text(self, tmp_path, text):
        path, doc = self._saved_doc(tmp_path, "example")
        doc["payloads"][1]["text"] = text
        self._assert_rejected(path, doc, "sentence text is empty" if isinstance(text, str) else "field 'text'")

    @pytest.mark.parametrize(
        "damage,needle",
        [
            pytest.param(lambda doc: [doc], "index document must be a JSON object", id="not-an-object"),
            pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "payloads"}, "not ['encoder', 'kind', 'version']", id="missing-field"),
            pytest.param(lambda doc: {**doc, "dimension": 16}, "not ['dimension', 'encoder', 'kind', 'payloads', 'version']", id="v2-field"),
            pytest.param(lambda doc: {**doc, "encoder": {**doc["encoder"], "provider": "bogus"}}, "invalid encoder config", id="bad-encoder"),
            pytest.param(lambda doc: {**doc, "encoder": {**doc["encoder"], "ngram_range": [3]}}, "ngram_range must be a pair", id="ngram-range-one"),
            pytest.param(lambda doc: {**doc, "encoder": {**doc["encoder"], "ngram_range": [3, 4, 5]}}, "ngram_range must be a pair", id="ngram-range-three"),
            pytest.param(lambda doc: {**doc, "encoder": {**doc["encoder"], "ngram_range": 5}}, "ngram_range must be a pair", id="ngram-range-int"),
            pytest.param(lambda doc: {**doc, "encoder": {**doc["encoder"], "endpoint": "http://e", "model": "m"}}, "takes no endpoint or model", id="hashed-with-endpoint"),
            pytest.param(
                lambda doc: {**doc, "encoder": {**doc["encoder"], "provider": "external", "endpoint": "http://e", "model": "m", "ngram_range": [2, 2]}},
                "has no n-grams",
                id="external-with-ngram-range",
            ),
            pytest.param(
                lambda doc: {**doc, "encoder": {**doc["encoder"], "provider": "external", "endpoint": 5, "model": True}},
                "endpoint must be a non-empty string, got 5",
                id="external-endpoint-not-a-string",
            ),
            pytest.param(
                lambda doc: {**doc, "encoder": {**doc["encoder"], "provider": "external", "endpoint": "http://e", "model": True}},
                "model must be a non-empty string, got True",
                id="external-model-not-a-string",
            ),
            pytest.param(lambda doc: {**doc, "kind": "entity"}, "unknown index kind 'entity'", id="unknown-kind"),
            pytest.param(lambda doc: {**doc, "payloads": {"0": ["a", "r", "b"]}}, "payloads are not a list", id="payloads-not-a-list"),
        ],
    )
    def test_malformed_header(self, tmp_path, damage, needle):
        path, doc = self._saved_doc(tmp_path, "triplet")
        path.write_text(json.dumps(damage(doc)))
        self._rejected(path, needle)

    @pytest.mark.parametrize(
        "kind,damage,needle",
        [
            pytest.param(
                "example",
                lambda doc: {k: v for k, v in doc.items() if k != "example_embed_mode"},
                "an index of kind 'example' has the header fields ['encoder', 'example_embed_mode', 'kind', 'payloads', 'version']",
                id="example-without-mode",
            ),
            pytest.param(
                "triplet",
                lambda doc: {**doc, "example_embed_mode": "sentence"},
                "not ['encoder', 'example_embed_mode', 'kind', 'payloads', 'version']",
                id="triplet-with-mode",
            ),
            pytest.param("example", lambda doc: {**doc, "example_embed_mode": "triplets"}, "unknown example embed mode 'triplets'", id="unknown-mode"),
            pytest.param("example", lambda doc: {**doc, "example_embed_mode": ["sentence"]}, "unknown example embed mode ['sentence']", id="mode-not-a-string"),
        ],
    )
    def test_example_embed_mode_field(self, tmp_path, kind, damage, needle):
        path, doc = self._saved_doc(tmp_path, kind)
        path.write_text(json.dumps(damage(doc)))
        self._rejected(path, needle)

    def test_version_2_file_asks_for_a_rebuild(self, tmp_path):
        # the v2 layout: dimension and metric beside the encoder, and the matrix file's name
        path, doc = self._saved_doc(tmp_path, "triplet")
        v2 = {"version": 2, "dimension": 16, "metric": "cosine", "kind": "triplet", "encoder": doc["encoder"], "matrix": "index.npy", "payloads": doc["payloads"]}
        path.write_text(json.dumps(v2, separators=(",", ":")))
        self._rejected(path, "unsupported index format version 2; rebuild it with `kgte index`")

    def test_node_not_an_object(self, tmp_path):
        path, doc = self._saved_doc(tmp_path, "example")
        doc["payloads"][1] = [1, 2]
        self._assert_rejected(path, doc, "not an object")


class TestMatrixFileName:
    """The matrix is always the file beside the header with its stem; a
    header cannot name another."""

    @pytest.mark.parametrize("where", ["absolute", "../x.npy", "sub/x.npy"])
    def test_matrix_elsewhere_rejected_though_the_file_exists(self, tmp_path, where):
        path = tmp_path / "kb" / "index.json"
        path.parent.mkdir()
        save_index(build_index(small_kb(), "triplet", config=EncoderConfig(dimension=16)), path)
        elsewhere = (tmp_path / "elsewhere.npy") if where == "absolute" else (path.parent / where)
        elsewhere.parent.mkdir(parents=True, exist_ok=True)
        elsewhere.write_bytes(path.with_suffix(".npy").read_bytes())
        doc = json.loads(path.read_text())
        doc["matrix"] = str(elsewhere) if where == "absolute" else where
        path.write_text(json.dumps(doc))
        with pytest.raises(IndexFormatError) as excinfo:
            load_index(path)
        assert str(path) in str(excinfo.value)
        assert "not ['encoder', 'kind', 'matrix', 'payloads', 'version']" in str(excinfo.value)

    def test_a_renamed_pair_loads_from_its_own_stem(self, tmp_path):
        index = build_index(small_kb(), "triplet", config=EncoderConfig(dimension=16))
        save_index(index, tmp_path / "a.index.json")
        for suffix in (".json", ".npy"):
            (tmp_path / f"b.index{suffix}").write_bytes((tmp_path / f"a.index{suffix}").read_bytes())
        (tmp_path / "a.index.npy").unlink()
        reloaded = load_index(tmp_path / "b.index.json")
        assert np.array_equal(reloaded._matrix, index._matrix)
        with pytest.raises(IndexFormatError, match="cannot read matrix file"):
            load_index(tmp_path / "a.index.json")

    @pytest.mark.parametrize("name", ["triplet", "example", "example-sentence+triplets"])
    def test_golden_headers_load(self, name):
        header = Path(__file__).parent / "data" / "golden" / "external" / f"{name}.index.json"
        assert len(load_index(header)) == len(json.loads(header.read_text())["payloads"])

