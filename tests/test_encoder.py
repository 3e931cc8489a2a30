from __future__ import annotations

import json
import random
import string
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgte._transport
import kgte.encoder
from kgte import (
    APIError,
    EncodeError,
    EncoderConfig,
    TransportError,
    Triplet,
    build_index,
    build_kb,
    encode,
    encode_texts,
    load_dataset,
    load_index,
    parse_triplets,
    retrieve_triplets,
    triplet_to_string,
)
from kgte.encoder import _encoded_rows, _ngram_slot
from conftest import DATA_DIR, FAKE_EMBED_DIM, fake_embedding


def _random_text(rng, min_len=4, max_len=40):
    alphabet = string.ascii_lowercase + " "
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len))).strip() or "word"


class TestTripletToString:
    def test_format(self):
        t = Triplet("alan bean", "nationality", "united states")
        assert triplet_to_string(t) == "(alan bean, nationality, united states)"
        assert triplet_to_string(Triplet("a", "r", "b")) == "(a, r, b)"

    def test_round_trip_through_parser(self):
        rng = random.Random(4)
        for _ in range(200):
            fields = []
            while len(fields) < 3:
                candidate = _random_text(rng, 1, 12)
                if candidate and "  " not in candidate:
                    fields.append(candidate)
            t = Triplet(*fields)
            outcome = parse_triplets(triplet_to_string(t), max_triplets=5)
            assert outcome.triplets == (t,)
            assert outcome.malformed_lines == 0


class TestHashedNgramEncoder:
    def test_deterministic(self):
        config = EncoderConfig()
        a = encode("The Colosseum is located in Rome.", config)
        b = encode("The Colosseum is located in Rome.", config)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        config = EncoderConfig()
        rng = random.Random(7)
        for _ in range(50):
            v = encode(_random_text(rng), config)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-6
            assert v.shape == (config.dimension,)

    def test_self_cosine_is_one(self):
        config = EncoderConfig()
        v = encode("a sentence to embed", config)
        assert float(v @ v) == pytest.approx(1.0, abs=1e-6)

    def test_repeated_char_text_hits_single_slot(self):
        # every 3-gram of "aaaa" is "aaa", so exactly one coordinate is set
        config = EncoderConfig(dimension=64, ngram_range=(3, 3))
        v = encode("aaaa", config)
        assert int(np.count_nonzero(v)) == 1
        assert v.max() == pytest.approx(1.0)

    def test_case_insensitive(self):
        config = EncoderConfig()
        assert np.array_equal(encode("Rome Italy", config), encode("rome italy", config))

    def test_empty_text_rejected(self):
        with pytest.raises(EncodeError):
            encode("   ", EncoderConfig())
        with pytest.raises(EncodeError):
            encode("__", EncoderConfig())

    def test_text_shorter_than_ngram_rejected(self):
        with pytest.raises(EncodeError):
            encode("ab", EncoderConfig(ngram_range=(3, 5)))

    def test_word_permutation_affects_only_boundary_ngrams(self):
        # raw n-gram counts for "w1 w2" and "w2 w1" agree once n-grams
        # containing the word boundary (a space) are removed
        config = EncoderConfig(dimension=256, ngram_range=(3, 4))

        def boundary_free_counts(text):
            counts = np.zeros(config.dimension)
            for n in range(3, 5):
                for i in range(len(text) - n + 1):
                    gram = text[i : i + n]
                    if " " not in gram:
                        counts[_ngram_slot(gram, config.dimension)] += 1
            return counts

        assert np.array_equal(
            boundary_free_counts("alpha beta"), boundary_free_counts("beta alpha")
        )
        # while the full encodings differ through the boundary-crossing n-grams
        assert not np.array_equal(
            encode("alpha beta", config), encode("beta alpha", config)
        )

    def test_single_word_permutation_atomic(self):
        config = EncoderConfig()
        assert np.array_equal(encode("hello", config), encode("hello", config))


class TestEncoderConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(dimension=0)
        with pytest.raises(ValueError):
            EncoderConfig(ngram_range=(5, 3))
        with pytest.raises(ValueError):
            EncoderConfig(provider="external")  # needs endpoint and model
        with pytest.raises(ValueError):
            EncoderConfig(provider="magic")

    @pytest.mark.parametrize(
        "fields,needle",
        [
            pytest.param({"endpoint": "http://host/v1/embeddings", "model": "m"}, "hashed-ngram provider takes no endpoint or model", id="hashed-endpoint-model"),
            pytest.param({"endpoint": "http://host/v1/embeddings"}, "hashed-ngram provider takes no endpoint or model", id="hashed-endpoint"),
            pytest.param({"model": "m"}, "hashed-ngram provider takes no endpoint or model", id="hashed-model"),
            pytest.param(
                {"provider": "external", "endpoint": "http://host/v1/embeddings", "model": "m", "ngram_range": (2, 2)},
                r"external provider has no n-grams: ngram_range must be the default \(3, 5\), got \(2, 2\)",
                id="external-ngram-range",
            ),
        ],
    )
    def test_field_the_provider_ignores_rejected(self, fields, needle):
        with pytest.raises(ValueError, match=needle):
            EncoderConfig(**fields)

    @pytest.mark.parametrize(
        "endpoint,model,field,value",
        [
            (5, "m", "endpoint", "5"),
            ("", "m", "endpoint", "''"),
            (None, "m", "endpoint", "None"),
            ("http://host/v1/embeddings", True, "model", "True"),
            ("http://host/v1/embeddings", "", "model", "''"),
        ],
    )
    def test_external_endpoint_and_model_must_be_non_empty_strings(self, endpoint, model, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a non-empty string, got {value}$"):
            EncoderConfig(provider="external", endpoint=endpoint, model=model)


@pytest.mark.parametrize("ngram_range", [[3], [3, 4, 5], 5], ids=["one", "three", "int"])
def test_ngram_range_not_a_pair_is_named(ngram_range):
    with pytest.raises(ValueError, match="ngram_range must be a pair of ints"):
        EncoderConfig(ngram_range=ngram_range)


def _external_config():
    return EncoderConfig(
        provider="external", dimension=4, endpoint="http://host/v1/embeddings", model="m"
    )


def _answer(monkeypatch, transport):
    """Send every POST of the external provider to ``transport``."""
    monkeypatch.setattr(kgte._transport, "_requests_transport", transport)


def _sleeps(monkeypatch) -> list[float]:
    """The backoff delays the external provider waits, in order, none slept."""
    delays = []
    monkeypatch.setattr(time, "sleep", delays.append)
    return delays


class TestExternalProvider:
    """``encode_texts`` with an external config, against an in-process endpoint."""

    def test_success_returns_normalized_rows(self, monkeypatch):
        monkeypatch.setenv("KGTE_API_KEY", "sekrit")

        def transport(url, payload, headers, timeout):
            assert url == "http://host/v1/embeddings"
            assert payload == {"model": "m", "input": ["hello", "world"]}
            assert headers["Authorization"] == "Bearer sekrit"
            assert timeout == 30.0
            return 200, '{"data": [{"embedding": [2, 0, 0, 0]}, {"embedding": [0, 3, 0, 0]}]}'

        _answer(monkeypatch, transport)
        assert encode_texts(["hello", "world"], _external_config()).tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]

    @pytest.mark.parametrize("key", [None, ""], ids=["unset", "empty"])
    def test_no_credential_sends_no_authorization_header(self, monkeypatch, key):
        if key is None:
            monkeypatch.delenv("KGTE_API_KEY", raising=False)
        else:
            monkeypatch.setenv("KGTE_API_KEY", key)
        seen = []

        def transport(url, payload, headers, timeout):
            seen.append(dict(headers))
            return 200, '{"data": [{"embedding": [1, 0, 0, 0]}]}'

        _answer(monkeypatch, transport)
        encode_texts(["hello"], _external_config())
        assert seen == [{"Content-Type": "application/json"}]

    def test_transient_failure_then_success(self, monkeypatch):
        sleeps = _sleeps(monkeypatch)
        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(1)
            if len(calls) == 1:
                raise ConnectionError("boom")
            return 200, '{"data": [{"embedding": [1, 0, 0, 0]}]}'

        _answer(monkeypatch, transport)
        assert encode_texts(["hello"], _external_config()).tolist() == [[1, 0, 0, 0]]
        assert len(calls) == 2
        assert sleeps == [0.25]

    def test_exhausted_retries_raise_transport_error(self, monkeypatch):
        sleeps = _sleeps(monkeypatch)

        def transport(url, payload, headers, timeout):
            raise ConnectionError("down")

        _answer(monkeypatch, transport)
        with pytest.raises(TransportError, match=r"^request to http://host/v1/embeddings failed after 3 attempts \(transport failure: down\)$"):
            encode_texts(["hello"], _external_config())
        assert sleeps == [0.25, 0.5]

    def test_non_object_body_is_api_error(self, monkeypatch):
        _answer(monkeypatch, lambda *a: (200, "[]"))
        with pytest.raises(APIError, match=r"^endpoint returned a JSON list, not an object$"):
            encode_texts(["hello"], _external_config())

    @pytest.mark.parametrize(
        "body,message",
        [
            ('{"data": [5]}', "text 0: embeddings body field 'data[0].embedding' is not a list: 5"),
            ('{"data": [{}]}', "text 0: embeddings body field 'data[0].embedding' is not a list: {}"),
            ('{"data": [{"embedding": 7}]}', "text 0: embeddings body field 'data[0].embedding' is not a list: {'embedding': 7}"),
            ('{"vectors": []}', "embeddings body field 'data' is not a list: None"),
            ('{"data": [{"embedding": [null, 1, 0, 0]}]}', "text 0: embeddings body field 'data[0].embedding' holds a non-number: None"),
            ('{"data": [{"embedding": ["1", 0, 0, 0]}]}', "text 0: embeddings body field 'data[0].embedding' holds a non-number: '1'"),
            ('{"data": [{"embedding": [true, 0, 0, 0]}]}', "text 0: embeddings body field 'data[0].embedding' holds a non-number: True"),
            ('{"data": [{"embedding": [NaN, 1, 0, 0]}]}', "text 0: embeddings body field 'data[0].embedding' holds a non-finite coordinate"),
            ('{"data": [{"embedding": [1e400, 1, 0, 0]}]}', "text 0: embeddings body field 'data[0].embedding' holds a non-finite coordinate"),
            pytest.param(
                '{"data": [{"embedding": [1%s, 1, 0, 0]}]}' % ("0" * 400),
                "text 0: embeddings body field 'data[0].embedding' holds a coordinate out of range",
                id="int-beyond-float",
            ),
            ('{"data": [{"embedding": [1, 0]}]}', "text 0: embeddings body field 'data[0].embedding' has dimension (2,), not the configured 4"),
            ('{"data": [{"embedding": [0, 0, 0, 0]}]}', "text 0: embeddings body field 'data[0].embedding' has norm zero and cannot be normalized"),
            pytest.param(
                '{"data": [{"embedding": [1e308, 1e308, 0, 0]}]}',
                "text 0: embeddings body field 'data[0].embedding' has a norm beyond float range and cannot be normalized",
                id="norm-overflows",
            ),
            ('{"data": [{"embedding": [1, 0, 0, 0]}, {"embedding": [0, 1, 0, 0]}]}', "embeddings endpoint returned 2 items for 1 inputs"),
        ],
    )
    def test_malformed_body_is_api_error_naming_the_field(self, monkeypatch, body, message):
        _answer(monkeypatch, lambda *a: (200, body))
        with pytest.raises(APIError) as excinfo:
            encode_texts(["hello"], _external_config())
        assert str(excinfo.value) == message

    def test_an_overflowing_norm_fails_the_index_build_naming_its_text(self, monkeypatch, mini_manifest):
        # coordinates that pass every body check, but whose norm is inf:
        # normalizing would store an all-zero row
        dataset = load_dataset(mini_manifest)
        kb = build_kb(dataset.train, dataset.validation)
        texts = [triplet_to_string(t) for t in kb.triplets]

        def transport(url, payload, headers, timeout):
            data = [{"embedding": _OVERFLOWING if text == texts[5] else fake_embedding(text)} for text in payload["input"]]
            return 200, json.dumps({"data": data})

        _answer(monkeypatch, transport)
        config = EncoderConfig(provider="external", dimension=FAKE_EMBED_DIM, endpoint="http://embed.test/v1/embeddings", model="overflow")
        with pytest.raises(APIError, match=r"^text 5: embeddings body field 'data\[5\]\.embedding' has a norm beyond float range"):
            build_index(kb, "triplet", config=config)

    def test_an_overflowing_norm_fails_a_query_on_an_external_index(self, monkeypatch):
        index = load_index(DATA_DIR / "golden" / "external" / "triplet.index.json")
        _answer(monkeypatch, lambda *a: (200, json.dumps({"data": [{"embedding": _OVERFLOWING}]})))
        with pytest.raises(APIError, match=r"^text 0: embeddings body field 'data\[0\]\.embedding' has a norm beyond float range"):
            retrieve_triplets("alan bean was born in wheeler texas", index, n_kb=3)


_OVERFLOWING = [1e308, 1e308] + [0] * (FAKE_EMBED_DIM - 2)


def _fake_config(dimension=FAKE_EMBED_DIM):
    return EncoderConfig(provider="external", dimension=dimension, endpoint="http://embed.test/v1/embeddings", model="fake")


class TestEncodeTexts:
    @settings(max_examples=80, deadline=None, database=None)
    @given(
        # non-ASCII, "İ" (whose lower() is two code points) and texts shorter
        # than the minimum n-gram size, or blank, among the encodable ones, in
        # lists that can pass a block of 32
        texts=st.lists(st.text(st.sampled_from("ab zİé.ß_"), max_size=12), max_size=40),
        dimension=st.integers(1, 64),
        ngram_min=st.integers(1, 4),
        ngram_extra=st.integers(0, 2),
    )
    def test_hashed_rows_equal_encode_bit_for_bit(self, texts, dimension, ngram_min, ngram_extra):
        # the rows ``_encoded_rows`` streams, those of ``encode_texts`` and
        # ``encode`` of each text agree, and so does the first error, which
        # may come before the rows of the texts ahead of it in its block
        config = EncoderConfig(dimension=dimension, ngram_range=(ngram_min, ngram_min + ngram_extra))
        expected, failure = [], None
        for position, text in enumerate(texts):
            try:
                expected.append(encode(text, config).tobytes())
            except EncodeError as exc:
                failure = f"text {position}: {exc}"
                break
        streamed = []
        try:
            for row in _encoded_rows(texts, config):
                assert row.shape == (dimension,) and row.dtype == np.float64
                streamed.append(row.tobytes())
        except EncodeError as exc:
            assert str(exc) == failure
            assert streamed == expected[: len(streamed)]
        else:
            assert failure is None
            assert streamed == expected
            matrix = encode_texts(texts, config)
            assert matrix.shape == (len(texts), dimension) and matrix.dtype == np.float64
            assert [row.tobytes() for row in matrix] == expected
        if failure is not None:
            with pytest.raises(EncodeError) as excinfo:
                encode_texts(texts, config)
            assert str(excinfo.value) == failure

    @pytest.mark.parametrize("bad,needle", [("ab", "shorter than the minimum n-gram size 3"), ("__", "empty")])
    def test_hashed_error_names_the_position(self, bad, needle):
        with pytest.raises(EncodeError, match=f"text 2: .*{needle}"):
            encode_texts(["hello world", "rome italy", bad], EncoderConfig())

    def test_external_texts_go_in_blocks_of_one_post(self, embed_posts, monkeypatch):
        monkeypatch.setattr(kgte.encoder, "EXTERNAL_BLOCK", 4)
        texts = [f"text number {i}" for i in range(10)]
        matrix = encode_texts(texts, _fake_config())
        assert embed_posts == [texts[0:4], texts[4:8], texts[8:10]]
        for row, text in zip(matrix, texts):
            assert row.tolist() == [x / 5 for x in fake_embedding(text)]

    def test_one_post_below_the_block_size(self, embed_posts):
        encode_texts([f"text number {i}" for i in range(kgte.encoder.EXTERNAL_BLOCK)], _fake_config())
        assert len(embed_posts) == 1

    def test_external_blank_text_fails_before_any_post_naming_its_position(self, embed_posts, monkeypatch):
        monkeypatch.setattr(kgte.encoder, "EXTERNAL_BLOCK", 2)
        with pytest.raises(EncodeError, match="text 3: cannot encode text that is empty"):
            encode_texts(["one", "two", "three", "  "], _fake_config())
        assert embed_posts == []

    def test_empty_list_is_an_empty_matrix(self, embed_posts):
        assert encode_texts([], _fake_config()).shape == (0, FAKE_EMBED_DIM)
        assert encode_texts([], EncoderConfig()).shape == (0, 384)
        assert embed_posts == []

    def test_external_dimension_mismatch_rejected(self, embed_posts):
        with pytest.raises(APIError, match="not the configured 4"):
            encode_texts(["hello"], _fake_config(dimension=4))

    @pytest.mark.parametrize(
        "embedding,error,needle",
        [
            ([0] * FAKE_EMBED_DIM, APIError, "has norm zero"),
            ([1, 0], APIError, r"has dimension \(2,\), not the configured 8"),
            (7, APIError, "is not a list"),
        ],
        ids=["zero", "wrong-dimension", "not-a-list"],
    )
    def test_bad_embedding_in_a_later_block_names_its_position(self, monkeypatch, embedding, error, needle):
        monkeypatch.setattr(kgte.encoder, "EXTERNAL_BLOCK", 4)
        texts = [f"text number {i}" for i in range(10)]

        def transport(url, payload, headers, timeout):
            data = [{"embedding": embedding if text == texts[6] else fake_embedding(text)} for text in payload["input"]]
            return 200, json.dumps({"data": data})

        monkeypatch.setattr(kgte._transport, "_requests_transport", transport)
        with pytest.raises(error, match=rf"^text 6: embeddings body field 'data\[2\]\.embedding' {needle}"):
            encode_texts(texts, _fake_config())

    def test_encode_rejects_an_external_config(self, embed_posts):
        with pytest.raises(ValueError, match="encode_texts"):
            encode("hello", _fake_config())
        assert embed_posts == []

    def test_external_rows_arrive_a_block_at_a_time(self, embed_posts, monkeypatch):
        monkeypatch.setattr(kgte.encoder, "EXTERNAL_BLOCK", 4)
        texts = [f"text number {i}" for i in range(10)]
        rows = _encoded_rows(texts, _fake_config())
        assert embed_posts == []
        for position, row in enumerate(rows):
            # the block holding this row is the last one posted
            assert len(embed_posts) == position // 4 + 1
            assert row.tolist() == [x / 5 for x in fake_embedding(texts[position])]
        assert embed_posts == [texts[0:4], texts[4:8], texts[8:10]]
