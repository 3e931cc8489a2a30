from __future__ import annotations

import random
import string

import numpy as np
import pytest

from kgte import (
    APIError,
    EncodeError,
    EncoderConfig,
    ExternalEncoderClient,
    TransportError,
    Triplet,
    cosine,
    encode,
    parse_triplets,
    triplet_to_string,
)
from kgte.encoder import _ngram_slot


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
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-6)

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


class TestCosine:
    def test_orthogonal_and_antipodal(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert cosine(e1, e2) == 0.0
        assert cosine(e1, -e1) == -1.0
        assert cosine(e1, e1) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.normal(size=64)
            b = rng.normal(size=64)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert cosine(a, b) == cosine(b, a)

    def test_bounded_for_unit_vectors(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = rng.normal(size=32)
            b = rng.normal(size=32)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert abs(cosine(a, b)) <= 1.0 + 1e-9


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

    def test_fingerprints(self):
        assert EncoderConfig().fingerprint == "hashed-ngram:dim=384:ngrams=3-5"
        external = EncoderConfig(
            provider="external", dimension=128, endpoint="http://e/v1/embeddings", model="mini"
        )
        assert external.fingerprint == "external:model=mini:dim=128"


def _external_config():
    return EncoderConfig(
        provider="external", dimension=4, endpoint="http://host/v1/embeddings", model="m"
    )


class TestExternalEncoderClient:
    def test_success_returns_normalized_vectors(self):
        def transport(url, payload, headers, timeout):
            assert url == "http://host/v1/embeddings"
            assert payload == {"model": "m", "input": ["hello", "world"]}
            assert headers["Authorization"] == "Bearer sekrit"
            return 200, '{"data": [{"embedding": [2, 0, 0, 0]}, {"embedding": [0, 3, 0, 0]}]}'

        client = ExternalEncoderClient(_external_config(), api_key="sekrit", transport=transport)
        vectors = client.encode_batch(["hello", "world"])
        assert np.allclose(vectors[0], [1, 0, 0, 0])
        assert np.allclose(vectors[1], [0, 1, 0, 0])

    def test_encode_dispatches_to_client(self):
        def transport(url, payload, headers, timeout):
            return 200, '{"data": [{"embedding": [0, 0, 0, 5]}]}'

        client = ExternalEncoderClient(_external_config(), api_key="k", transport=transport)
        v = encode("hello", _external_config(), client=client)
        assert np.allclose(v, [0, 0, 0, 1])

    def test_transient_failure_then_success(self):
        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(1)
            if len(calls) == 1:
                raise ConnectionError("boom")
            return 200, '{"data": [{"embedding": [1, 0, 0, 0]}]}'

        client = ExternalEncoderClient(
            _external_config(), api_key="k", transport=transport, sleeper=lambda _: None
        )
        assert len(client.encode_batch(["hello"])) == 1
        assert len(calls) == 2

    def test_exhausted_retries_raise_transport_error(self):
        def transport(url, payload, headers, timeout):
            raise ConnectionError("down")

        client = ExternalEncoderClient(
            _external_config(), api_key="k", transport=transport, sleeper=lambda _: None
        )
        with pytest.raises(TransportError):
            client.encode_batch(["hello"])

    def test_non_object_body_is_api_error(self):
        client = ExternalEncoderClient(_external_config(), api_key="k", transport=lambda *a: (200, "[]"))
        with pytest.raises(APIError):
            client.encode_batch(["hello"])

    def test_dimension_mismatch_rejected(self):
        def transport(url, payload, headers, timeout):
            return 200, '{"data": [{"embedding": [1, 0]}]}'

        client = ExternalEncoderClient(_external_config(), api_key="k", transport=transport)
        with pytest.raises(ValueError):
            client.encode_batch(["hello"])
