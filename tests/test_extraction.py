from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest
import requests

import kgte._transport
from kgte import (
    APIError,
    CONTEXT_WINDOWS,
    AnnotatedSentence,
    GenerationConfig,
    RemoteLLMClient,
    RetrievedContext,
    TransportError,
    Triplet,
    char_budget_for,
    exhaustive_random_f1,
    pure_extract,
    random_extract,
    random_f1_closed_form,
    sentence_f1,
    sentence_rng,
)
from kgte._transport import HTTPClient
from kgte.extraction import EXTRACTORS
from conftest import planted_single_records


def triplet_context(triplets, n_kb=None):
    items = tuple((t, 1.0 - i * 0.01) for i, t in enumerate(triplets))
    return RetrievedContext(mode="triplets", items=items, n_kb_requested=n_kb or max(len(items), 1))


def make_triplets(n, predicate="r"):
    return [Triplet(f"s{i}", f"{predicate}{i}", f"o{i}") for i in range(n)]


class TestModelCatalog:
    def test_context_windows(self):
        assert CONTEXT_WINDOWS == {
            "gpt2-base": 1024,
            "gpt2-xl": 1024,
            "falcon-7b": 2048,
            "falcon-40b": 2048,
            "llama-13b": 2048,
            "llama-65b": 2048,
            "gpt-3.5": 4096,
            "gpt-4": 8192,
        }

    def test_char_budget(self):
        # the window less the default 512 output tokens, at 4 chars per token
        assert char_budget_for(GenerationConfig(model="llama-65b")) == (2048 - 512) * 4
        assert char_budget_for(GenerationConfig(model="gpt-4")) == (8192 - 512) * 4
        assert char_budget_for(GenerationConfig(model="unknown-model")) == (4096 - 512) * 4

    def test_char_budget_leaves_room_for_the_answer(self):
        assert char_budget_for(GenerationConfig(model="gpt2-base", max_output_tokens=512)) == 2048
        assert char_budget_for(GenerationConfig(model="gpt2-base", max_output_tokens=1023)) == 4

    @pytest.mark.parametrize("model,tokens", [("gpt2-base", 1024), ("gpt2-base", 5000), ("unknown-model", 4096)])
    def test_output_tokens_filling_the_window_rejected(self, model, tokens):
        with pytest.raises(ValueError, match=rf"max_output_tokens {tokens} .*context window of model '{model}'"):
            GenerationConfig(model=model, max_output_tokens=tokens)

    def test_default_temperature(self):
        assert GenerationConfig().temperature == 0.1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("temperature", float("nan")),
            ("temperature", float("inf")),
            ("temperature", -0.5),
            ("timeout", float("nan")),
            ("timeout", float("inf")),
            ("timeout", 0.0),
            ("timeout", -1.0),
            ("max_output_tokens", 0),
            ("max_output_tokens", -3),
            ("temperature", True),
            ("temperature", "0.5"),
            ("timeout", True),
            ("timeout", None),
            ("model", 3),
            ("model", ""),
        ],
    )
    def test_out_of_range_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GenerationConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("max_output_tokens", 64.0), ("max_output_tokens", True), ("max_retries", 1.5), ("in_flight", "4"), ("in_flight", True)],
    )
    def test_non_int_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            GenerationConfig(**{field: value})


def http_client(**settings) -> HTTPClient:
    return HTTPClient({}, transport=None, sleeper=lambda _: None, **settings)


class TestHTTPClient:
    @pytest.mark.parametrize("value", [1.5, True, "2"])
    def test_non_int_max_retries_rejected(self, value):
        with pytest.raises(ValueError, match="max_retries must be an int"):
            http_client(max_retries=value)

    @pytest.mark.parametrize("field", ["backoff_base"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_backoff_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number >= 0"):
            http_client(**{field: value})

    @pytest.mark.parametrize("value", [True, "0.25", None])
    def test_non_real_backoff_rejected(self, value):
        with pytest.raises(ValueError, match="backoff_base must be a real number"):
            http_client(backoff_base=value)

    @pytest.mark.parametrize("field", ["headers", "transport", "sleeper", "timeout", "max_retries", "backoff_base"])
    def test_fields_cannot_be_reassigned(self, field):
        # the run's pool shares one client across its threads
        client = http_client()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(client, field, getattr(client, field))

    def test_client_with_negative_backoff_fails_when_built(self):
        with pytest.raises(ValueError, match="backoff_base"):
            RemoteLLMClient("http://llm.local", GenerationConfig(), api_key="k", backoff_base=-1.0)

    def test_client_defaults_are_the_http_client_defaults(self):
        client = RemoteLLMClient("http://llm.local", GenerationConfig(), api_key="k")
        assert (client._http.max_retries, client._http.backoff_base) == (HTTPClient.max_retries, HTTPClient.backoff_base)


class TestRemoteLLMClient:
    def test_mock_transport_returns_content_verbatim(self, llm_requests):
        completion = "(a, r, b)\n(c, r2, d)"

        def transport(url, payload, headers, timeout):
            assert url == "http://llm.local/v1/chat/completions"
            assert payload["model"] == "llama-65b"
            assert payload["temperature"] == 0.1
            assert payload["messages"] == [{"role": "user", "content": "PROMPT"}]
            return 200, json.dumps({"choices": [{"message": {"content": completion}}]})

        client = RemoteLLMClient(
            "http://llm.local/v1/", GenerationConfig(), api_key="k", transport=transport
        )
        assert client.generate("PROMPT") == completion
        assert [entry["outcome"] for entry in llm_requests()] == ["ok"]

    def test_timeout_retried_per_policy_then_error(self, llm_requests):
        calls = []
        sleeps = []

        def transport(url, payload, headers, timeout):
            calls.append(1)
            raise TimeoutError("too slow")

        config = GenerationConfig(max_retries=1)
        client = RemoteLLMClient(
            "http://llm.local", config, api_key="k", transport=transport, sleeper=sleeps.append
        )
        with pytest.raises(TransportError):
            client.generate("PROMPT")
        assert len(calls) == 2  # one retry per policy
        assert sleeps == [0.25]
        assert [entry["outcome"] for entry in llm_requests()] == ["error"]

    def test_backoff_is_exponential(self):
        sleeps = []

        def transport(url, payload, headers, timeout):
            raise ConnectionError("down")

        client = RemoteLLMClient(
            "http://llm.local",
            GenerationConfig(max_retries=3),
            api_key="k",
            transport=transport,
            sleeper=sleeps.append,
        )
        with pytest.raises(TransportError):
            client.generate("PROMPT")
        assert sleeps == [0.25, 0.5, 1.0]

    def test_client_error_status_not_retried(self):
        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(1)
            return 400, '{"error": "bad request"}'

        client = RemoteLLMClient("http://llm.local", GenerationConfig(), api_key="k", transport=transport)
        with pytest.raises(APIError) as excinfo:
            client.generate("PROMPT")
        assert excinfo.value.status == 400
        assert "bad request" in excinfo.value.body_excerpt
        assert len(calls) == 1

    def test_programming_error_in_transport_not_retried(self, llm_requests):
        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(1)
            raise TypeError("bad call")

        client = RemoteLLMClient(
            "http://llm.local", GenerationConfig(), api_key="k", transport=transport,
            sleeper=lambda _: None,
        )
        with pytest.raises(TypeError):
            client.generate("PROMPT")
        assert len(calls) == 1
        assert [entry["outcome"] for entry in llm_requests()] == ["error"]

    def test_non_object_body_is_api_error(self):
        client = RemoteLLMClient(
            "http://llm.local", GenerationConfig(), api_key="k", transport=lambda *a: (200, "[]")
        )
        with pytest.raises(APIError):
            client.generate("PROMPT")

    @pytest.mark.parametrize(
        "body,field",
        [
            ({"choices": []}, "'choices'"),
            ({"choices": [{}]}, "'choices[0].message'"),
            ({"choices": ["text"]}, "'choices[0].message'"),
            ({"choices": [{"message": {"content": 5}}]}, "'choices[0].message.content'"),
        ],
    )
    def test_wrong_shaped_body_is_api_error_naming_the_field(self, body, field, llm_requests):
        client = RemoteLLMClient(
            "http://llm.local", GenerationConfig(), api_key="k", transport=lambda *a: (200, json.dumps(body))
        )
        with pytest.raises(APIError) as excinfo:
            client.generate("PROMPT")
        assert field in str(excinfo.value)
        assert [entry["outcome"] for entry in llm_requests()] == ["error"]

    @pytest.mark.parametrize(
        "api_key,env,want",
        [(None, "envkey", "Bearer envkey"), ("", "envkey", None), ("k", None, "Bearer k")],
    )
    def test_credential_from_argument_or_environment(self, monkeypatch, api_key, env, want):
        if env is None:
            monkeypatch.delenv("KGTE_API_KEY", raising=False)
        else:
            monkeypatch.setenv("KGTE_API_KEY", env)
        seen = []

        def transport(url, payload, headers, timeout):
            seen.append(headers.get("Authorization"))
            return 200, json.dumps({"choices": [{"message": {"content": "x"}}]})

        RemoteLLMClient("http://llm.local", GenerationConfig(), api_key=api_key, transport=transport).generate("P")
        assert seen == [want]

    def test_rate_limit_status_retried(self):
        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(1)
            if len(calls) < 3:
                return 429, "slow down"
            return 200, json.dumps({"choices": [{"message": {"content": "ok"}}]})

        client = RemoteLLMClient(
            "http://llm.local", GenerationConfig(), api_key="k", transport=transport,
            sleeper=lambda _: None,
        )
        assert client.generate("PROMPT") == "ok"
        assert len(calls) == 3

    @pytest.mark.parametrize("base_url", ["localhost:8000/v1", "llm.local/v1", "http://"])
    def test_malformed_url_fails_at_once(self, monkeypatch, base_url):
        # requests rejects the URL before it opens any connection
        attempts, sleeps = [], []
        real = kgte._transport._requests_transport
        monkeypatch.setattr(kgte._transport, "_requests_transport", lambda *a: attempts.append(1) or real(*a))
        client = RemoteLLMClient(base_url, GenerationConfig(), api_key="k", sleeper=sleeps.append)
        with pytest.raises(requests.RequestException) as excinfo:
            client.generate("PROMPT")
        assert isinstance(excinfo.value, ValueError)
        assert (len(attempts), sleeps) == (1, [])

    def test_requests_connection_error_is_retried(self):
        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(1)
            raise requests.ConnectionError("refused")

        client = RemoteLLMClient("http://llm.local", GenerationConfig(), api_key="k", transport=transport, sleeper=lambda _: None)
        with pytest.raises(TransportError, match="failed after 3 attempts"):
            client.generate("PROMPT")
        assert len(calls) == 3

    def test_each_call_logs_one_request_record(self, llm_requests):
        def transport(url, payload, headers, timeout):
            if payload["messages"][0]["content"] == "BAD":
                return 400, "no"
            return 200, json.dumps({"choices": [{"message": {"content": "(a, r, b)"}}]})

        client = RemoteLLMClient("http://llm.local/v1", GenerationConfig(model="gpt-4"), api_key="k", transport=transport)
        client.generate("PROMPT")
        with pytest.raises(APIError):
            client.generate("BAD")
        url = "http://llm.local/v1/chat/completions"
        assert llm_requests() == [
            {"url": url, "model": "gpt-4", "prompt_chars": 6, "completion_chars": 9, "outcome": "ok"},
            {"url": url, "model": "gpt-4", "prompt_chars": 3, "outcome": "error",
             "detail": "request to http://llm.local/v1/chat/completions failed with status 400"},
        ]

    def test_client_state_is_unchanged_by_calls(self):
        def transport(url, payload, headers, timeout):
            return 200, json.dumps({"choices": [{"message": {"content": "x"}}]})

        def state(client):
            return {(type(obj).__name__, name): repr(value) for obj in (client, client._http) for name, value in vars(obj).items()}

        client = RemoteLLMClient("http://llm.local", GenerationConfig(), api_key="k", transport=transport)
        before = state(client)
        for _ in range(20):
            client.generate("PROMPT")
        assert state(client) == before


class TestRandomExtract:
    def test_output_subset_of_context_and_bounded(self):
        pool = make_triplets(8)
        context = triplet_context(pool)
        rng = random.Random(3)
        for _ in range(300):
            picked = random_extract(context, max_triplets=4, rng=rng)
            assert set(picked) <= set(pool)
            assert 1 <= len(picked) <= 4
            assert len(set(picked)) == len(picked)

    def test_empty_context_yields_empty_prediction(self):
        context = RetrievedContext(mode="triplets", items=(), n_kb_requested=5)
        assert random_extract(context, 3, random.Random(0)) == []

    def test_deterministic_for_fixed_seed(self):
        context = triplet_context(make_triplets(6))
        a = [random_extract(context, 3, sentence_rng(42, i)) for i in range(20)]
        b = [random_extract(context, 3, sentence_rng(42, i)) for i in range(20)]
        assert a == b

    def test_streams_independent_of_processing_order(self):
        context = triplet_context(make_triplets(6))
        forward = {i: random_extract(context, 3, sentence_rng(1, i)) for i in range(10)}
        backward = {i: random_extract(context, 3, sentence_rng(1, i)) for i in reversed(range(10))}
        assert forward == backward

    def test_forced_perfect_outcome(self):
        # context equals the gold set and n is forced to |gold|
        gold = make_triplets(3)
        context = triplet_context(gold)
        rng = random.Random(5)
        for _ in range(50):
            picked = random_extract(context, max_triplets=3, rng=rng)
            if len(picked) == 3:
                assert sentence_f1(set(picked), set(gold)) == 1.0

    def test_single_gold_in_five_expectation(self):
        # 1 gold among 5 context triplets, max_triplets=1: per-draw F1 is
        # Bernoulli(1/5), so the exact expectation is 0.2
        pool = make_triplets(5)
        gold = {pool[2]}
        context = triplet_context(pool)
        assert exhaustive_random_f1(pool, gold, max_triplets=1) == pytest.approx(0.2)
        rng = random.Random(1234)
        trials = 20000
        acc = sum(
            sentence_f1(set(random_extract(context, 1, rng)), gold) for _ in range(trials)
        )
        assert acc / trials == pytest.approx(0.2, abs=0.01)


def hypergeometric_expected_f1(pool_size, gold_in_pool, gold_total, max_triplets):
    """Analytic check: per-sentence F1 equals 2*tp/(k+G), and tp is
    hypergeometric with mean k*g/|pool|, so E[F1|n] = 2*k*g/(|pool|*(k+G))."""
    total = 0.0
    for n in range(1, max_triplets + 1):
        k = min(n, pool_size)
        total += 2.0 * k * gold_in_pool / (pool_size * (k + gold_total))
    return total / max_triplets


def enumerated_random_f1(pool, gold, max_triplets):
    """Reference oracle: the random baseline's expected per-sentence F1 by
    averaging F1 over every (n, k-subset of the pool) outcome; 2^|pool| work."""
    gold = set(gold)
    total = 0.0
    for n in range(1, max_triplets + 1):
        k = min(n, len(pool))
        subsets = list(itertools.combinations(pool, k))
        total += sum(sentence_f1(set(subset), gold) for subset in subsets) / len(subsets)
    return total / max_triplets


class TestExhaustiveRandomF1:
    @pytest.mark.parametrize("pool_size", range(1, 13))
    def test_closed_form_matches_enumeration(self, pool_size):
        # every gold size <= 8, hit count and max_triplets <= 8 for this pool
        pool = make_triplets(pool_size)
        for gold_total in range(9):
            for hits in range(min(pool_size, gold_total) + 1):
                gold = set(pool[:hits]) | set(make_triplets(gold_total - hits, predicate="missing"))
                for max_triplets in range(1, 9):
                    got = exhaustive_random_f1(pool, gold, max_triplets)
                    want = enumerated_random_f1(pool, gold, max_triplets)
                    assert got == pytest.approx(want, abs=1e-12), (gold_total, hits, max_triplets)

    def test_repeated_context_triplet_rejected(self):
        pool = make_triplets(3)
        with pytest.raises(ValueError, match="distinct"):
            exhaustive_random_f1(pool + pool[:1], {pool[0]}, 2)

    def test_matches_analytic_hypergeometric_form(self):
        rng = random.Random(6)
        for _ in range(40):
            pool = make_triplets(rng.randint(1, 9))
            gold_in = rng.randint(0, len(pool))
            gold = set(pool[:gold_in])
            max_triplets = rng.randint(1, 6)
            got = exhaustive_random_f1(pool, gold, max_triplets)
            want = hypergeometric_expected_f1(len(pool), gold_in, len(gold), max_triplets)
            if gold:
                assert got == pytest.approx(want, abs=1e-12)

    def test_gold_outside_context_counts_in_denominator(self):
        pool = make_triplets(4)
        gold = set(pool[:2]) | {Triplet("missing", "rel", "thing")}
        got = exhaustive_random_f1(pool, gold, max_triplets=2)
        want = hypergeometric_expected_f1(4, 2, 3, 2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_empty_context_is_zero(self):
        assert exhaustive_random_f1([], {Triplet("a", "r", "b")}, 3) == 0.0

    def test_monte_carlo_agrees_with_enumeration(self):
        pool = make_triplets(7)
        gold = set(pool[1:4])
        context = triplet_context(pool)
        exact = exhaustive_random_f1(pool, gold, max_triplets=5)
        rng = random.Random(99)
        trials = 30000
        acc = sum(
            sentence_f1(set(random_extract(context, 5, rng)), gold) for _ in range(trials)
        )
        assert acc / trials == pytest.approx(exact, abs=0.01)


class TestClosedForm:
    def test_degenerate_cases(self):
        assert random_f1_closed_form(1.0, 1, 1) == 1.0
        assert random_f1_closed_form(0.0, 5, 3) == 0.0
        assert random_f1_closed_form(0.8, 5, 2) == pytest.approx(0.0256)

    def test_monotonicity(self):
        # increasing in p, decreasing in n_kb and n (for p < n_kb)
        for p_low, p_high in [(0.1, 0.2), (0.5, 0.9)]:
            assert random_f1_closed_form(p_low, 5, 2) < random_f1_closed_form(p_high, 5, 2)
        assert random_f1_closed_form(0.8, 6, 2) < random_f1_closed_form(0.8, 5, 2)
        assert random_f1_closed_form(0.8, 5, 3) < random_f1_closed_form(0.8, 5, 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            random_f1_closed_form(1.5, 5, 2)
        with pytest.raises(ValueError):
            random_f1_closed_form(0.5, 0, 2)
        with pytest.raises(ValueError, match=r"^p must be a real number, got True$"):
            random_f1_closed_form(True, 5, 2)
        with pytest.raises(ValueError, match=r"^p must be a real number, got '0\.5'$"):
            random_f1_closed_form("0.5", 5, 2)


_POOL = make_triplets(3)


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: exhaustive_random_f1(_POOL, _POOL, 2.5), "max_triplets"),
        (lambda: exhaustive_random_f1(_POOL, _POOL, True), "max_triplets"),
        (lambda: random_f1_closed_form(0.5, 2.5, 1), "n_kb"),
        (lambda: random_f1_closed_form(0.5, True, 1), "n_kb"),
        (lambda: random_f1_closed_form(0.5, 5, 2.0), "n"),
        (lambda: random_extract(triplet_context([]), 2.5, random.Random(0)), "max_triplets"),
        (lambda: random_extract(triplet_context(_POOL), True, random.Random(0)), "max_triplets"),
    ],
    ids=["exhaustive-float", "exhaustive-bool", "closed-form-float-nkb", "closed-form-bool-nkb",
         "closed-form-float-n", "extract-empty-float", "extract-bool"],
)
def test_random_baseline_sizes_must_be_ints(call, field):
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        call()


class TestPureExtract:
    def test_oracle_gold_is_perfect(self):
        for record in planted_single_records(5):
            picked = pure_extract("oracle-gold", record, triplet_context([]), 3, random.Random(0))
            assert sentence_f1(set(picked), set(record.gold)) == 1.0

    def test_context_prefix_returns_leading_triplets(self):
        pool = make_triplets(6)
        context = triplet_context(pool)
        record = planted_single_records(1)[0]
        assert pure_extract("oracle-prefix", record, context, 4, random.Random(0)) == pool[:4]
        assert pure_extract("oracle-prefix", record, context, 10, random.Random(0)) == pool

    def test_context_prefix_equal_to_gold_is_perfect(self):
        record = planted_single_records(1)[0]
        context = triplet_context(list(record.gold))
        picked = pure_extract("oracle-prefix", record, context, 1, random.Random(0))
        assert sentence_f1(set(picked), set(record.gold)) == 1.0

    def test_random_is_random_extract(self):
        record = planted_single_records(1)[0]
        context = triplet_context(make_triplets(8))
        picked = [pure_extract("random", record, context, 3, sentence_rng(5, i)) for i in range(10)]
        assert picked == [random_extract(context, 3, sentence_rng(5, i)) for i in range(10)]

    def test_names_are_the_extractor_names(self):
        assert EXTRACTORS == ("llm", "oracle-gold", "oracle-prefix", "random")

    @pytest.mark.parametrize("name", ["oracle_magic", "llm"])
    def test_unknown_name_rejected(self, name):
        record = planted_single_records(1)[0]
        with pytest.raises(ValueError, match=f"^unknown extractor {name!r}$"):
            pure_extract(name, record, triplet_context([]), 1, random.Random(0))

    @pytest.mark.parametrize("name", EXTRACTORS[1:])
    @pytest.mark.parametrize("max_triplets", [-1, 0, True], ids=["negative", "zero", "bool"])
    def test_max_triplets_below_one_rejected(self, name, max_triplets):
        sentence = AnnotatedSentence("s0 r0 o0 s1 r1 o1", tuple(make_triplets(2)))
        with pytest.raises(ValueError, match="^max_triplets must be"):
            pure_extract(name, sentence, triplet_context(make_triplets(2)), max_triplets, random.Random(0))
