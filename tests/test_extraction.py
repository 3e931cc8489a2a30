from __future__ import annotations

import json
import random
import threading
import time

import pytest

from kgte import (
    APIError,
    GenerationConfig,
    MODEL_CATALOG,
    RemoteLLMClient,
    RetrievedContext,
    TransportError,
    Triplet,
    char_budget_for,
    exhaustive_random_f1,
    oracle_extract,
    random_extract,
    random_f1_closed_form,
    sentence_f1,
    sentence_rng,
)
from conftest import planted_single_records


def triplet_context(triplets, n_kb=None):
    items = tuple((t, 1.0 - i * 0.01) for i, t in enumerate(triplets))
    return RetrievedContext(mode="triplets", items=items, n_kb_requested=n_kb or max(len(items), 1))


def make_triplets(n, predicate="r"):
    return [Triplet(f"s{i}", f"{predicate}{i}", f"o{i}") for i in range(n)]


class TestModelCatalog:
    def test_reference_entries(self):
        assert MODEL_CATALOG["gpt2-base"].n_par_billion == 0.1
        assert MODEL_CATALOG["gpt2-xl"].n_par_billion == 1.5
        assert MODEL_CATALOG["gpt2-xl"].context_window == 1024
        assert MODEL_CATALOG["falcon-7b"].n_par_billion == 7
        assert MODEL_CATALOG["falcon-40b"].context_window == 2048
        assert MODEL_CATALOG["llama-13b"].n_par_billion == 13
        assert MODEL_CATALOG["llama-65b"].n_par_billion == 65
        assert MODEL_CATALOG["gpt-3.5"].context_window == 4096
        assert MODEL_CATALOG["gpt-4"].context_window == 8192

    def test_char_budget(self):
        assert char_budget_for("llama-65b") == 2048 * 4
        assert char_budget_for("gpt-4") == 8192 * 4
        assert char_budget_for("unknown-model") == 4096 * 4

    def test_default_temperature(self):
        assert GenerationConfig().temperature == 0.1


class TestRemoteLLMClient:
    def test_mock_transport_returns_content_verbatim(self):
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
        assert client.request_log[-1]["outcome"] == "ok"

    def test_timeout_retried_per_policy_then_error(self):
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
        assert client.request_log[-1]["outcome"] == "error"

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

    def test_programming_error_in_transport_not_retried(self):
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
        assert client.request_log[-1]["outcome"] == "error"

    def test_non_object_body_is_api_error(self):
        client = RemoteLLMClient(
            "http://llm.local", GenerationConfig(), api_key="k", transport=lambda *a: (200, "[]")
        )
        with pytest.raises(APIError):
            client.generate("PROMPT")

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

    def test_request_log_is_append_only_record(self):
        def transport(url, payload, headers, timeout):
            return 200, json.dumps({"choices": [{"message": {"content": "x"}}]})

        client = RemoteLLMClient("http://llm.local", GenerationConfig(), api_key="k", transport=transport)
        for _ in range(3):
            client.generate("PROMPT")
        assert len(client.request_log) == 3
        run_ids = [entry["run_id"] for entry in client.request_log]
        assert len(set(run_ids)) == 3

    def test_in_flight_bound_respected(self):
        active = []
        peak = []
        lock = threading.Lock()

        def transport(url, payload, headers, timeout):
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.01)
            with lock:
                active.pop()
            return 200, json.dumps({"choices": [{"message": {"content": "x"}}]})

        client = RemoteLLMClient(
            "http://llm.local", GenerationConfig(in_flight=2), api_key="k", transport=transport
        )
        threads = [threading.Thread(target=client.generate, args=("P",)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(peak) <= 2


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


class TestExhaustiveRandomF1:
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


class TestOracleExtract:
    def test_oracle_gold_is_perfect(self):
        for record in planted_single_records(5):
            picked = oracle_extract("oracle-gold", record, None, 3)
            assert sentence_f1(set(picked), set(record.gold)) == 1.0

    def test_context_prefix_returns_leading_triplets(self):
        pool = make_triplets(6)
        context = triplet_context(pool)
        record = planted_single_records(1)[0]
        assert oracle_extract("oracle-prefix", record, context, 4) == pool[:4]
        assert oracle_extract("oracle-prefix", record, context, 10) == pool

    def test_context_prefix_equal_to_gold_is_perfect(self):
        record = planted_single_records(1)[0]
        context = triplet_context(list(record.gold))
        picked = oracle_extract("oracle-prefix", record, context, 1)
        assert sentence_f1(set(picked), set(record.gold)) == 1.0

    def test_unknown_kind_rejected(self):
        record = planted_single_records(1)[0]
        with pytest.raises(ValueError):
            oracle_extract("oracle_magic", record, None, 1)
