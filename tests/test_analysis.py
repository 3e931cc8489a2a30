from __future__ import annotations

import json
import math
import random

import pytest

import kgte.analysis
from kgte import (
    EncoderConfig,
    ExperimentRunSpec,
    GenerationConfig,
    RemoteLLMClient,
    build_index,
    build_kb,
    downscale_kb,
    fit_ablation,
    linear_fit,
    load_dataset,
    log_param_fit,
    random_model_study,
    replay_experiment,
    run_ablation,
    run_experiment,
    sweep_context_quality,
)
from kgte.analysis import EXTRACTORS
from conftest import planted_dataset, planted_pair_records, planted_single_records
from kgte import save_dataset


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([(0, 1), (1, 3), (2, 5)])
        assert fit.slope == 2.0
        assert fit.intercept == 1.0
        assert fit.r2 == 1.0
        assert fit.n_points == 3

    def test_constant_y_clamps_r2_to_zero(self):
        fit = linear_fit([(0, 4), (1, 4), (2, 4)])
        assert fit.slope == 0.0
        assert fit.r2 == 0.0

    def test_all_x_equal_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([(1, 2), (1, 3)])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([(1, 2)])

    def test_point_order_invariant(self):
        rng = random.Random(3)
        points = [(rng.random(), rng.random()) for _ in range(20)]
        base = linear_fit(points)
        rng.shuffle(points)
        shuffled = linear_fit(points)
        assert shuffled.slope == pytest.approx(base.slope, abs=1e-12)
        assert shuffled.intercept == pytest.approx(base.intercept, abs=1e-12)

    def test_affine_response_transform(self):
        points = [(0.0, 1.0), (1.0, 2.0), (2.0, 2.5), (3.0, 4.0)]
        base = linear_fit(points)
        a, b = 2.0, 5.0
        transformed = linear_fit([(x, a * y + b) for x, y in points])
        assert transformed.slope == pytest.approx(a * base.slope, abs=1e-12)
        assert transformed.intercept == pytest.approx(a * base.intercept + b, abs=1e-12)

    def test_noisy_fit_r2_below_one(self):
        fit = linear_fit([(0, 0.1), (1, 0.9), (2, 2.2), (3, 2.8)])
        assert 0.9 < fit.r2 < 1.0

    def test_worse_than_mean_clamped(self):
        # y falls while a rogue outlier drags the slope positive: contrive a
        # case where SS_res > SS_tot is impossible for OLS, so instead check
        # the clamp directly on an anti-correlated prediction
        fit = linear_fit([(0, 0), (1, 1), (2, 0), (3, 1)])
        assert fit.r2 >= 0.0


class TestLogParamFit:
    def test_recovers_synthetic_slope(self):
        points = [(n, 0.05 * math.log(n)) for n in (0.1, 1.5, 7, 40, 65, 175)]
        fit = log_param_fit(points)
        assert fit.slope == pytest.approx(0.05, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 >= 1.0 - 1e-12

    def test_nonpositive_parameter_count_rejected(self):
        with pytest.raises(ValueError):
            log_param_fit([(0.0, 0.1), (1.0, 0.2)])


class TestFitAblation:
    def test_recovers_published_scale_response(self):
        # the KB-downscale study's linear response, fed synthetically
        slope, intercept = 0.25, 0.21
        pairs = [(p, slope * p + intercept) for p in (0.05, 0.2, 0.35, 0.6, 0.8)]
        fit = fit_ablation(pairs)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        assert fit.r2 >= 1.0 - 1e-9

    def test_sentence_triplets_variant(self):
        slope, intercept = 0.55, 0.21
        pairs = [(p, slope * p + intercept) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        fit = fit_ablation(pairs)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)


@pytest.fixture
def pair_manifest(tmp_path):
    return save_dataset(planted_dataset(planted_pair_records(30)), tmp_path / "pairs")


@pytest.fixture
def single_manifest(tmp_path):
    return save_dataset(planted_dataset(planted_single_records(20)), tmp_path / "singles")


def spec_for(manifest, **overrides):
    defaults = dict(
        manifest=str(manifest),
        mode="triplets",
        extractor="oracle-prefix",
        n_kb=2,
        dimension=128,
    )
    defaults.update(overrides)
    return ExperimentRunSpec(**defaults)


class TestRunExperiment:
    def test_oracle_gold_is_perfect_everywhere(self, pair_manifest):
        for mode in ("zero", "static2", "triplets"):
            result = run_experiment(spec_for(pair_manifest, mode=mode, extractor="oracle-gold"))
            assert result.report.f1 == 1.0

    def test_prefix_oracle_on_planted_fixture(self, pair_manifest):
        result = run_experiment(spec_for(pair_manifest))
        assert result.report.f1 == 1.0
        assert result.failures == 0

    def test_runs_are_byte_identical(self, pair_manifest, tmp_path):
        spec = spec_for(pair_manifest, extractor="random", seed=123)
        run_experiment(spec, tmp_path / "a")
        run_experiment(spec, tmp_path / "b")
        for name in ("report.json", "sentences.jsonl", "spec.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_scale_zero_equals_zero_shot(self, pair_manifest):
        kb_less = run_experiment(
            spec_for(pair_manifest, extractor="random", scale=0.0, seed=7)
        )
        zero = run_experiment(
            spec_for(pair_manifest, mode="zero", extractor="random", seed=7)
        )
        assert kb_less.report.to_json() == zero.report.to_json()

    def test_replay_from_spec_file(self, pair_manifest, tmp_path):
        spec = spec_for(pair_manifest, extractor="random", seed=5)
        run_experiment(spec, tmp_path / "orig")
        replayed = replay_experiment(tmp_path / "orig" / "spec.json", tmp_path / "replay")
        assert (tmp_path / "orig" / "report.json").read_bytes() == (
            tmp_path / "replay" / "report.json"
        ).read_bytes()
        assert replayed.spec == spec

    def test_examples_mode_pipeline(self, pair_manifest):
        result = run_experiment(spec_for(pair_manifest, mode="examples", n_kb=1))
        assert result.report.f1 == 1.0

    def test_llm_extractor_with_mock_transport(self, single_manifest):
        def transport(url, payload, headers, timeout):
            # echo aware: always answer with a fixed triplet
            return 200, json.dumps({"choices": [{"message": {"content": "(a, r, b)"}}]})

        client = RemoteLLMClient("http://llm.local", GenerationConfig(), api_key="k", transport=transport)
        spec = spec_for(single_manifest, mode="zero", extractor="llm")
        result = run_experiment(spec, llm_client=client)
        assert result.report.n_pred == len(result.runs)
        assert len(client.request_log) == len(result.runs)

    def test_llm_failures_flagged_and_scored_empty(self, single_manifest):
        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(1)
            if len(calls) % 2 == 0:
                return 400, "no"
            return 200, json.dumps({"choices": [{"message": {"content": "(a, r, b)"}}]})

        client = RemoteLLMClient("http://llm.local", GenerationConfig(), api_key="k", transport=transport)
        result = run_experiment(spec_for(single_manifest, mode="zero", extractor="llm"), llm_client=client)
        assert result.failures > 0
        failed = [run for run in result.runs if run.error is not None]
        assert all(run.predictions == () for run in failed)

    def test_llm_extractor_requires_client(self, single_manifest):
        with pytest.raises(ValueError):
            run_experiment(spec_for(single_manifest, mode="zero", extractor="llm"))

    def test_llm_calls_run_concurrently_but_aggregate_in_order(self, single_manifest):
        import threading
        import time as time_module

        active, peak = [], []
        lock = threading.Lock()

        def transport(url, payload, headers, timeout):
            with lock:
                active.append(1)
                peak.append(len(active))
            time_module.sleep(0.005)
            with lock:
                active.pop()
            content = f"(echo, length, n{len(payload['messages'][0]['content'])})"
            return 200, json.dumps({"choices": [{"message": {"content": content}}]})

        config = GenerationConfig(in_flight=3)
        client = RemoteLLMClient("http://llm.local", config, api_key="k", transport=transport)
        spec = spec_for(single_manifest, mode="zero", extractor="llm", generation=config)
        result = run_experiment(spec, llm_client=client)
        assert max(peak) <= 3
        assert [run.index for run in result.runs] == list(range(len(result.runs)))
        # outputs line up with each sentence's own prompt length
        for run in result.runs:
            assert run.predictions[0].object == f"n{len(run.prompt.rendered)}"

    def test_spec_round_trips_through_json(self, pair_manifest):
        spec = spec_for(pair_manifest, extractor="random", seed=9, char_budget=4000)
        assert ExperimentRunSpec.from_json(spec.to_json()) == spec

    def test_spec_json_golden(self):
        spec = ExperimentRunSpec(
            manifest="data/manifest.json",
            mode="examples",
            extractor="oracle-prefix",
            prompt_kind="documented",
            n_kb=7,
            scale=0.3,
            seed=11,
            split="validation",
            embed_mode="sentence+triplets",
            dimension=96,
            ngram_range=[2, 4],
            char_budget=1234,
            generation=GenerationConfig(
                model="gpt-4", temperature=0.5, max_output_tokens=64, timeout=5.5, max_retries=4, in_flight=3
            ),
        )
        assert spec.to_json() == (
            '{\n  "char_budget": 1234,\n  "dimension": 96,\n  "embed_mode": "sentence+triplets",\n'
            '  "extractor": "oracle-prefix",\n  "generation": {\n    "in_flight": 3,\n'
            '    "max_output_tokens": 64,\n    "max_retries": 4,\n    "model": "gpt-4",\n'
            '    "temperature": 0.5,\n    "timeout": 5.5\n  },\n  "manifest": "data/manifest.json",\n'
            '  "mode": "examples",\n  "n_kb": 7,\n  "ngram_range": [\n    2,\n    4\n  ],\n'
            '  "prompt_kind": "documented",\n  "scale": 0.3,\n  "seed": 11,\n  "split": "validation"\n}\n'
        )

    @pytest.mark.parametrize("extractor", [name for name in EXTRACTORS if name != "llm"])
    def test_every_pure_extractor_runs(self, pair_manifest, extractor):
        for mode in ("triplets", "examples"):
            result = run_experiment(spec_for(pair_manifest, mode=mode, extractor=extractor))
            assert len(result.runs) == 30
            assert result.failures == 0

    def test_invalid_spec_rejected(self, pair_manifest):
        with pytest.raises(ValueError):
            spec_for(pair_manifest, mode="three-shot")
        with pytest.raises(ValueError):
            spec_for(pair_manifest, extractor="psychic")


class TestRandomModelStudy:
    def test_dilution_decreases_monte_carlo_f1(self):
        records = planted_single_records(10, seed=41)
        kb = build_kb(records[:7], records[7:])
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=128))
        rows = random_model_study(
            records, index, [1, 3, 6], max_triplets=1, seed=0, trials=2000
        )
        # gold stays reachable while filler dilutes the draw
        assert rows[0].monte_carlo_f1 > rows[1].monte_carlo_f1 > rows[2].monte_carlo_f1
        assert rows[0].p == 1.0

    def test_monte_carlo_tracks_exhaustive(self):
        records = planted_single_records(6, seed=43)
        kb = build_kb(records[:4], records[4:])
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=128))
        rows = random_model_study(records, index, [2, 5], max_triplets=2, seed=1, trials=4000)
        for row in rows:
            assert row.exhaustive_f1 is not None
            assert row.monte_carlo_f1 == pytest.approx(row.exhaustive_f1, abs=0.02)
            assert row.closed_form_deviation is not None

    def test_exhaustive_skipped_for_large_contexts(self):
        records = planted_single_records(4, seed=44)
        kb = build_kb(records[:2], records[2:])
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=64))
        rows = random_model_study(
            records, index, [4], max_triplets=1, seed=0, trials=10, exhaustive_limit=2
        )
        assert rows[0].exhaustive_f1 is None
        assert rows[0].closed_form_deviation is None

    def test_exhaustive_column_equals_analytic_expectation(self):
        # per sentence, E[F1] = (1/max) * sum_n 2*k*g/(|ctx|*(k+G)) with
        # k = min(n, |ctx|); the study column averages this over sentences
        from kgte import retrieve_triplets

        records = planted_single_records(8, seed=47)
        kb = build_kb(records[:5], records[5:])
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=128))
        max_triplets = 3
        for n_kb in (2, 4):
            rows = random_model_study(
                records, index, [n_kb], max_triplets=max_triplets, seed=0, trials=1
            )
            expected = 0.0
            for record in records:
                context = retrieve_triplets(record.text, index, n_kb).triplets()
                gold = set(record.gold)
                in_context = len(gold & set(context))
                acc = 0.0
                for n in range(1, max_triplets + 1):
                    k = min(n, len(context))
                    acc += 2.0 * k * in_context / (len(context) * (k + len(gold)))
                expected += acc / max_triplets
            expected /= len(records)
            assert rows[0].exhaustive_f1 == pytest.approx(expected, abs=1e-12)


class TestRunAblation:
    def test_oracle_prefix_ablation_end_to_end(self, pair_manifest):
        result = run_ablation(
            pair_manifest,
            scales=[0.0, 0.5, 1.0],
            seed=2,
            extractor="oracle-prefix",
            n_kb=2,
            dimension=128,
        )
        assert len(result.points) == 3
        assert result.points[0].scale == 0.0
        assert result.points[0].p == 0.0
        assert result.points[0].f1 == 0.0
        assert result.points[-1].p == 1.0
        assert result.points[-1].f1 == 1.0
        # P grows with scale on the nested samples
        ps = [point.p for point in result.points]
        assert ps == sorted(ps)
        assert result.fit is not None
        assert result.fit.n_points == 3

    def test_each_scale_builds_one_index(self, pair_manifest, monkeypatch):
        calls = []
        real_build_index = kgte.analysis.build_index

        def counting_build_index(*args, **kwargs):
            calls.append(1)
            return real_build_index(*args, **kwargs)

        monkeypatch.setattr(kgte.analysis, "build_index", counting_build_index)
        run_ablation(pair_manifest, scales=[0.0, 0.5, 1.0], seed=2, extractor="random", n_kb=2, dimension=128)
        # scale 0 leaves the KB empty, so no index is built for it
        assert len(calls) == 2

    @pytest.mark.parametrize("mode,kind", [("triplets", "triplet"), ("examples", "example")])
    def test_p_equals_sweep_on_the_downscaled_kb(self, pair_manifest, mode, kind):
        scales, seed, n_kb = [0.3, 0.6, 1.0], 4, 3
        result = run_ablation(pair_manifest, scales, seed, mode=mode, n_kb=n_kb, dimension=128)
        dataset = load_dataset(pair_manifest)
        for scale, point in zip(scales, result.points):
            kb = build_kb(dataset.train, dataset.validation)
            if scale < 1.0:
                kb = downscale_kb(kb, scale, seed)
            index = build_index(kb, kind, config=EncoderConfig(dimension=128))
            curve = sweep_context_quality(dataset.test, index, [n_kb])
            assert point.p == curve.points[0][1]
        assert 0.0 < result.points[0].p < 1.0

    def test_degenerate_single_p_has_no_fit(self, pair_manifest):
        result = run_ablation(
            pair_manifest, scales=[1.0], seed=0, extractor="oracle-prefix", n_kb=2, dimension=128
        )
        assert result.fit is None
