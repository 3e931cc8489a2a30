from __future__ import annotations

import gc
import inspect
import json
import math
import random
import re
from concurrent.futures import Future

import numpy as np
import pytest

import kgte.analysis
import kgte.vector_index
from kgte import (
    EncoderConfig,
    ExperimentRunSpec,
    GenerationConfig,
    PromptBudgetError,
    PromptTemplate,
    RemoteLLMClient,
    StudyRow,
    build_index,
    build_kb,
    downscale_kb,
    index_dataset,
    linear_fit,
    load_dataset,
    log_param_fit,
    random_model_study,
    render,
    replay_experiment,
    run_ablation,
    run_experiment,
    sweep_context_quality,
)
from kgte.analysis import EXTRACTORS
from kgte.retriever import CONTEXT_MODES
from conftest import planted_dataset, planted_pair_records, planted_single_records
from kgte import save_dataset


def count_encoded_rows(monkeypatch) -> list[int]:
    """The row count of each ``encode_texts`` call ``build_index`` makes from now on."""
    encoded = []
    real_encode_texts = kgte.vector_index.encode_texts

    def counting_encode_texts(texts, config):
        encoded.append(len(texts))
        return real_encode_texts(texts, config)

    monkeypatch.setattr(kgte.vector_index, "encode_texts", counting_encode_texts)
    return encoded


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

    @pytest.mark.parametrize("bad", [(float("nan"), 1.0), (2.0, float("nan")), (float("inf"), 1.0), (2.0, float("-inf"))])
    def test_non_finite_point_rejected_naming_its_position(self, bad):
        with pytest.raises(ValueError, match="point 2 .* is not finite"):
            linear_fit([(0, 1), (1, 3), bad, (3, 7)])

    @pytest.mark.parametrize(
        "points",
        [
            [(1e200, 0), (-1e200, 1)],
            [(0, 1e200), (1, -1e200)],
            [(1.7e308, 0), (-1.7e308, 1), (-1.7e308, 2)],
            [(0, 1.7e308), (1, -1.7e308), (2, 1.7e308), (1, -1.7e308), (1, -1.7e308)],
            [(0, 1.7e308), (2, 1.7e308), (1, -1.7e308), (1, -1.7e308), (1, -1.7e308), (1, -1.7e308)],
        ],
        ids=["square-overflows", "y-square-overflows", "deviation-overflows", "inf-plus-minus-inf", "mean-overflows"],
    )
    def test_finite_points_too_large_rejected(self, points):
        with pytest.raises(ValueError, match="^the points are too large to fit"):
            linear_fit(points)

    @pytest.mark.parametrize("points", [[(0, 0), (1e-300, 1e300)], [(0, 0), (5e-324, 1)]], ids=["tiny-deviations", "subnormal-x"])
    def test_x_values_too_close_rejected(self, points):
        with pytest.raises(ValueError, match="^the x values are too close to fit a slope"):
            linear_fit(points)

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

    @pytest.mark.parametrize("bad", [(float("nan"), 0.2), (float("inf"), 0.2), (7.0, float("nan"))])
    def test_non_finite_point_rejected_naming_its_position(self, bad):
        with pytest.raises(ValueError, match="point 1"):
            log_param_fit([(1.5, 0.1), bad, (40.0, 0.3)])


class TestFitAblation:
    def test_recovers_published_scale_response(self):
        # the KB-downscale study's linear response, fed synthetically
        slope, intercept = 0.25, 0.21
        pairs = [(p, slope * p + intercept) for p in (0.05, 0.2, 0.35, 0.6, 0.8)]
        fit = linear_fit(pairs)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        assert fit.r2 >= 1.0 - 1e-9

    def test_sentence_triplets_variant(self):
        slope, intercept = 0.55, 0.21
        pairs = [(p, slope * p + intercept) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        fit = linear_fit(pairs)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)


@pytest.fixture
def pair_manifest(tmp_path):
    return save_dataset(planted_dataset(planted_pair_records(30)), tmp_path / "pairs")


@pytest.fixture
def single_manifest(tmp_path):
    return save_dataset(planted_dataset(planted_single_records(20)), tmp_path / "singles")


def spec_for(manifest, **overrides):
    fields = {"manifest": str(manifest), "mode": "triplets", "extractor": "oracle-prefix", **overrides}
    if fields["mode"] in CONTEXT_MODES:  # zero and static2 take no retrieval fields
        fields = {"n_kb": 2, "dimension": 128, **fields}
    return ExperimentRunSpec(**fields)


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

    def test_llm_extractor_with_mock_transport(self, single_manifest, llm_requests):
        def transport(url, payload, headers, timeout):
            # echo aware: always answer with a fixed triplet
            return 200, json.dumps({"choices": [{"message": {"content": "(a, r, b)"}}]})

        client = RemoteLLMClient("http://llm.local", GenerationConfig(), api_key="k", transport=transport)
        spec = spec_for(single_manifest, mode="zero", extractor="llm")
        result = run_experiment(spec, llm_client=client)
        assert result.report.n_pred == len(result.runs)
        assert [entry["outcome"] for entry in llm_requests()] == ["ok"] * len(result.runs)

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

    def test_a_failed_request_leaves_no_future_in_a_cycle(self, mini_manifest):
        # a failure re-raised by future.result() would hold the caller's frame and every future
        def transport(url, payload, headers, timeout):
            if "Colosseum" in payload["messages"][0]["content"]:
                return 400, "no"
            return 200, json.dumps({"choices": [{"message": {"content": "(a, r, b)"}}]})

        client = RemoteLLMClient("http://llm.local", GenerationConfig(), api_key="k", transport=transport)
        gc.collect()
        gc.disable()
        try:
            result = run_experiment(spec_for(mini_manifest, mode="zero", extractor="llm"), llm_client=client)
            futures = [obj for obj in gc.get_objects() if isinstance(obj, Future)]
        finally:
            gc.enable()
        assert result.failures == 1 and len(result.runs) == 4
        assert futures == []

    def test_llm_extractor_requires_client(self, single_manifest, monkeypatch):
        monkeypatch.setattr(kgte.analysis, "load_dataset", lambda *a, **k: pytest.fail("dataset loaded"))
        with pytest.raises(ValueError, match="requires a RemoteLLMClient"):
            run_experiment(spec_for(single_manifest, mode="zero", extractor="llm"))

    @pytest.mark.parametrize(
        "extractor,spec_config,client_config,needle",
        [
            ("llm", GenerationConfig(model="gpt2-base"), GenerationConfig(), "differs from the spec's"),
            ("llm", GenerationConfig(), GenerationConfig(in_flight=3), "differs from the spec's"),
            ("random", GenerationConfig(), GenerationConfig(), "would ignore the llm_client"),
        ],
        ids=["model-mismatch", "in-flight-mismatch", "pure-extractor"],
    )
    def test_client_checked_before_the_load(self, single_manifest, monkeypatch, extractor, spec_config, client_config, needle):
        # the spec sets the budget, pool size and spec.json; the client what is sent
        monkeypatch.setattr(kgte.analysis, "load_dataset", lambda *a, **k: pytest.fail("dataset loaded"))
        client = RemoteLLMClient("http://llm.local", client_config, api_key="k")
        spec = spec_for(single_manifest, mode="zero", extractor=extractor, generation=spec_config)
        with pytest.raises(ValueError, match=needle):
            run_experiment(spec, llm_client=client)

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

    @pytest.mark.parametrize("generation", ["", ', "generation": null'], ids=["missing", "null"])
    def test_missing_or_null_generation_is_the_default_config(self, generation):
        spec = ExperimentRunSpec.from_json(f'{{"manifest": "m", "mode": "zero", "extractor": "random"{generation}}}')
        assert spec.generation == GenerationConfig()

    def test_encoder_defaults_are_encoder_configs(self):
        defaults = EncoderConfig()
        spec = ExperimentRunSpec(manifest="m", mode="zero", extractor="random")
        assert (spec.dimension, spec.ngram_range) == (defaults.dimension, defaults.ngram_range)
        params = inspect.signature(run_ablation).parameters
        assert (params["dimension"].default, params["ngram_range"].default) == (defaults.dimension, defaults.ngram_range)

    @pytest.mark.parametrize("name", ["n_kb", "prompt_kind", "embed_mode"])
    def test_ablation_defaults_are_the_spec_defaults(self, name):
        spec = ExperimentRunSpec(manifest="m", mode="zero", extractor="random")
        assert inspect.signature(run_ablation).parameters[name].default == getattr(spec, name)

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

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("mode", "three-shot", "unknown mode 'three-shot'"),
            ("prompt_kind", "terse", "unknown prompt kind 'terse'"),
            ("extractor", "psychic", "unknown extractor 'psychic'"),
        ],
    )
    def test_unknown_choice_rejected_before_the_dataset_is_read(self, tmp_path, field, value, message):
        fields = {"manifest": str(tmp_path / "no-such-manifest.json"), "mode": "zero", "extractor": "random", field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentRunSpec(**fields)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(fields))
        with pytest.raises(ValueError, match=f"^{re.escape(str(spec_path))}: not a valid run spec: {message}$"):
            replay_experiment(spec_path)

    @pytest.mark.parametrize(
        "field,value,needle",
        [
            ("prompt_kind", "bogus", "prompt kind"),
            ("split", "nope", "split"),
            ("embed_mode", "what", "embed mode"),
            ("embed_mode", "sentence+triplets", "needs an example index"),
            ("dimension", 0, "dimension"),
            ("dimension", -4, "dimension"),
            ("ngram_range", (5, 3), "ngram_range"),
            ("ngram_range", (0, 2), "ngram_range"),
            ("ngram_range", [3], "ngram_range must be a pair"),
            ("ngram_range", [3, 4, 5], "ngram_range must be a pair"),
            ("ngram_range", 5, "ngram_range must be a pair"),
        ],
    )
    def test_every_field_checked_at_construction(self, pair_manifest, field, value, needle):
        with pytest.raises(ValueError, match=needle):
            spec_for(pair_manifest, **{field: value})

    @pytest.mark.parametrize("scale", [-0.5, 1.5, 7.0, float("nan")])
    def test_scale_outside_unit_interval_rejected(self, pair_manifest, scale):
        with pytest.raises(ValueError, match="scale must be in"):
            spec_for(pair_manifest, scale=scale)

    @pytest.mark.parametrize("mode", ["zero", "static2", "triplets", "examples"])
    @pytest.mark.parametrize("n_kb", [0, -3])
    def test_nonpositive_n_kb_rejected_in_every_mode(self, pair_manifest, mode, n_kb):
        with pytest.raises(ValueError, match="n_kb must be >= 1"):
            spec_for(pair_manifest, mode=mode, n_kb=n_kb)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_nonpositive_char_budget_rejected(self, pair_manifest, budget):
        with pytest.raises(ValueError, match="char_budget"):
            spec_for(pair_manifest, char_budget=budget)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_kb", 2.5),
            ("n_kb", True),
            ("seed", True),
            ("seed", 1.5),
            ("seed", "0"),
            ("dimension", 1.5),
            ("dimension", False),
            ("char_budget", 2000.0),
            ("ngram_range", (3.0, 5)),
            ("ngram_range", (3, True)),
            ("scale", "0.5"),
            ("scale", True),
            ("scale", None),
        ],
    )
    def test_wrong_typed_field_rejected_naming_it(self, pair_manifest, field, value):
        with pytest.raises(ValueError, match=field):
            spec_for(pair_manifest, **{field: value})

    @pytest.mark.parametrize("manifest", [None, "", 3])
    def test_manifest_must_be_a_non_empty_string(self, manifest):
        with pytest.raises(ValueError, match=f"^manifest must be a non-empty string, got {manifest!r}$"):
            ExperimentRunSpec(manifest=manifest, mode="zero", extractor="random")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_kb", 2.5),
            ("dimension", 1.5),
            ("seed", True),
            ("manifest", None),
            ("generation", {"temperature": True}),
            ("generation", {"timeout": "60"}),
            ("generation", {"model": 3}),
        ],
    )
    def test_replay_of_a_wrong_typed_spec_file_names_the_file(self, tmp_path, field, value):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"manifest": "m.json", "mode": "triplets", "extractor": "random", field: value}))
        with pytest.raises(ValueError) as excinfo:
            replay_experiment(spec_path)
        assert str(excinfo.value).startswith(f"{spec_path}: ")
        # a bad generation setting is named by its own field
        needle = next(iter(value)) if isinstance(value, dict) else field
        assert needle in str(excinfo.value)

    def test_budget_error_names_the_sentence(self, mini_manifest):
        dataset = load_dataset(mini_manifest)
        first, second = dataset.test[:2]
        template = PromptTemplate("base", "zero")
        budget = len(render(template, first.text, dataset.max_triplets).rendered)
        assert len(render(template, second.text, dataset.max_triplets).rendered) > budget
        spec = ExperimentRunSpec(manifest=str(mini_manifest), mode="zero", extractor="random", char_budget=budget)
        with pytest.raises(PromptBudgetError, match=f"^test sentence 1: budget of {budget} characters"):
            run_experiment(spec)

    def test_default_budget_leaves_room_for_the_answer(self, mini_manifest):
        # gpt2-base's 1024-token window less 1000 output tokens leaves 24 tokens, 96 characters
        generation = GenerationConfig(model="gpt2-base", max_output_tokens=1000)
        spec = ExperimentRunSpec(manifest=str(mini_manifest), mode="zero", extractor="random", generation=generation)
        with pytest.raises(PromptBudgetError, match="^test sentence 0: budget of 96 characters"):
            run_experiment(spec)

    def test_char_budget_takes_effect(self, pair_manifest):
        default = run_experiment(spec_for(pair_manifest, extractor="random"))
        budget = min(len(run.prompt.rendered) for run in default.runs) - 1
        tight = run_experiment(spec_for(pair_manifest, extractor="random", char_budget=budget))
        assert not any(run.prompt.truncated for run in default.runs)
        assert all(run.prompt.truncated and len(run.prompt.rendered) <= budget for run in tight.runs)

    @pytest.mark.parametrize(
        "text,needle",
        [
            pytest.param('{"manifest": "m.json", ', "Expecting", id="invalid-json"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "shots": 2}', "shots", id="unknown-key"),
            pytest.param('{"mode": "zero", "extractor": "random"}', "manifest", id="no-manifest"),
            pytest.param('["manifest"]', "", id="not-an-object"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "scale": 2}', "scale", id="bad-scale"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "n_kb": 0}', "n_kb", id="bad-n-kb"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "split": "nope"}', "split", id="bad-split"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "prompt_kind": "x"}', "prompt kind", id="bad-prompt-kind"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "embed_mode": "x"}', "embed mode", id="bad-embed-mode"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "dimension": 0}', "dimension", id="bad-dimension"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "ngram_range": [5, 3]}', "ngram_range", id="bad-ngram-range"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "ngram_range": [3]}', "ngram_range must be a pair", id="ngram-range-one"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "ngram_range": [3, 4, 5]}', "ngram_range must be a pair", id="ngram-range-three"),
            pytest.param('{"manifest": "m.json", "mode": "zero", "extractor": "random", "ngram_range": 5}', "ngram_range must be a pair", id="ngram-range-int"),
            pytest.param(
                '{"manifest": "m.json", "mode": "zero", "extractor": "random", "generation": {"temperature": NaN}}',
                "temperature",
                id="nan-temperature",
            ),
        ],
    )
    def test_replay_of_a_bad_spec_file_names_the_file(self, tmp_path, text, needle):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            replay_experiment(spec_path)
        assert str(excinfo.value).startswith(f"{spec_path}: ")
        assert needle in str(excinfo.value)

    @pytest.mark.parametrize("mode", ["zero", "static2"])
    @pytest.mark.parametrize(
        "field,value,shown",
        [("n_kb", 7, "7"), ("scale", 0.5, "0.5"), ("dimension", 64, "64"), ("ngram_range", [2, 5], "(2, 5)")],
    )
    def test_a_retrieval_field_without_retrieval_is_rejected(self, tmp_path, mode, field, value, shown):
        fields = {"manifest": str(tmp_path / "no-such-manifest.json"), "mode": mode, "extractor": "random"}
        message = f"{field} {shown} needs a retrieval mode, not '{mode}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentRunSpec(**fields, **{field: value})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**fields, field: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{spec_path}: not a valid run spec: {message}')}$"):
            replay_experiment(spec_path)
        # the defaults, spelled out, are accepted
        default = getattr(ExperimentRunSpec, field)
        assert ExperimentRunSpec(**fields, **{field: default}) == ExperimentRunSpec(**fields)


class TestIndexDataset:
    def test_full_scale_is_the_full_kb_index_itself(self, pair_manifest):
        dataset = load_dataset(pair_manifest)
        config = EncoderConfig(dimension=64)
        full = build_index(build_kb(dataset.train, dataset.validation), "example", "sentence+triplets", config)
        assert index_dataset(dataset, "example", 1.0, 3, "sentence+triplets", config) is full

    def test_downscaled_index_matches_downscale_kb(self, pair_manifest):
        dataset = load_dataset(pair_manifest)
        config = EncoderConfig(dimension=64)
        full_kb = build_kb(dataset.train, dataset.validation)
        kb = downscale_kb(full_kb, 0.4, 5)
        full = build_index(full_kb, "triplet", config=config)
        got = index_dataset(dataset, "triplet", 0.4, 5, "sentence", config)
        assert got.payloads == kb.triplets
        # a selection of the full index: its matrix shared, its own rows those a build of the downscaled KB encodes
        assert got._matrix is full._matrix
        own_rows = np.stack([node.vector for node in got.nodes])
        assert np.array_equal(own_rows, build_index(kb, "triplet", config=config)._matrix)

    def test_empty_retained_kb_gives_none(self, pair_manifest):
        assert index_dataset(load_dataset(pair_manifest), "triplet", 0.0, 0, "sentence", None) is None

    @pytest.mark.parametrize("scale", [-0.1, 1.5, float("nan")])
    def test_scale_outside_unit_interval_rejected(self, pair_manifest, scale):
        with pytest.raises(ValueError, match="scale must be in"):
            index_dataset(load_dataset(pair_manifest), "triplet", scale, 0, "sentence", None)


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
            assert row.monte_carlo_f1 == pytest.approx(row.exhaustive_f1, abs=0.02)
            assert row.closed_form_deviation == row.closed_form_f1 - row.exhaustive_f1

    def test_exhaustive_column_equals_analytic_expectation(self):
        # per sentence, E[F1] = (1/max) * sum_n 2*k*g/(|ctx|*(k+G)) with
        # k = min(n, |ctx|); the study column averages this over sentences,
        # at every N_KB, including contexts above 12 triplets
        from kgte import retrieve_triplets

        records = planted_single_records(20, seed=47)
        kb = build_kb(records[:15], records[15:])
        index = build_index(kb, "triplet", config=EncoderConfig(dimension=128))
        max_triplets = 3
        for n_kb in (2, 4, 16):
            rows = random_model_study(
                records, index, [n_kb], max_triplets=max_triplets, seed=0, trials=1
            )
            expected = 0.0
            largest = 0
            for record in records:
                context = retrieve_triplets(record.text, index, n_kb).ranked_triplets()
                largest = max(largest, len(context))
                gold = set(record.gold)
                in_context = len(gold & set(context))
                acc = 0.0
                for n in range(1, max_triplets + 1):
                    k = min(n, len(context))
                    acc += 2.0 * k * in_context / (len(context) * (k + len(gold)))
                expected += acc / max_triplets
            expected /= len(records)
            assert isinstance(rows[0].exhaustive_f1, float)
            assert rows[0].exhaustive_f1 == pytest.approx(expected, abs=1e-12)
        assert largest > 12

    @pytest.mark.parametrize(
        "n_kb_values,needle",
        [
            ([], "^no n_kb values to sweep$"),
            ([2, 2], "^n_kb values must be strictly increasing$"),
            ([5, 2], "^n_kb values must be strictly increasing$"),
            ([0], "^n_kb must be >= 1, got 0$"),
            ([True], "^n_kb must be an int, got True$"),
        ],
    )
    def test_n_kb_values_checked_as_for_the_sweep(self, n_kb_values, needle):
        records = planted_single_records(6, seed=43)
        index = build_index(build_kb(records[:4], records[4:]), "triplet", config=EncoderConfig(dimension=16))
        with pytest.raises(ValueError, match=needle):
            random_model_study(records, index, n_kb_values, max_triplets=2, seed=0, trials=1)
        with pytest.raises(ValueError, match=needle):
            sweep_context_quality(records, index, n_kb_values)

    @pytest.mark.parametrize("trials", [True, 2.5])
    def test_trials_must_be_an_int(self, trials):
        records = planted_single_records(6, seed=43)
        index = build_index(build_kb(records[:4], records[4:]), "triplet", config=EncoderConfig(dimension=16))
        with pytest.raises(ValueError, match=f"^trials must be an int, got {trials}$"):
            random_model_study(records, index, [2], max_triplets=2, seed=0, trials=trials)

    @pytest.mark.parametrize("seed", [True, 2.5])
    def test_seed_must_be_an_int(self, seed):
        records = planted_single_records(6, seed=43)
        index = build_index(build_kb(records[:4], records[4:]), "triplet", config=EncoderConfig(dimension=16))
        with pytest.raises(ValueError, match=f"^seed must be an int, got {seed}$"):
            random_model_study(records, index, [2], max_triplets=2, seed=seed, trials=1)


def test_study_row_dict_is_every_field_and_the_deviation():
    row = StudyRow(n_kb=2, p=0.5, monte_carlo_f1=0.25, closed_form_f1=0.125, exhaustive_f1=0.375)
    assert row.to_dict() == {
        "n_kb": 2,
        "p": 0.5,
        "monte_carlo_f1": 0.25,
        "closed_form_f1": 0.125,
        "exhaustive_f1": 0.375,
        "closed_form_deviation": -0.25,
    }


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

    def test_only_the_full_kb_is_indexed(self, pair_manifest, monkeypatch):
        kbs = []
        real_build_index = kgte.analysis.build_index

        def recording_build_index(kb, *args, **kwargs):
            kbs.append(kb)
            return real_build_index(kb, *args, **kwargs)

        monkeypatch.setattr(kgte.analysis, "build_index", recording_build_index)
        run_ablation(pair_manifest, scales=[0.0, 0.5, 1.0], seed=2, extractor="random", n_kb=2, dimension=128)
        dataset = load_dataset(pair_manifest)
        # once before the scales, then once per scale that retains an example
        # (scale 0 leaves the KB empty); scale 0.5 selects rows of the full index
        assert kbs == [build_kb(dataset.train, dataset.validation)] * 3

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

    def test_dataset_loaded_once_for_all_scales(self, pair_manifest, monkeypatch):
        loads = []
        real_load_dataset = kgte.analysis.load_dataset

        def counting_load_dataset(*args, **kwargs):
            loads.append(1)
            return real_load_dataset(*args, **kwargs)

        monkeypatch.setattr(kgte.analysis, "load_dataset", counting_load_dataset)
        run_ablation(pair_manifest, scales=[0.0, 0.5, 1.0], seed=2, extractor="random", n_kb=2, dimension=128)
        assert len(loads) == 1

    @pytest.mark.parametrize(
        "extractor,client_config,needle",
        [("random", GenerationConfig(), "would ignore the llm_client"), ("llm", None, "requires a RemoteLLMClient")],
        ids=["pure-extractor", "no-client"],
    )
    def test_client_checked_before_the_load(self, pair_manifest, monkeypatch, extractor, client_config, needle):
        monkeypatch.setattr(kgte.analysis, "load_dataset", lambda *a, **k: pytest.fail("dataset loaded"))
        client = None if client_config is None else RemoteLLMClient("http://llm.local", client_config, api_key="k")
        with pytest.raises(ValueError, match=needle):
            run_ablation(pair_manifest, scales=[1.0], seed=2, extractor=extractor, n_kb=2, dimension=128, llm_client=client)

    def test_llm_runs_use_the_client_generation_config(self, pair_manifest, llm_requests):
        models = []

        def transport(url, payload, headers, timeout):
            models.append(payload["model"])
            return 200, json.dumps({"choices": [{"message": {"content": "(a, r, b)"}}]})

        client = RemoteLLMClient("http://llm.local", GenerationConfig(model="gpt2-base", in_flight=2), api_key="k", transport=transport)
        result = run_ablation(pair_manifest, scales=[0.5, 1.0], seed=2, extractor="llm", n_kb=2, dimension=128, llm_client=client)
        assert len(result.points) == 2
        assert models == ["gpt2-base"] * (2 * len(load_dataset(pair_manifest).test))
        assert {(entry["model"], entry["outcome"]) for entry in llm_requests()} == {("gpt2-base", "ok")}

    @pytest.mark.parametrize("scales", [[0.5, 1.5], [float("nan")], [-0.25, 1.0]])
    def test_scale_outside_unit_interval_rejected_before_any_run(self, pair_manifest, monkeypatch, scales):
        monkeypatch.setattr(kgte.analysis, "load_dataset", lambda *a, **k: pytest.fail("dataset loaded"))
        with pytest.raises(ValueError, match="scale must be in"):
            run_ablation(pair_manifest, scales=scales, seed=2, extractor="random", n_kb=2, dimension=128)

    def test_no_scales_rejected_before_the_load(self, pair_manifest, monkeypatch):
        monkeypatch.setattr(kgte.analysis, "load_dataset", lambda *a, **k: pytest.fail("dataset loaded"))
        with pytest.raises(ValueError, match="^no scales to run$"):
            run_ablation(pair_manifest, scales=[], seed=2, extractor="random", n_kb=2, dimension=128)

    ENCODE_ARGS = dict(scales=[0.0, 0.25, 0.5, 1.0], seed=2, extractor="random", n_kb=2, dimension=128)

    def test_a_live_full_index_is_reused_with_identical_results(self, mini_manifest, monkeypatch):
        alone = json.dumps(run_ablation(mini_manifest, **self.ENCODE_ARGS).to_dict(), sort_keys=True)
        dataset = load_dataset(mini_manifest)
        # held through the second run, which takes it from build_index and selects its rows
        full = build_index(build_kb(dataset.train, dataset.validation), "triplet", config=EncoderConfig(dimension=128))
        encoded = count_encoded_rows(monkeypatch)
        beside = json.dumps(run_ablation(mini_manifest, **self.ENCODE_ARGS).to_dict(), sort_keys=True)
        assert beside == alone
        assert encoded == []
        del full

    def test_with_no_index_held_the_kb_is_encoded_once(self, mini_manifest, monkeypatch):
        dataset = load_dataset(mini_manifest)
        n_triplets = len(build_kb(dataset.train, dataset.validation).triplets)
        gc.collect()  # no full index is left alive to be reused
        encoded = count_encoded_rows(monkeypatch)
        run_ablation(mini_manifest, **self.ENCODE_ARGS)
        assert encoded == [n_triplets]

    def test_degenerate_single_p_has_no_fit(self, pair_manifest):
        result = run_ablation(
            pair_manifest, scales=[1.0], seed=0, extractor="oracle-prefix", n_kb=2, dimension=128
        )
        assert result.fit is None
