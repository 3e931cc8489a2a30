"""Scaling fits, the random-model comparison study, KB-downscale ablation,
and the replayable end-to-end experiment driver."""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import (
    AnnotatedSentence,
    Dataset,
    build_kb,
    downscale_kb,
    load_dataset,
)
from .encoder import EncoderConfig, triplet_to_string
from .evaluation import (
    EvalReport,
    context_hit_probability,
    micro_f1,
    sentence_f1,
)
from .extraction import (
    GenerationConfig,
    RemoteLLMClient,
    char_budget_for,
    exhaustive_random_f1,
    oracle_extract,
    random_extract,
    random_f1_closed_form,
    sentence_rng,
)
from .parsing import parse_triplets
from .prompting import PromptInstance, get_template, render
from .retriever import (
    RetrievedContext,
    empty_context,
    retrieve_contexts,
    retrieve_examples,
    retrieve_triplets,
)
from .vector_index import VectorIndex, build_index

EXPERIMENT_MODES = ("zero", "static2", "triplets", "examples")
EXTRACTORS = ("llm", "oracle-gold", "oracle-prefix", "random")

_MODE_TO_SHOT = {
    "zero": "zero",
    "static2": "static_two_shot",
    "triplets": "context_triplets",
    "examples": "examples",
}
_MODE_TO_INDEX_KIND = {"triplets": "triplet", "examples": "example"}


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float
    n_points: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def linear_fit(points: Sequence[tuple[float, float]]) -> FitResult:
    """Ordinary least squares line through (x, y) points.

    r2 = 1 - SS_res / SS_tot, clamped at 0 for worse-than-mean fits; a
    constant-y input has SS_tot = 0 and reports r2 = 0 under that clamping.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    if max(xs) == min(xs):
        raise ValueError("all x values are equal; slope is undefined")
    n = len(pts)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in pts)
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in pts)
    ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
    r2 = 0.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return FitResult(slope=slope, intercept=intercept, r2=r2, n_points=n)


def log_param_fit(points: Sequence[tuple[float, float]]) -> FitResult:
    """OLS of score against the natural log of the parameter count.

    Scores are fitted raw (no normalization is applied before fitting).
    """
    for n_par, _ in points:
        if n_par <= 0:
            raise ValueError("parameter counts must be positive")
    return linear_fit([(math.log(n_par), y) for n_par, y in points])


@dataclass(frozen=True)
class StudyRow:
    n_kb: int
    p: float
    monte_carlo_f1: float
    closed_form_f1: float
    exhaustive_f1: float | None

    @property
    def closed_form_deviation(self) -> float | None:
        if self.exhaustive_f1 is None:
            return None
        return self.closed_form_f1 - self.exhaustive_f1

    def to_dict(self) -> dict:
        return {
            "n_kb": self.n_kb,
            "p": self.p,
            "monte_carlo_f1": self.monte_carlo_f1,
            "closed_form_f1": self.closed_form_f1,
            "exhaustive_f1": self.exhaustive_f1,
            "closed_form_deviation": self.closed_form_deviation,
        }


def random_model_study(
    sentences: Sequence[AnnotatedSentence],
    index: VectorIndex,
    n_kb_values: Sequence[int],
    max_triplets: int,
    seed: int,
    trials: int,
    *,
    exhaustive_limit: int = 12,
) -> list[StudyRow]:
    """Random-baseline performance per N_KB: Monte Carlo estimate, the
    (P/N_KB)^n closed form evaluated with the measured P and per-sentence
    gold counts, and, when every context is small enough to enumerate, the
    exact expectation.

    All F1 numbers here are per-sentence F1 averaged over sentences (and
    trials), so the Monte Carlo column is an unbiased estimator of the
    exhaustive one. The closed form is an approximation; its deviation is
    reported, not asserted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if index.kind != "triplet":
        raise ValueError("the random model study runs on a triplet index")
    per_sentence = [retrieve_contexts(s.text, index, n_kb_values) for s in sentences]
    rows = []
    for j, n_kb in enumerate(n_kb_values):
        contexts = [sentence_contexts[j] for sentence_contexts in per_sentence]
        golds = [set(s.gold) for s in sentences]
        p = context_hit_probability(contexts, golds)
        mc_total = 0.0
        for i, (context, gold) in enumerate(zip(contexts, golds)):
            rng = sentence_rng(f"{seed}:{n_kb}", i)
            acc = 0.0
            for _ in range(trials):
                acc += sentence_f1(set(random_extract(context, max_triplets, rng)), gold)
            mc_total += acc / trials
        closed_total = math.fsum(
            random_f1_closed_form(p, n_kb, len(gold)) for gold in golds
        )
        if all(len(c.ranked_triplets()) <= exhaustive_limit for c in contexts):
            exhaustive: float | None = (
                math.fsum(
                    exhaustive_random_f1(c.ranked_triplets(), gold, max_triplets)
                    for c, gold in zip(contexts, golds)
                )
                / len(sentences)
            )
        else:
            exhaustive = None
        rows.append(
            StudyRow(
                n_kb=n_kb,
                p=p,
                monte_carlo_f1=mc_total / len(sentences),
                closed_form_f1=closed_total / len(golds),
                exhaustive_f1=exhaustive,
            )
        )
    return rows


@dataclass(frozen=True)
class ExperimentRunSpec:
    """Everything needed to replay a run byte-identically with pure extractors."""

    manifest: str
    mode: str
    extractor: str
    prompt_kind: str = "base"
    n_kb: int = 5
    scale: float = 1.0
    seed: int = 0
    split: str = "test"
    embed_mode: str = "sentence"
    dimension: int = 384
    ngram_range: tuple[int, int] = (3, 5)
    char_budget: int | None = None
    generation: GenerationConfig = field(default_factory=GenerationConfig)

    def __post_init__(self) -> None:
        if self.mode not in EXPERIMENT_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.extractor not in EXTRACTORS:
            raise ValueError(f"unknown extractor {self.extractor!r}")
        object.__setattr__(self, "ngram_range", tuple(self.ngram_range))

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            provider="hashed-ngram", dimension=self.dimension, ngram_range=self.ngram_range
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentRunSpec":
        data = dict(raw)
        generation = data.pop("generation", None)
        if generation is not None:
            data["generation"] = GenerationConfig(**generation)
        if "ngram_range" in data:
            data["ngram_range"] = tuple(data["ngram_range"])
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRunSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class SentenceRun:
    index: int
    sentence: AnnotatedSentence
    context: RetrievedContext
    prompt: PromptInstance
    raw_output: str
    predictions: tuple
    malformed_lines: int
    error: str | None


@dataclass
class ExperimentResult:
    spec: ExperimentRunSpec
    report: EvalReport
    runs: list[SentenceRun]

    @property
    def failures(self) -> int:
        return sum(1 for run in self.runs if run.error is not None)


def _build_contexts(
    spec: ExperimentRunSpec, dataset: Dataset, sentences: Sequence[AnnotatedSentence]
) -> list[RetrievedContext]:
    kind = _MODE_TO_INDEX_KIND.get(spec.mode)
    context_mode = "triplets" if kind != "example" else "examples"
    if kind is None:
        return [empty_context(context_mode) for _ in sentences]
    kb = build_kb(dataset.train, dataset.validation)
    if spec.scale < 1.0:
        kb = downscale_kb(kb, spec.scale, spec.seed)
    if not kb.examples:
        # a fully downscaled KB degenerates to the no-context setting
        return [empty_context(context_mode, spec.n_kb) for _ in sentences]
    index = build_index(kb, kind, spec.embed_mode, spec.encoder_config())
    retrieve = retrieve_triplets if kind == "triplet" else retrieve_examples
    return [retrieve(s.text, index, spec.n_kb) for s in sentences]


def _pure_extract_raw(
    spec: ExperimentRunSpec,
    index: int,
    sentence: AnnotatedSentence,
    context: RetrievedContext,
    max_triplets: int,
) -> str:
    if spec.extractor == "random":
        triplets = random_extract(context, max_triplets, sentence_rng(spec.seed, index))
    else:
        triplets = oracle_extract(spec.extractor, sentence, context, max_triplets)
    return "\n".join(triplet_to_string(t) for t in triplets)


def _generate_all(
    spec: ExperimentRunSpec,
    sentences: Sequence[AnnotatedSentence],
    contexts: Sequence[RetrievedContext],
    prompts: Sequence[PromptInstance],
    max_triplets: int,
    llm_client: RemoteLLMClient | None,
) -> list[tuple[str, str | None]]:
    """Raw output and error per sentence, ordered by sentence index.

    Remote generation runs concurrently up to the generation config's
    in-flight bound; failures are captured per sentence. Pure extractors run
    serially; their per-sentence seeds make scheduling irrelevant anyway.
    """
    if spec.extractor != "llm":
        return [
            (_pure_extract_raw(spec, i, s, c, max_triplets), None)
            for i, (s, c) in enumerate(zip(sentences, contexts))
        ]
    results: list[tuple[str, str | None]] = [("", None)] * len(sentences)
    with ThreadPoolExecutor(max_workers=spec.generation.in_flight) as pool:
        futures = {pool.submit(llm_client.generate, p): i for i, p in enumerate(prompts)}
        for future, i in futures.items():
            try:
                results[i] = (future.result(), None)
            except Exception as exc:
                results[i] = ("", str(exc))
    return results


def run_experiment(
    spec: ExperimentRunSpec,
    out_dir: str | Path | None = None,
    *,
    llm_client: RemoteLLMClient | None = None,
) -> ExperimentResult:
    """End-to-end run: retrieve, render, extract, parse, score.

    With a pure extractor the result is a deterministic function of the spec.
    Remote failures are recorded per sentence, scored as empty predictions,
    and flagged in the per-sentence log. When ``out_dir`` is given, writes
    ``report.json``, ``sentences.jsonl``, and ``spec.json`` for replay.
    """
    if spec.extractor == "llm" and llm_client is None:
        raise ValueError("extractor 'llm' requires a RemoteLLMClient")
    dataset = load_dataset(spec.manifest)
    sentences = dataset.split(spec.split)
    max_triplets = dataset.max_triplets
    template = get_template(spec.prompt_kind, _MODE_TO_SHOT[spec.mode])
    budget = spec.char_budget or char_budget_for(spec.generation.model)
    contexts = _build_contexts(spec, dataset, sentences)

    prompts = [
        render(template, sentence.text, max_triplets, context, budget)
        for sentence, context in zip(sentences, contexts)
    ]
    outputs = _generate_all(spec, sentences, contexts, prompts, max_triplets, llm_client)

    runs: list[SentenceRun] = []
    for index, (sentence, context, prompt, (raw, error)) in enumerate(
        zip(sentences, contexts, prompts, outputs)
    ):
        outcome = parse_triplets(raw, max_triplets) if raw else None
        runs.append(
            SentenceRun(
                index=index,
                sentence=sentence,
                context=context,
                prompt=prompt,
                raw_output=raw,
                predictions=outcome.triplets if outcome else (),
                malformed_lines=outcome.malformed_lines if outcome else 0,
                error=error,
            )
        )
    report = micro_f1([run.predictions for run in runs], [s.gold for s in sentences])
    result = ExperimentResult(spec=spec, report=report, runs=runs)
    if out_dir is not None:
        _write_artifacts(result, Path(out_dir))
    return result


def _sentence_log_line(run: SentenceRun) -> str:
    return json.dumps(
        {
            "id": run.index,
            "sentence": run.sentence.text,
            "gold": [list(t.as_tuple()) for t in run.sentence.gold],
            "context_items": run.context.n_returned,
            "prompt_chars": len(run.prompt.rendered),
            "prompt_truncated": run.prompt.truncated,
            "raw_output": run.raw_output,
            "pred": [list(t.as_tuple()) for t in run.predictions],
            "malformed_lines": run.malformed_lines,
            "error": run.error,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _write_artifacts(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(result.report.to_json() + "\n", encoding="utf-8")
    (out_dir / "spec.json").write_text(result.spec.to_json(), encoding="utf-8")
    lines = "\n".join(_sentence_log_line(run) for run in result.runs)
    (out_dir / "sentences.jsonl").write_text(lines + "\n", encoding="utf-8")


def replay_experiment(spec_path: str | Path, out_dir: str | Path | None = None) -> ExperimentResult:
    spec = ExperimentRunSpec.from_json(Path(spec_path).read_text(encoding="utf-8"))
    return run_experiment(spec, out_dir)


@dataclass(frozen=True)
class AblationPoint:
    scale: float
    p: float
    f1: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class AblationResult:
    points: tuple[AblationPoint, ...]
    fit: FitResult | None

    def to_dict(self) -> dict:
        return {
            "points": [point.to_dict() for point in self.points],
            "fit": self.fit.to_dict() if self.fit else None,
        }

    def to_points_csv(self) -> str:
        """(P_S, F1) pairs in the generic x,y shape the fit command reads."""
        lines = ["x,y"]
        lines.extend(f"{point.p:.10g},{point.f1:.10g}" for point in self.points)
        return "\n".join(lines) + "\n"


def fit_ablation(points: Sequence[tuple[float, float]]) -> FitResult:
    """Fit F1 against P_S(N_KB) pairs collected by the ablation driver."""
    return linear_fit(points)


def run_ablation(
    manifest: str | Path,
    scales: Sequence[float],
    seed: int,
    *,
    mode: str = "triplets",
    extractor: str = "random",
    n_kb: int = 5,
    prompt_kind: str = "base",
    dimension: int = 384,
    ngram_range: tuple[int, int] = (3, 5),
    embed_mode: str = "sentence",
    llm_client: RemoteLLMClient | None = None,
) -> AblationResult:
    """Run the extraction pipeline on the test split once per scale, with the
    KB downscaled to that scale (nested samples under one seed), and fit F1
    against P_S(N_KB).

    P_S is ``context_hit_probability`` over the contexts the run itself
    retrieved, so each scale builds its KB and index once. A scale whose KB
    is empty gives empty contexts and P_S = 0.
    """
    if mode not in ("triplets", "examples"):
        raise ValueError("ablation runs in a KB-augmented mode")
    spec = ExperimentRunSpec(
        manifest=str(manifest),
        mode=mode,
        extractor=extractor,
        prompt_kind=prompt_kind,
        n_kb=n_kb,
        seed=seed,
        embed_mode=embed_mode,
        dimension=dimension,
        ngram_range=ngram_range,
    )
    points = []
    for scale in scales:
        result = run_experiment(dataclasses.replace(spec, scale=scale), llm_client=llm_client)
        p = context_hit_probability(
            [run.context for run in result.runs], [run.sentence.gold for run in result.runs]
        )
        points.append(AblationPoint(scale=scale, p=p, f1=result.report.f1))
    xs = {point.p for point in points}
    fit = fit_ablation([(point.p, point.f1) for point in points]) if len(xs) >= 2 else None
    return AblationResult(points=tuple(points), fit=fit)
