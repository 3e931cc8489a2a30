"""Scaling fits, the random-model comparison study, KB-downscale ablation,
and the replayable end-to-end experiment driver."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .corpus import (
    SPLIT_NAMES,
    AnnotatedSentence,
    Dataset,
    KnowledgeBase,
    build_kb,
    check_int,
    check_scale,
    downscale_kb,
    load_dataset,
    triplet_to_json,
)
from .encoder import EncoderConfig
from .evaluation import (
    EvalReport,
    check_n_kb_values,
    context_hit_probability,
    micro_f1,
    sentence_f1,
)
from .extraction import (
    EXTRACTORS,
    GenerationConfig,
    RemoteLLMClient,
    char_budget_for,
    exhaustive_random_f1,
    pure_extract,
    random_extract,
    random_f1_closed_form,
    sentence_rng,
)
from .parsing import parse_triplets, triplet_to_string
from .prompting import PromptBudgetError, PromptInstance, PromptTemplate, render
from .retriever import CONTEXT_INDEX_KINDS, CONTEXT_MODES, RetrievedContext, check_n_kb, retrieve_contexts
from .vector_index import VectorIndex, _select_rows, build_index, check_embed_mode


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float
    n_points: int


def linear_fit(points: Iterable[tuple[float, float]]) -> FitResult:
    """Ordinary least squares line through (x, y) points.

    r2 = 1 - SS_res / SS_tot, clamped at 0 for worse-than-mean fits; a
    constant-y input has SS_tot = 0 and reports r2 = 0 under that clamping.
    Finite points whose sums overflow a float raise ``ValueError``, and so do
    distinct x values whose squared deviations all underflow to 0.
    """
    pts = [(float(x), float(y)) for x, y in points]
    for position, point in enumerate(pts):
        if not all(map(math.isfinite, point)):
            raise ValueError(f"point {position} {point} is not finite")
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    if max(xs) == min(xs):
        raise ValueError("all x values are equal; slope is undefined")
    n = len(pts)
    try:
        x_mean = math.fsum(xs) / n
        y_mean = math.fsum(ys) / n
        sxx = math.fsum((x - x_mean) ** 2 for x in xs)
        sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in pts)
        slope = sxy / sxx
        intercept = y_mean - slope * x_mean
        ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in pts)
        ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
        if not all(map(math.isfinite, (slope, intercept, ss_res, ss_tot))):
            raise OverflowError  # a deviation overflowed to inf without raising
    except (OverflowError, ValueError):  # ValueError: fsum adding inf to -inf
        raise ValueError("the points are too large to fit: their least-squares sums overflow a float") from None
    except ZeroDivisionError:  # sxx: every squared x deviation underflowed
        raise ValueError("the x values are too close to fit a slope: their squared deviations underflow to 0") from None
    r2 = 0.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return FitResult(slope=slope, intercept=intercept, r2=r2, n_points=n)


def log_param_fit(points: Iterable[tuple[float, float]]) -> FitResult:
    """OLS of score against the natural log of the parameter count.

    Scores are fitted raw (no normalization is applied before fitting).
    """
    points = list(points)  # read once: a generator fits as a list does
    for position, (n_par, _) in enumerate(points):
        if not n_par > 0:  # NaN too
            raise ValueError(f"point {position}: parameter count must be positive, got {n_par}")
    return linear_fit([(math.log(n_par), y) for n_par, y in points])


@dataclass(frozen=True)
class StudyRow:
    n_kb: int
    p: float
    monte_carlo_f1: float
    closed_form_f1: float
    exhaustive_f1: float

    @property
    def closed_form_deviation(self) -> float:
        return self.closed_form_f1 - self.exhaustive_f1

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "closed_form_deviation": self.closed_form_deviation}


def random_model_study(
    sentences: Sequence[AnnotatedSentence],
    index: VectorIndex,
    n_kb_values: Sequence[int],
    max_triplets: int,
    seed: int,
    trials: int,
) -> list[StudyRow]:
    """Random-baseline performance per N_KB: Monte Carlo estimate, the
    (P/N_KB)^n closed form evaluated with the measured P and per-sentence
    gold counts, and the exact expectation.

    All F1 numbers here are per-sentence F1 averaged over sentences (and
    trials), so the Monte Carlo column is an unbiased estimator of the
    exact one. The closed form is an approximation; its deviation is
    reported, not asserted. ``n_kb_values`` must be a non-empty, strictly
    increasing list of N_KB values, as for ``sweep_context_quality``.
    """
    n_kb_values = check_n_kb_values(n_kb_values)
    check_int("trials", trials, 1)
    check_int("seed", seed)
    if index.kind != "triplet":
        raise ValueError("the random model study runs on a triplet index")
    golds = [set(s.gold) for s in sentences]
    columns = retrieve_contexts([s.text for s in sentences], index, n_kb_values)
    rows = []
    for n_kb, contexts in zip(n_kb_values, columns):
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
        exact_total = math.fsum(
            exhaustive_random_f1(c.ranked_triplets(), gold, max_triplets)
            for c, gold in zip(contexts, golds)
        )
        rows.append(
            StudyRow(
                n_kb=n_kb,
                p=p,
                monte_carlo_f1=mc_total / len(sentences),
                closed_form_f1=closed_total / len(golds),
                exhaustive_f1=exact_total / len(sentences),
            )
        )
    return rows


@dataclass(frozen=True)
class ExperimentRunSpec:
    """Everything needed to replay a run byte-identically with pure extractors, the index's encoder included."""

    manifest: str
    mode: str
    extractor: str
    prompt_kind: str = "base"
    n_kb: int = 5
    scale: float = 1.0
    seed: int = 0
    split: str = "test"
    embed_mode: str = "sentence"
    encoder: EncoderConfig = EncoderConfig()
    char_budget: int | None = None
    generation: GenerationConfig = field(default_factory=GenerationConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.manifest, str) or not self.manifest:
            raise ValueError(f"manifest must be a non-empty string, got {self.manifest!r}")
        for name, config_type in (("encoder", EncoderConfig), ("generation", GenerationConfig)):
            if not isinstance(getattr(self, name), config_type):
                raise ValueError(f"{name} must be of type {config_type.__name__}, got {getattr(self, name)!r}")
        PromptTemplate(self.prompt_kind, self.mode)  # rejects an unknown prompt kind or mode
        if self.extractor not in EXTRACTORS:
            raise ValueError(f"unknown extractor {self.extractor!r}")
        if self.split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {self.split!r}")
        check_embed_mode(CONTEXT_INDEX_KINDS.get(self.mode), self.embed_mode)
        check_n_kb(self.n_kb)
        check_scale(self.scale)
        check_int("seed", self.seed)
        if self.char_budget is not None:
            check_int("char_budget", self.char_budget, 1)
        if self.mode not in CONTEXT_INDEX_KINDS:  # builds no index, so these would have no effect
            for name in ("n_kb", "scale", "encoder"):
                if getattr(self, name) != getattr(ExperimentRunSpec, name):
                    raise ValueError(f"{name} {getattr(self, name)!r} needs a retrieval mode, not {self.mode!r}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRunSpec":
        """The spec ``to_json`` wrote, a JSON object. A missing or null ``generation`` is the default
        config, and a missing or null ``encoder`` the hashed n-gram config of the top-level
        ``dimension`` and ``ngram_range`` that specs held before the field existed."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a run spec is a JSON object, not {type(data).__name__}")
        generation = data.pop("generation", None)
        if generation is not None:
            data["generation"] = GenerationConfig(**generation)
        encoder = data.pop("encoder", None)
        if encoder is None:
            encoder = {name: data.pop(name) for name in ("dimension", "ngram_range") if name in data}
        return cls(**data, encoder=EncoderConfig(**encoder))


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


def index_dataset(
    dataset: Dataset, kind: str, scale: float, seed: int, example_embed_mode: str, config: EncoderConfig | None
) -> VectorIndex | None:
    """Index the dataset's KB downscaled to ``scale`` (in [0, 1], NaN rejected)
    under ``seed``; ``None`` when the retained KB is empty, before anything
    is built.

    Every other index comes from ``build_index`` of the full KB: when every
    example is retained, the downscaled KB is the full KB itself and its
    index is that index; otherwise it is a selection of its rows
    (``dataclasses.replace`` of that index), those of the retained KB's
    payloads in downscaled order, which shares its matrix and copies no
    row. So a downscaled index costs the full KB's build.
    """
    full_kb = build_kb(dataset.train, dataset.validation)
    return _scaled_index(full_kb, scale, seed, lambda: build_index(full_kb, kind, example_embed_mode, config))


def _scaled_index(full_kb: KnowledgeBase, scale: float, seed: int, full_index: Callable[[], VectorIndex]) -> VectorIndex | None:
    """``index_dataset`` of ``full_kb``, whose index ``full_index()`` returns:
    that index itself when the downscaled KB is ``full_kb``."""
    kb = downscale_kb(full_kb, scale, seed)
    if not kb.examples:
        return None
    index = full_index()
    if kb is full_kb:
        return index
    row_of = {payload: row for row, payload in enumerate(index.payloads)}
    return _select_rows(index, [row_of[payload] for payload in (kb.triplets if index.kind == "triplet" else kb.examples)])


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
    in-flight bound; each worker turns its request's failure into the
    sentence's error, so no traceback holds this frame and its futures. Pure
    extractors run serially; their per-sentence seeds make scheduling moot.
    """
    if spec.extractor != "llm":
        picks = (
            pure_extract(spec.extractor, s, c, max_triplets, sentence_rng(spec.seed, i))
            for i, (s, c) in enumerate(zip(sentences, contexts))
        )
        return [("\n".join(map(triplet_to_string, triplets)), None) for triplets in picks]

    def attempt(prompt: PromptInstance) -> tuple[str, str | None]:
        try:
            return llm_client.generate(prompt.rendered), None
        except Exception as exc:
            return "", str(exc)

    with ThreadPoolExecutor(max_workers=spec.generation.in_flight) as pool:
        return list(pool.map(attempt, prompts))


def run_experiment(
    spec: ExperimentRunSpec,
    out_dir: str | Path | None = None,
    *,
    llm_client: RemoteLLMClient | None = None,
) -> ExperimentResult:
    """End-to-end run: load the dataset, retrieve, render, extract, parse, score.

    With a pure extractor the result is a deterministic function of the spec.
    Remote failures are recorded per sentence, scored as empty predictions,
    and flagged in the per-sentence log. When ``out_dir`` is given, writes
    ``report.json``, ``sentences.jsonl``, and ``spec.json`` for replay.
    """
    _check_llm_client(spec, llm_client)
    dataset = load_dataset(spec.manifest)
    kind = CONTEXT_INDEX_KINDS.get(spec.mode)
    index = None if kind is None else index_dataset(dataset, kind, spec.scale, spec.seed, spec.embed_mode, spec.encoder)
    result = _run_on(spec, dataset, index, llm_client)
    if out_dir is not None:
        _write_artifacts(result, Path(out_dir))
    return result


def _check_llm_client(spec: ExperimentRunSpec, llm_client: RemoteLLMClient | None) -> None:
    """A client exactly with the ``llm`` extractor, sending the spec's generation
    config: the spec sets the budget, pool size and spec.json, the client what is sent."""
    if spec.extractor != "llm":
        if llm_client is not None:
            raise ValueError(f"extractor {spec.extractor!r} would ignore the llm_client; pass one only with 'llm'")
    elif llm_client is None:
        raise ValueError("extractor 'llm' requires a RemoteLLMClient")
    elif llm_client.config != spec.generation:
        raise ValueError(f"the llm_client's generation config {llm_client.config} differs from the spec's {spec.generation}")


def _run_on(
    spec: ExperimentRunSpec, dataset: Dataset, index: VectorIndex | None, llm_client: RemoteLLMClient | None
) -> ExperimentResult:
    """``run_experiment`` on a loaded dataset and the run's index (``None``
    without retrieval or with an empty retained KB), writing nothing."""
    sentences = dataset.split(spec.split)
    max_triplets = dataset.max_triplets
    template = PromptTemplate(spec.prompt_kind, spec.mode)
    budget = char_budget_for(spec.generation) if spec.char_budget is None else spec.char_budget
    if index is not None:
        contexts = retrieve_contexts([s.text for s in sentences], index, [spec.n_kb])[0]
    elif spec.mode in CONTEXT_MODES:  # a fully downscaled KB degenerates to the no-context setting
        contexts = [RetrievedContext(spec.mode, (), spec.n_kb)] * len(sentences)
    else:
        contexts = [RetrievedContext("triplets", (), 0)] * len(sentences)

    prompts = []
    for position, (sentence, context) in enumerate(zip(sentences, contexts)):
        try:
            prompts.append(render(template, sentence.text, max_triplets, context, budget))
        except PromptBudgetError as exc:
            raise PromptBudgetError(f"{spec.split} sentence {position}: {exc}") from None
    # one context per sentence, the items its prompt holds: the extractors, the sentence log and P read it
    contexts = [dataclasses.replace(c, items=c.items[: p.context_items_included]) if p.truncated else c
                for c, p in zip(contexts, prompts)]
    outputs = _generate_all(spec, sentences, contexts, prompts, max_triplets, llm_client)

    runs: list[SentenceRun] = []
    for position, (sentence, context, prompt, (raw, error)) in enumerate(
        zip(sentences, contexts, prompts, outputs)
    ):
        outcome = parse_triplets(raw, max_triplets)
        runs.append(
            SentenceRun(
                index=position,
                sentence=sentence,
                context=context,
                prompt=prompt,
                raw_output=raw,
                predictions=outcome.triplets,
                malformed_lines=outcome.malformed_lines,
                error=error,
            )
        )
    report = micro_f1([run.predictions for run in runs], [s.gold for s in sentences])
    return ExperimentResult(spec=spec, report=report, runs=runs)


def _sentence_log_line(run: SentenceRun) -> str:
    return json.dumps(
        {
            "id": run.index,
            "sentence": run.sentence.text,
            "gold": list(map(triplet_to_json, run.sentence.gold)),
            "context_items": run.context.n_returned,
            "prompt_chars": len(run.prompt.rendered),
            "prompt_truncated": run.prompt.truncated,
            "raw_output": run.raw_output,
            "pred": list(map(triplet_to_json, run.predictions)),
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
    """Run the spec saved at ``spec_path`` again; a spec file that does not
    describe a valid run raises ``ValueError`` naming the file."""
    try:
        spec = ExperimentRunSpec.from_json(Path(spec_path).read_text(encoding="utf-8"))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{spec_path}: not a valid run spec: {exc}") from exc
    return run_experiment(spec, out_dir)


@dataclass(frozen=True)
class AblationPoint:
    scale: float
    p: float
    f1: float


@dataclass(frozen=True)
class AblationResult:
    points: tuple[AblationPoint, ...]
    fit: FitResult | None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_points_csv(self) -> str:
        """(P_S, F1) pairs in the generic x,y shape the fit command reads."""
        lines = ["x,y"]
        lines.extend(f"{point.p:.10g},{point.f1:.10g}" for point in self.points)
        return "\n".join(lines) + "\n"


def _ablation_point(
    spec: ExperimentRunSpec, dataset: Dataset, index: VectorIndex | None, llm_client: RemoteLLMClient | None
) -> AblationPoint:
    """One scale's point; the run, its contexts and a selection index die when this returns."""
    result = _run_on(spec, dataset, index, llm_client)
    p = context_hit_probability([run.context for run in result.runs], [run.sentence.gold for run in result.runs])
    return AblationPoint(scale=spec.scale, p=p, f1=result.report.f1)


def run_ablation(
    manifest: str | Path,
    scales: Sequence[float],
    seed: int,
    *,
    mode: str = "triplets",
    extractor: str = "random",
    n_kb: int = ExperimentRunSpec.n_kb,
    prompt_kind: str = ExperimentRunSpec.prompt_kind,
    encoder: EncoderConfig = ExperimentRunSpec.encoder,
    embed_mode: str = ExperimentRunSpec.embed_mode,
    llm_client: RemoteLLMClient | None = None,
) -> AblationResult:
    """Run the extraction pipeline on the test split once per scale, with the
    KB downscaled to that scale (nested samples under one seed), and fit F1
    against P_S(N_KB).

    P_S is ``context_hit_probability`` over the contexts the run's prompts
    held. The dataset comes from one ``load_dataset`` call, which returns a
    dataset the caller still holds if its splits equal the ones parsed. The
    full KB's index is built once, at the first scale that retains an
    example, and every scale's index is that index or a selection of its
    rows (as from ``index_dataset``). So the KB is encoded at most once, and
    not at all when no scale retains an example. A scale whose KB is empty
    gives empty contexts and P_S = 0. The runs' generation config is
    ``llm_client``'s, when one is given.
    """
    if mode not in CONTEXT_MODES:
        raise ValueError("ablation runs in a KB-augmented mode")
    spec = ExperimentRunSpec(
        manifest=str(manifest),
        mode=mode,
        extractor=extractor,
        prompt_kind=prompt_kind,
        n_kb=n_kb,
        seed=seed,
        embed_mode=embed_mode,
        encoder=encoder,
        generation=llm_client.config if llm_client is not None else GenerationConfig(),
    )
    _check_llm_client(spec, llm_client)
    specs = [dataclasses.replace(spec, scale=scale) for scale in scales]  # every scale checked before the load
    if not specs:
        raise ValueError("no scales to run")
    dataset = load_dataset(spec.manifest)
    full_kb = build_kb(dataset.train, dataset.validation)
    full_index = functools.cache(lambda: build_index(full_kb, CONTEXT_INDEX_KINDS[mode], embed_mode, encoder))
    points = [_ablation_point(s, dataset, _scaled_index(full_kb, s.scale, seed, full_index), llm_client) for s in specs]
    xs = {point.p for point in points}
    fit = linear_fit([(point.p, point.f1) for point in points]) if len(xs) >= 2 else None
    return AblationResult(points=tuple(points), fit=fit)
