"""Triplet generation drivers: the remote LLM client, deterministic oracle
extractors for end-to-end testing, and the random baseline with its
closed-form and exhaustive expectations."""

from __future__ import annotations

import itertools
import logging
import random
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ._transport import HTTPClient, RetryPolicy, Transport
from .corpus import AnnotatedSentence, Triplet
from .evaluation import sentence_f1
from .prompting import PromptInstance
from .retriever import RetrievedContext

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModelMeta:
    model_id: str
    n_par_billion: float
    context_window: int

    def __post_init__(self) -> None:
        if self.n_par_billion <= 0:
            raise ValueError("parameter count must be positive")


MODEL_CATALOG: dict[str, ModelMeta] = {
    meta.model_id: meta
    for meta in (
        ModelMeta("gpt2-base", 0.1, 1024),
        ModelMeta("gpt2-xl", 1.5, 1024),
        ModelMeta("falcon-7b", 7, 2048),
        ModelMeta("falcon-40b", 40, 2048),
        ModelMeta("llama-13b", 13, 2048),
        ModelMeta("llama-65b", 65, 2048),
        ModelMeta("gpt-3.5", 175, 4096),  # parameter count unofficial
        ModelMeta("gpt-4", 1760, 8192),  # parameter count unofficial
    )
}

_DEFAULT_CONTEXT_WINDOW = 4096
_CHARS_PER_TOKEN = 4


def char_budget_for(model_id: str | None, chars_per_token: int = _CHARS_PER_TOKEN) -> int:
    """Prompt character budget from the model's context window (4 chars/token
    heuristic); unknown models get a conservative default window."""
    meta = MODEL_CATALOG.get(model_id or "")
    window = meta.context_window if meta else _DEFAULT_CONTEXT_WINDOW
    return window * chars_per_token


@dataclass(frozen=True)
class GenerationConfig:
    model: str = "llama-65b"
    temperature: float = 0.1
    max_output_tokens: int = 512
    timeout: float = 60.0
    max_retries: int = 2
    in_flight: int = 4

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.in_flight < 1:
            raise ValueError("in_flight must be >= 1")


class RemoteLLMClient:
    """Chat-completions client.

    POSTs ``{base_url}/chat/completions`` with a single user message and
    reads the first choice's message content. The credential, headers,
    in-flight bound (``config.in_flight``) and retries with exponential
    backoff come from the shared ``HTTPClient`` core: ``api_key=None`` reads
    ``KGTE_API_KEY``, ``""`` sends no credential. Every call appends one entry
    to ``request_log``, with ``outcome`` "ok" or "error".
    """

    def __init__(
        self,
        base_url: str,
        config: GenerationConfig,
        api_key: str | None = None,
        transport: Transport | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        backoff_base: float = 0.25,
    ):
        self.base_url = base_url.rstrip("/")
        self.config = config
        self._http = HTTPClient(
            api_key=api_key,
            timeout=config.timeout,
            policy=RetryPolicy(max_retries=config.max_retries, backoff_base=backoff_base),
            in_flight=config.in_flight,
            transport=transport,
            sleeper=sleeper,
        )
        self.request_log: list[dict] = []
        self._log_lock = threading.Lock()

    def _log(self, entry: dict) -> None:
        with self._log_lock:
            self.request_log.append(entry)
        logger.debug("llm request %s: %s", entry.get("run_id"), entry.get("outcome"))

    def generate(self, prompt: PromptInstance | str) -> str:
        rendered = prompt.rendered if isinstance(prompt, PromptInstance) else prompt
        url = f"{self.base_url}/chat/completions"
        entry = {
            "run_id": uuid.uuid4().hex,
            "url": url,
            "model": self.config.model,
            "prompt_chars": len(rendered),
        }
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_output_tokens,
            "messages": [{"role": "user", "content": rendered}],
        }
        try:
            content = self._http.post(url, payload)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise ValueError("completion message content is not a string")
        except Exception as exc:
            self._log({**entry, "outcome": "error", "detail": str(exc)})
            raise
        self._log({**entry, "completion_chars": len(content), "outcome": "ok"})
        return content


def sentence_rng(master_seed: int | str, sentence_index: int) -> random.Random:
    """Independent per-sentence stream so parallel schedules cannot change
    results. String seeding is hash-stable across processes."""
    return random.Random(f"{master_seed}:{sentence_index}")


def random_extract(
    context: RetrievedContext, max_triplets: int, rng: random.Random
) -> list[Triplet]:
    """Random baseline: draw n uniformly from [1, max_triplets], then sample
    min(n, |context|) context triplets uniformly without replacement.

    An empty context yields an empty prediction.
    """
    if max_triplets < 1:
        raise ValueError("max_triplets must be >= 1")
    pool = context.ranked_triplets()
    if not pool:
        return []
    n = rng.randint(1, max_triplets)
    return rng.sample(pool, min(n, len(pool)))


def random_f1_closed_form(p: float, n_kb: int, n: int) -> float:
    """Empirical approximation (P / N_KB) ** n for the random baseline.

    This is a scaling relation, not an exact expectation; compare against
    ``exhaustive_random_f1`` to measure its error.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n_kb < 1 or n < 1:
        raise ValueError("n_kb and n must be >= 1")
    if p == 0.0:
        return 0.0
    return (p / n_kb) ** n


def exhaustive_random_f1(
    context_triplets: Sequence[Triplet],
    gold: Iterable[Triplet],
    max_triplets: int,
) -> float:
    """Exact expected per-sentence F1 of the random baseline, by enumerating
    every (n, subset) outcome. Cost grows as 2^|context|; keep contexts small
    (the study caps them at 12)."""
    if max_triplets < 1:
        raise ValueError("max_triplets must be >= 1")
    pool = list(context_triplets)
    gold_set = set(gold)
    if not pool:
        return 0.0
    total = 0.0
    for n in range(1, max_triplets + 1):
        k = min(n, len(pool))
        draws = 0
        acc = 0.0
        for subset in itertools.combinations(pool, k):
            acc += sentence_f1(set(subset), gold_set)
            draws += 1
        total += acc / draws
    return total / max_triplets


def oracle_extract(
    kind: str,
    sentence: AnnotatedSentence,
    context: RetrievedContext | None,
    max_triplets: int,
) -> list[Triplet]:
    """Deterministic extractors for pipeline checks, named as in
    ``analysis.EXTRACTORS``.

    ``"oracle-gold"`` returns the gold set (upper bound); ``"oracle-prefix"``
    returns the first min(max_triplets, |context|) context triplets, which has
    an exhaustively computable score.
    """
    if kind == "oracle-gold":
        return list(sentence.gold)
    if kind == "oracle-prefix":
        pool = context.ranked_triplets() if context is not None else []
        return pool[: min(max_triplets, len(pool))]
    raise ValueError(f"unknown oracle kind {kind!r}")
