"""Triplet generation: the remote LLM client (settings only; each request
is one DEBUG log record), deterministic oracle extractors for end-to-end
testing, and the random baseline with its (P/N_KB)^n scaling relation and
its exact expectation. ``EXTRACTORS`` is the one list of extractor names:
experiment specs, ``spec.json`` and the CLI use the same names.

Of each model, only its context window is kept (``CONTEXT_WINDOWS``), for the
prompt budget. Model size enters only the ``kgte fit --log-x`` fit, whose
parameter counts come from its own CSV."""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import _transport  # post_json looked up per call, so a wrapper set on the module sees every POST
from ._transport import APIError, HTTPClient, Transport, bearer_headers
from .corpus import AnnotatedSentence, Triplet, check_int, check_real
from .retriever import RetrievedContext

logger = logging.getLogger(__name__)


# context window in tokens, by model id
CONTEXT_WINDOWS: dict[str, int] = {
    "gpt2-base": 1024,
    "gpt2-xl": 1024,
    "falcon-7b": 2048,
    "falcon-40b": 2048,
    "llama-13b": 2048,
    "llama-65b": 2048,
    "gpt-3.5": 4096,
    "gpt-4": 8192,
}

_DEFAULT_CONTEXT_WINDOW = 4096
_CHARS_PER_TOKEN = 4


def _context_window(model_id: str) -> int:
    """The model's context window in tokens; unknown models get a conservative default."""
    return CONTEXT_WINDOWS.get(model_id, _DEFAULT_CONTEXT_WINDOW)


@dataclass(frozen=True)
class GenerationConfig:
    model: str = "llama-65b"
    temperature: float = 0.1
    max_output_tokens: int = 512
    timeout: float = 60.0
    max_retries: int = HTTPClient.max_retries
    in_flight: int = 4

    def __post_init__(self) -> None:
        if not isinstance(self.model, str) or not self.model:
            raise ValueError(f"model must be a non-empty string, got {self.model!r}")
        check_real("temperature", self.temperature, 0)
        check_int("max_output_tokens", self.max_output_tokens, 1)
        window = _context_window(self.model)
        if self.max_output_tokens >= window:
            raise ValueError(f"max_output_tokens {self.max_output_tokens} leaves no prompt room in the {window}-token context window of model {self.model!r}")
        check_real("timeout", self.timeout, 0, strict=True)
        check_int("max_retries", self.max_retries, 0)
        check_int("in_flight", self.in_flight, 1)


def char_budget_for(config: GenerationConfig) -> int:
    """Prompt character budget: the model's context window less the
    completion's ``max_output_tokens``, at 4 chars/token."""
    return (_context_window(config.model) - config.max_output_tokens) * _CHARS_PER_TOKEN


class RemoteLLMClient:
    """Chat-completions client.

    POSTs ``{base_url}/chat/completions`` with a single user message and
    reads the first choice's message content. Its one ``HTTPClient`` record
    holds the bearer headers (``api_key=None`` reads ``KGTE_API_KEY``, ``""``
    sends none), ``config``'s timeout and retries, and ``backoff_base``. The
    run's pool bounds requests in flight. Every call emits one DEBUG record on
    ``kgte.extraction`` whose ``request`` holds ``url``, ``model``,
    ``prompt_chars`` and ``outcome``: "ok" with ``completion_chars``, or
    "error" with ``detail``.
    """

    def __init__(
        self,
        base_url: str,
        config: GenerationConfig,
        api_key: str | None = None,
        transport: Transport | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        backoff_base: float = HTTPClient.backoff_base,
    ):
        self.base_url = base_url.rstrip("/")
        self.config = config
        self._http = HTTPClient(
            bearer_headers(api_key), transport=transport, sleeper=sleeper,
            timeout=config.timeout, max_retries=config.max_retries, backoff_base=backoff_base,
        )

    def generate(self, prompt: str) -> str:
        url = f"{self.base_url}/chat/completions"
        entry = {"url": url, "model": self.config.model, "prompt_chars": len(prompt)}
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_output_tokens,
            "messages": [{"role": "user", "content": prompt}],
        }
        try:
            content = _completion_content(_transport.post_json(self._http, url, payload))
        except Exception as exc:
            logger.debug("llm request failed: %s", exc, extra={"request": {**entry, "outcome": "error", "detail": str(exc)}})
            raise
        logger.debug("llm request ok", extra={"request": {**entry, "completion_chars": len(content), "outcome": "ok"}})
        return content


def _completion_content(doc: dict) -> str:
    """``choices[0].message.content`` of a chat-completions body; ``APIError``
    names the first field that is missing or of the wrong type."""
    choices = doc.get("choices")
    if not isinstance(choices, list) or not choices:
        raise APIError(f"completion body field 'choices' is not a non-empty list: {choices!r}")
    message = choices[0].get("message") if isinstance(choices[0], dict) else None
    if not isinstance(message, dict):
        raise APIError(f"completion body field 'choices[0].message' is not an object: {choices[0]!r}")
    content = message.get("content")
    if not isinstance(content, str):
        raise APIError(f"completion body field 'choices[0].message.content' is not a string: {content!r}")
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
    check_int("max_triplets", max_triplets, 1)
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
    check_real("p", p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    check_int("n_kb", n_kb, 1)
    check_int("n", n, 1)
    if p == 0.0:
        return 0.0
    return (p / n_kb) ** n


def exhaustive_random_f1(
    triplets: Sequence[Triplet],
    gold: Iterable[Triplet],
    max_triplets: int,
) -> float:
    """Exact expected per-sentence F1 of the random baseline over its context
    ``triplets``, which must be distinct.

    With c context triplets, h of them gold, and G gold triplets in all, a
    draw of k = min(n, c) triplets has F1 = 2*tp/(k + G), and tp is
    hypergeometric with mean k*h/c, so E[F1 | n] = 2*k*h/(c*(k + G)); n is
    uniform on [1, max_triplets]. Exact at every context size."""
    check_int("max_triplets", max_triplets, 1)
    pool = set(triplets)
    if len(pool) != len(triplets):
        raise ValueError("the random baseline draws from distinct triplets; the context repeats one")
    if not pool:
        return 0.0
    gold_set = set(gold)
    c, h, g = len(pool), len(pool & gold_set), len(gold_set)
    total = 0.0
    for n in range(1, max_triplets + 1):
        k = min(n, c)
        total += 2 * k * h / (c * (k + g))
    return total / max_triplets


_PURE_EXTRACTORS: dict[str, Callable[[AnnotatedSentence, RetrievedContext, int, random.Random], list[Triplet]]] = {
    "oracle-gold": lambda sentence, context, max_triplets, rng: list(sentence.gold),
    "oracle-prefix": lambda sentence, context, max_triplets, rng: context.ranked_triplets()[:max_triplets],
    "random": lambda sentence, context, max_triplets, rng: random_extract(context, max_triplets, rng),
}
# every extractor name: the remote generator, then the pure extractors
EXTRACTORS = ("llm", *_PURE_EXTRACTORS)


def pure_extract(
    name: str,
    sentence: AnnotatedSentence,
    context: RetrievedContext,
    max_triplets: int,
    rng: random.Random,
) -> list[Triplet]:
    """The triplets the pure extractor ``name`` picks for ``sentence``.

    ``oracle-gold`` returns the gold set (upper bound); ``oracle-prefix``
    returns the first min(max_triplets, |context|) context triplets, which has
    a directly computable score; ``random`` is ``random_extract`` drawing from
    ``rng``. ``max_triplets`` must be an int of at least 1.
    """
    if name not in _PURE_EXTRACTORS:
        raise ValueError(f"unknown extractor {name!r}")
    check_int("max_triplets", max_triplets, 1)
    return _PURE_EXTRACTORS[name](sentence, context, max_triplets, rng)
