"""Deterministic stand-in for a chat-completions endpoint.

The reply to a prompt is a pure function of it: the gold triplets of the
sentence the prompt asks about, one per line, plus one line that is not a
triplet. A hash of the sentence picks its fate: a fixed share of sentences
is refused for good with status 400, another share gets one transient 503
and then succeeds. Every count the client should report is therefore known
before the run (see ``expected_outcome``).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping

# fate buckets, out of 1000 by hash of the sentence text
PERMANENT_PER_MILLE = 30
TRANSIENT_PER_MILLE = 100
MALFORMED_LINE = "No further triplets are stated."

Gold = tuple[tuple[str, str, str], ...]


def fate(sentence: str) -> str:
    bucket = int.from_bytes(hashlib.blake2b(sentence.encode("utf-8"), digest_size=8).digest(), "big") % 1000
    if bucket < PERMANENT_PER_MILLE:
        return "permanent"
    if bucket < PERMANENT_PER_MILLE + TRANSIENT_PER_MILLE:
        return "transient"
    return "ok"


def sentence_of(prompt: str) -> str:
    """The sentence a rendered prompt asks about: the text after its last
    ``Sentence:`` label, up to the ``Triplets:`` line that follows it."""
    _, found, tail = prompt.rpartition("\nSentence: ")
    if not found:
        raise ValueError("prompt has no 'Sentence:' line")
    return tail.rsplit("\nTriplets:", 1)[0]


def reply_content(gold: Gold) -> str:
    return "\n".join(f"({s}, {p}, {o})" for s, p, o in gold) + "\n" + MALFORMED_LINE


class FakeChatTransport:
    """A ``kgte`` transport ``(url, payload, headers, timeout) -> (status, body)``
    that answers after a fixed latency. ``on_call`` runs at the start of
    every attempt, on the calling thread."""

    def __init__(
        self,
        gold_by_sentence: Mapping[str, Gold],
        latency_s: float,
        on_call: Callable[[], None] | None = None,
    ):
        self._gold = gold_by_sentence
        self._latency_s = latency_s
        self._on_call = on_call
        self._lock = threading.Lock()
        self._attempts: Counter[str] = Counter()

    @property
    def attempts(self) -> int:
        with self._lock:
            return sum(self._attempts.values())

    def __call__(self, url: str, payload: dict, headers: Mapping[str, str], timeout: float) -> tuple[int, str]:
        if self._on_call is not None:
            self._on_call()
        sentence = sentence_of(payload["messages"][-1]["content"])
        with self._lock:
            attempt = self._attempts[sentence]
            self._attempts[sentence] += 1
        time.sleep(self._latency_s)
        kind = fate(sentence)
        if kind == "permanent":
            return 400, json.dumps({"error": {"message": "request refused"}})
        if kind == "transient" and attempt == 0:
            return 503, json.dumps({"error": {"message": "overloaded, retry"}})
        content = reply_content(self._gold[sentence])
        return 200, json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})


class CountingSleeper:
    """Sleeper for the client's backoff: sleeps as asked, counts the calls
    and the time spent."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, delay: float) -> None:
        start = time.perf_counter()
        time.sleep(delay)
        with self._lock:
            self.calls += 1
            self.seconds += time.perf_counter() - start


@dataclass(frozen=True)
class ExpectedOutcome:
    sentences: int
    failures: int
    retries: int
    attempts: int
    malformed_lines: int
    tp: int
    n_gold: int

    @property
    def error_rate(self) -> float:
        return self.failures / self.sentences

    @property
    def f1(self) -> float:
        # every answered sentence predicts exactly its gold set
        return 2 * self.tp / (self.tp + self.n_gold)


def expected_outcome(golds: Mapping[str, Gold]) -> ExpectedOutcome:
    """What a run over these sentences must report, given at most one retry
    is needed and the client retries at least once."""
    fates = {sentence: fate(sentence) for sentence in golds}
    answered = [s for s, kind in fates.items() if kind != "permanent"]
    retries = sum(1 for kind in fates.values() if kind == "transient")
    return ExpectedOutcome(
        sentences=len(golds),
        failures=len(golds) - len(answered),
        retries=retries,
        attempts=len(golds) + retries,
        malformed_lines=len(answered),
        tp=sum(len(golds[s]) for s in answered),
        n_gold=sum(len(g) for g in golds.values()),
    )
