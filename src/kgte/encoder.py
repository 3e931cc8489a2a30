"""Text embedding providers and cosine similarity.

Embeddings are plain float64 numpy arrays, L2-normalized at encode time so
top-k by dot product equals top-k by cosine. The default provider hashes
character n-grams into a fixed-dimension vector: deterministic across
processes and machines, dependency-free, good enough for retrieval at desk
scale. Transformer-grade encoders plug in through ``ExternalEncoderClient``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ._transport import HTTPClient, RetryPolicy, Transport
from .corpus import Triplet, normalize_surface

PROVIDERS = ("hashed-ngram", "external")

_HASH_PERSON = b"kgte.ngram.v1"


class EncodeError(ValueError):
    """Text cannot be embedded (empty, or too short for the n-gram range)."""


@dataclass(frozen=True)
class EncoderConfig:
    provider: str = "hashed-ngram"
    dimension: int = 384
    ngram_range: tuple[int, int] = (3, 5)
    endpoint: str | None = None
    model: str | None = None

    def __post_init__(self) -> None:
        if self.provider not in PROVIDERS:
            raise ValueError(f"unknown provider {self.provider!r}")
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "ngram_range", tuple(self.ngram_range))
        lo, hi = self.ngram_range
        if not (1 <= lo <= hi):
            raise ValueError(f"invalid ngram_range {self.ngram_range}")
        if self.provider == "external" and not (self.endpoint and self.model):
            raise ValueError("external provider requires endpoint and model")

    @property
    def fingerprint(self) -> str:
        if self.provider == "hashed-ngram":
            lo, hi = self.ngram_range
            return f"hashed-ngram:dim={self.dimension}:ngrams={lo}-{hi}"
        return f"external:model={self.model}:dim={self.dimension}"


def triplet_to_string(triplet: Triplet) -> str:
    """Render a triplet as the "(subject, predicate, object)" string used for
    embedding, prompting, and generator output."""
    return f"({triplet.subject}, {triplet.predicate}, {triplet.object})"


@lru_cache(maxsize=1 << 20)
def _ngram_slot(gram: str, dimension: int) -> int:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, person=_HASH_PERSON).digest()
    return int.from_bytes(digest, "big") % dimension


def _unit(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise EncodeError("cannot normalize a zero vector")
    return vector / norm


def encode(text: str, config: EncoderConfig, *, client: "ExternalEncoderClient | None" = None) -> np.ndarray:
    """Embed ``text`` as a unit-norm float64 vector of ``config.dimension``.

    Deterministic for a fixed (text, config). The hashed n-gram provider
    lowercases the text, hashes every character n-gram in the configured
    range with a constant-seeded blake2b, accumulates counts modulo the
    dimension, and L2-normalizes.
    """
    if not normalize_surface(text):
        raise EncodeError("cannot encode text that is empty after normalization")
    if config.provider == "external":
        return (client or _external_client(config)).encode_batch([text])[0]
    lowered = text.lower()
    lo, hi = config.ngram_range
    slots = [
        _ngram_slot(lowered[i : i + n], config.dimension)
        for n in range(lo, hi + 1)
        for i in range(len(lowered) - n + 1)
    ]
    if not slots:
        raise EncodeError(f"text shorter than the minimum n-gram size {lo}")
    counts = np.bincount(slots, minlength=config.dimension).astype(np.float64)
    return _unit(counts)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two equal-dimension vectors (cosine for unit vectors)."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


@dataclass
class ExternalEncoderClient:
    """Client for an HTTP embeddings endpoint.

    Wire shape: POST ``endpoint`` with {"model": ..., "input": [text, ...]},
    expecting {"data": [{"embedding": [...]}, ...]} in input order. The
    credential, headers, in-flight bound and retries per ``policy`` come from
    the shared ``HTTPClient`` core.
    """

    config: EncoderConfig
    api_key: str | None = None
    timeout: float = 30.0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    in_flight: int = 4
    transport: Transport | None = None
    sleeper: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.config.provider != "external":
            raise ValueError("ExternalEncoderClient requires an external-provider config")
        self._http = HTTPClient(
            api_key=self.api_key,
            timeout=self.timeout,
            policy=self.policy,
            in_flight=self.in_flight,
            transport=self.transport,
            sleeper=self.sleeper,
        )

    def encode_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            return []
        for text in texts:
            if not normalize_surface(text):
                raise EncodeError("cannot encode text that is empty after normalization")
        doc = self._http.post(self.config.endpoint, {"model": self.config.model, "input": list(texts)})
        data = doc.get("data")
        if not isinstance(data, list) or len(data) != len(texts):
            raise ValueError(f"embeddings endpoint returned {0 if not isinstance(data, list) else len(data)} items for {len(texts)} inputs")
        vectors = []
        for entry in data:
            values = np.asarray(entry["embedding"], dtype=np.float64)
            if values.shape != (self.config.dimension,):
                raise ValueError(
                    f"embedding dimension {values.shape} does not match configured {self.config.dimension}"
                )
            vectors.append(_unit(values))
        return vectors


_CLIENT_CACHE: dict[EncoderConfig, ExternalEncoderClient] = {}


def _external_client(config: EncoderConfig) -> ExternalEncoderClient:
    client = _CLIENT_CACHE.get(config)
    if client is None:
        client = _CLIENT_CACHE[config] = ExternalEncoderClient(config)
    return client
