"""Text embedding providers.

Each provider has one implementation, in the row generator
``_encoded_rows``: it yields the embedding of each text in order, a float64
vector L2-normalized so top-k by dot product equals top-k by cosine, and
makes the rows a block of 32 texts at a time. ``encode_texts``, the entry
point for index builds, fills one matrix from it. Retrieval consumes it
directly and holds one block of query rows at a time (96 KiB at 384
dimensions), never a split-sized matrix: 14.6 MiB for 5,000 sentences at
384 dimensions. The default provider hashes character n-grams (``encode``
is its one-text reference): deterministic across machines and
dependency-free. Transformer-grade encoders plug in through the external
provider, which posts blocks of texts to an endpoint.

numpy is imported inside the functions that build arrays (``encode``,
``encode_texts``, ``_embed_block``), not at module level: ``import kgte``
then loads no numpy, and a run that embeds nothing (zero-shot and static
2-shot extraction, ``ingest``, ``eval``, ``fit``) never pays its import time
and memory.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

from . import _transport  # post_json looked up per call, so a wrapper set on the module sees every POST
from ._transport import APIError, HTTPClient, bearer_headers
from .corpus import check_int, normalize_surface

if TYPE_CHECKING:
    import numpy as np

PROVIDERS = ("hashed-ngram", "external")

_HASH_PERSON = b"kgte.ngram.v1"
# texts per embeddings POST: text-embeddings-inference's default input cap
EXTERNAL_BLOCK = 32
# texts the hashed provider encodes before yielding their rows. Encoding
# each row between two of a retrieval's top_k scans, one by one, made the
# webnlg-shape bench's extraction, study and ablation jobs 13-19% slower
# than encoding the split first; in blocks of 32 they took 0-9% longer
# (medians of 10 runs, 2-vCPU Xeon VM, 2-thread OpenBLAS, whose idle worker
# spins while Python encodes).
_HASHED_BLOCK = 32


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
        check_int("dimension", self.dimension, 1)
        try:
            lo, hi = self.ngram_range
        except (TypeError, ValueError):
            raise ValueError(f"ngram_range must be a pair of ints, got {self.ngram_range!r}") from None
        object.__setattr__(self, "ngram_range", (lo, hi))
        for n in self.ngram_range:
            check_int("ngram_range item", n)
        if not (1 <= lo <= hi):
            raise ValueError(f"invalid ngram_range {self.ngram_range}")
        # each provider rejects the fields it would ignore
        if self.provider == "external":
            for name, value in (("endpoint", self.endpoint), ("model", self.model)):
                if not isinstance(value, str) or not value:
                    raise ValueError(f"{name} must be a non-empty string, got {value!r}")
            if self.ngram_range != EncoderConfig.ngram_range:
                raise ValueError(f"the external provider has no n-grams: ngram_range must be the default {EncoderConfig.ngram_range}, got {self.ngram_range}")
        elif (self.endpoint, self.model) != (None, None):
            raise ValueError(f"the hashed-ngram provider takes no endpoint or model, got {self.endpoint!r}, {self.model!r}")


@lru_cache(maxsize=1 << 20)
def _ngram_slot(gram: str, dimension: int) -> int:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, person=_HASH_PERSON).digest()
    return int.from_bytes(digest, "big") % dimension


def encode(text: str, config: EncoderConfig) -> np.ndarray:
    """Embed ``text`` with hashed n-grams as a unit-norm float64 vector of
    ``config.dimension``: the reference for ``encode_texts``' rows.

    Deterministic for a fixed (text, config): lowercases the text, hashes
    every character n-gram in the configured range with a constant-seeded
    blake2b, accumulates counts modulo the dimension, and L2-normalizes.
    """
    import numpy as np

    if config.provider != "hashed-ngram":
        raise ValueError(f"encode is the hashed n-gram reference; embed with encode_texts for {config.provider!r}")
    if not normalize_surface(text):
        raise EncodeError("cannot encode text that is empty after normalization")
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
    return counts / float(np.linalg.norm(counts))


def encode_texts(texts: Sequence[str], config: EncoderConfig) -> np.ndarray:
    """The ``(len(texts), config.dimension)`` float64 matrix whose row ``i``
    is the unit embedding of ``texts[i]``, filled from ``_encoded_rows``:
    the entry point for index builds, which keep every row."""
    import numpy as np

    matrix = np.empty((len(texts), config.dimension))
    for position, row in enumerate(_encoded_rows(texts, config)):
        matrix[position] = row
    return matrix


def _encoded_rows(texts: Sequence[str], config: EncoderConfig) -> Iterator[np.ndarray]:
    """The unit embedding of each of ``texts``, in order, produced a block of
    texts at a time and yielded row by row before the next block is made:
    ``encode(text, config)`` of ``_HASHED_BLOCK`` texts for hashed n-grams;
    for the external provider, once every text is checked, one POST of
    ``EXTERNAL_BLOCK`` texts under the default ``HTTPClient`` settings.
    Errors name the position in ``texts``."""
    if config.provider == "hashed-ngram":
        for start in range(0, len(texts), _HASHED_BLOCK):
            block = []
            for position, text in enumerate(texts[start : start + _HASHED_BLOCK], start):
                try:
                    block.append(encode(text, config))
                except EncodeError as exc:
                    raise EncodeError(f"text {position}: {exc}") from None
            yield from block
        return
    for position, text in enumerate(texts):
        if not normalize_surface(text):
            raise EncodeError(f"text {position}: cannot encode text that is empty after normalization")
    http = HTTPClient(bearer_headers(None), transport=None, sleeper=time.sleep)
    for start in range(0, len(texts), EXTERNAL_BLOCK):
        yield from _embed_block(http, config, texts[start : start + EXTERNAL_BLOCK], start)


def _embed_block(http: HTTPClient, config: EncoderConfig, texts: Sequence[str], start: int) -> Iterator[np.ndarray]:
    """POST ``texts`` (``_encoded_rows`` checks them first) to
    ``config.endpoint`` as {"model": ..., "input": [text, ...]}, expecting
    {"data": [{"embedding": [...]}, ...]} in input order, and yield the unit
    embedding of each ``texts[i]``; an error about it names text
    ``start + i``."""
    import numpy as np

    doc = _transport.post_json(http, config.endpoint, {"model": config.model, "input": list(texts)})
    data = doc.get("data")
    if not isinstance(data, list):
        raise APIError(f"embeddings body field 'data' is not a list: {data!r}")
    if len(data) != len(texts):
        raise APIError(f"embeddings endpoint returned {len(data)} items for {len(texts)} inputs")
    for i, entry in enumerate(data):
        where = f"text {start + i}: embeddings body field 'data[{i}].embedding'"
        if not isinstance(entry, dict) or not isinstance(entry.get("embedding"), list):
            raise APIError(f"{where} is not a list: {entry!r}")
        # bool is an int subclass but not a coordinate; "1" is not a number
        bad = [x for x in entry["embedding"] if type(x) not in (int, float)]
        if bad:
            raise APIError(f"{where} holds a non-number: {bad[0]!r}")
        try:
            values = np.asarray(entry["embedding"], dtype=np.float64)
        except OverflowError as exc:  # an int beyond float range
            raise APIError(f"{where} holds a coordinate out of range") from exc
        if not np.isfinite(values).all():
            raise APIError(f"{where} holds a non-finite coordinate")
        if values.shape != (config.dimension,):
            raise APIError(f"{where} has dimension {values.shape}, not the configured {config.dimension}")
        with np.errstate(over="ignore"):  # finite coordinates whose squares overflow: checked below
            norm = float(np.linalg.norm(values))
        if norm == 0.0:
            raise APIError(f"{where} has norm zero and cannot be normalized")
        if not np.isfinite(norm):
            raise APIError(f"{where} has a norm beyond float range and cannot be normalized")
        yield values / norm
