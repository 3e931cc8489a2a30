"""Text embedding providers.

``encode_texts`` is the one entry point: index builds and queries alike get
their embeddings from it as the rows of one float64 matrix, L2-normalized so
top-k by dot product equals top-k by cosine. The default provider hashes
character n-grams (``encode`` is its one-text reference): deterministic
across machines and dependency-free. Transformer-grade encoders plug in
through the external provider, which posts blocks of texts to an endpoint.

numpy is imported inside the functions that build arrays (``encode``,
``_empty_matrix``, ``_embed_block``), not at module level, and so is
``mmap``: ``import kgte`` then loads no numpy, and a run that embeds nothing
(zero-shot and static 2-shot extraction, ``ingest``, ``eval``, ``fit``)
never pays its import time and memory.

On Linux a matrix of at least ``MAPPED_MATRIX_BYTES`` lives in its own
anonymous memory mapping, which the kernel takes back as soon as the last
array over it dies. glibc raises its mmap threshold each time it frees a
mapped block under 32 MiB (``mallopt(3)``, dynamic mmap threshold), so after
one large matrix is freed, the next one smaller than it would come from the
heap and could stay resident after it is dropped.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from . import _transport  # post_json looked up per call, so a wrapper set on the module sees every POST
from ._transport import APIError, HTTPClient
from .corpus import check_int, normalize_surface

if TYPE_CHECKING:
    import numpy as np

PROVIDERS = ("hashed-ngram", "external")

_HASH_PERSON = b"kgte.ngram.v1"
# texts per embeddings POST: text-embeddings-inference's default input cap
EXTERNAL_BLOCK = 32
# glibc's initial mmap threshold: a smaller block comes from the heap whatever
# the threshold has become, and mapping a one-row query matrix would cost
# about 17 us against 1.5 us for np.empty (2-vCPU Xeon VM)
MAPPED_MATRIX_BYTES = 128 * 1024


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


def _empty_matrix(rows: int, dimension: int) -> np.ndarray:
    """An uninitialized ``(rows, dimension)`` float64 matrix. Where the
    platform has ``MADV_HUGEPAGE`` (Linux), one of at least
    ``MAPPED_MATRIX_BYTES`` is a view of its own private anonymous mapping,
    unmapped when the last array over it is freed.

    The mapping is private and advised for huge pages, as numpy advises its
    own large arrays: a shared mapping gets no transparent huge pages under
    the kernel's default shmem policy, and scanning it was slower."""
    import mmap

    import numpy as np

    nbytes = rows * dimension * np.dtype(np.float64).itemsize
    if nbytes < MAPPED_MATRIX_BYTES or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty((rows, dimension))
    block = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    try:
        block.madvise(mmap.MADV_HUGEPAGE)
    except OSError:  # a kernel built without transparent huge pages
        pass
    return np.frombuffer(block, dtype=np.float64).reshape(rows, dimension)


def encode_texts(texts: Sequence[str], config: EncoderConfig) -> np.ndarray:
    """The ``(len(texts), config.dimension)`` float64 matrix whose row ``i``
    is the unit embedding of ``texts[i]``: ``encode(texts[i], config)`` for
    hashed n-grams; for the external provider, once every text is checked,
    one POST per block of ``EXTERNAL_BLOCK`` texts. Errors name the position."""
    matrix = _empty_matrix(len(texts), config.dimension)
    if config.provider == "hashed-ngram":
        for position, text in enumerate(texts):
            try:
                matrix[position] = encode(text, config)
            except EncodeError as exc:
                raise EncodeError(f"text {position}: {exc}") from None
        return matrix
    for position, text in enumerate(texts):
        if not normalize_surface(text):
            raise EncodeError(f"text {position}: cannot encode text that is empty after normalization")
    http = HTTPClient(api_key=None, transport=None, sleeper=time.sleep)
    for start in range(0, len(texts), EXTERNAL_BLOCK):
        _embed_block(http, config, texts[start : start + EXTERNAL_BLOCK], matrix, start)
    return matrix


def _embed_block(http: HTTPClient, config: EncoderConfig, texts: Sequence[str], matrix: np.ndarray, start: int) -> None:
    """POST ``texts`` (``encode_texts`` checks them first) to ``config.endpoint``
    as {"model": ..., "input": [text, ...]}, expecting {"data": [{"embedding":
    [...]}, ...]} in input order, and write the unit embedding of ``texts[i]``
    into ``matrix[start + i]``; an error about it names text ``start + i``."""
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
        matrix[start + i] = values / norm
