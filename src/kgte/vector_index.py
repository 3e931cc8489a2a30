"""Immutable vector store with exact top-k retrieval and persistence.

``VectorIndex(kind, payloads, vectors, encoder_config)`` is the only way to
make an index. Its vectors live once, as the rows of one dense float64 matrix,
from ``build_index`` to disk (a raw ``.npy`` file beside a JSON header) and back.
An index is its payloads and that matrix, row ``i`` under payload ``i``, with
no object per row. Retrieval scans every row (one matrix-vector product) and
then selects the top k exactly with a partial selection instead of a full
sort: deterministic, and fast enough at the KB sizes this library targets
(tens of thousands of rows). It returns row ids and scores; ties are broken
by ascending row id, at the k-th position too.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import AnnotatedSentence, KnowledgeBase, Triplet, check_int, sentence_from_json, sentence_to_json, triplet_from_json
from .encoder import EncoderConfig, encode_texts, triplet_to_string

INDEX_FORMAT_VERSION = 2
NODE_KINDS = ("triplet", "example")
EXAMPLE_EMBED_MODES = ("sentence", "sentence+triplets")
# the one scoring metric; index headers record it
METRIC = "cosine"

_NORM_TOLERANCE = 1e-6


class IndexFormatError(ValueError):
    """An index file cannot be read back (syntax, version, or shape)."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True, slots=True)
class IndexNode:
    """One indexed payload with its id (its row), the index's kind and its row
    view of the index matrix; built only by ``VectorIndex.nodes``, slotted (no
    ``__dict__``)."""

    id: int
    kind: str
    payload: Triplet | AnnotatedSentence
    vector: np.ndarray


@dataclass(frozen=True, eq=False)
class VectorIndex:
    """``payloads[i]`` under unit row ``i`` of one read-only ``(len(payloads),
    encoder_config.dimension)`` float64 matrix, ``_matrix``: a C-contiguous
    float64 ``vectors`` array is adopted without a copy, anything else is
    copied. ``payloads`` is stored as a tuple. ``nodes``, one ``IndexNode``
    per row in id order whose ``vector`` is a read-only row view of the
    matrix, is built on first access; nothing in ``kgte`` reads it. Indexes
    compare by identity."""

    kind: str
    payloads: tuple[Triplet | AnnotatedSentence, ...] = field(repr=False)
    vectors: InitVar[np.ndarray | Sequence[np.ndarray]]
    encoder_config: EncoderConfig
    _matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, vectors) -> None:
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown index kind {self.kind!r}")
        if not self.payloads:
            raise ValueError("index has no nodes")
        payloads = tuple(self.payloads)
        matrix = np.ascontiguousarray(vectors, dtype=np.float64)
        if matrix.shape != (len(payloads), self.dimension):
            raise ValueError(f"vectors have shape {matrix.shape}, not (payloads, dim) {len(payloads), self.dimension}")
        # row-wise squared norms, without a temporary the size of the matrix
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        if not np.all(np.abs(norms - 1.0) <= _NORM_TOLERANCE):
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(f"node {worst} vector norm {norms[worst]} is not unit")
        matrix.setflags(write=False)
        object.__setattr__(self, "payloads", payloads)
        object.__setattr__(self, "_matrix", matrix)

    @functools.cached_property
    def nodes(self) -> tuple[IndexNode, ...]:
        """One ``IndexNode`` per row, in id order, built on first access and
        then kept; ``kgte`` never reads it, the benchmark's output checks do."""
        rows = zip(self.payloads, self._matrix)
        return tuple(IndexNode(i, self.kind, payload, row) for i, (payload, row) in enumerate(rows))

    @property
    def dimension(self) -> int:
        return self.encoder_config.dimension

    def __len__(self) -> int:
        return len(self.payloads)


def _example_embed_text(example: AnnotatedSentence, mode: str) -> str:
    if mode == "sentence":
        return example.text
    return "\n".join([example.text, *(triplet_to_string(t) for t in example.gold)])


def check_embed_mode(kind: str | None, embed_mode: str) -> None:
    """Reject an unknown example embed mode, and a mode other than
    ``sentence`` for an index ``kind`` other than ``example`` (``None`` for
    no index), where it would have no effect."""
    if embed_mode not in EXAMPLE_EMBED_MODES:
        raise ValueError(f"unknown example embed mode {embed_mode!r}")
    if embed_mode != "sentence" and kind != "example":
        raise ValueError(f"example embed mode {embed_mode!r} needs an example index, not {kind or 'none'}")


def build_index(
    kb: KnowledgeBase,
    kind: str,
    example_embed_mode: str = "sentence",
    config: EncoderConfig | None = None,
) -> VectorIndex:
    """Embed KB content into a frozen index.

    ``triplet`` kind stores one node per deduplicated KB triplet, embedded
    from its "(s, p, o)" string. ``example`` kind stores one node per KB
    example, embedded from the sentence alone or from the sentence plus its
    gold triplet strings (newline-joined), per ``example_embed_mode``. The
    index adopts the matrix ``encode_texts`` returns, one row per node.
    """
    if kind not in NODE_KINDS:
        raise ValueError(f"unknown index kind {kind!r}")
    check_embed_mode(kind, example_embed_mode)
    config = config or EncoderConfig()
    if kind == "triplet":
        payloads: Sequence = kb.triplets
        texts = [triplet_to_string(t) for t in kb.triplets]
    else:
        payloads = kb.examples
        texts = [_example_embed_text(ex, example_embed_mode) for ex in kb.examples]
    return VectorIndex(kind, payloads, encode_texts(texts, config), config)


def top_k(index: VectorIndex, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Exact top-k ``(row id, cosine score)`` pairs, by score descending; ties
    broken by ascending id.

    Scores every row with one matrix-vector product, then selects instead of
    sorting all scores: the k-th largest score is found with a partial
    selection, every row scoring at least that much is a candidate (so all
    rows tied at the k-th position compete), and only the candidates are
    ordered by (-score, id). Returns min(k, len(index)) pairs, the same as a
    full stable sort would. ``k`` must be an ``int`` of at least 1; a
    ``bool``, a float or a numpy integer is rejected, as for N_KB.
    """
    check_int("k", k, 1)
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dimension,):
        raise ValueError(f"query dimension {query.shape} does not match index dimension {index.dimension}")
    scores = index._matrix @ query
    n = len(scores)
    k = min(k, n)
    candidates = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    order = candidates[np.lexsort((candidates, -scores[candidates]))[:k]]
    return list(zip(order.tolist(), scores[order].tolist()))


def _payload_to_json(kind: str, payload: Triplet | AnnotatedSentence):
    if kind == "triplet":
        return list(payload.as_tuple())
    return sentence_to_json(payload)


def index_matrix_path(path: str | Path) -> Path:
    """The matrix file of the index whose JSON header is at ``path``: ``path``
    with the suffix ``.npy``. A header path that itself ends in ``.npy`` is
    rejected."""
    path = Path(path)
    matrix_path = path.with_suffix(".npy")
    if matrix_path == path:
        raise ValueError(f"index header path {path} must not end in .npy")
    return matrix_path


def save_index(index: VectorIndex, path: str | Path) -> Path:
    """Write the index as format v2; returns the path of its matrix file.

    The matrix goes, bit-exact, to ``index_matrix_path(path)`` (written
    first), and a JSON header to ``path``: format version, dimension, metric,
    kind, every ``EncoderConfig`` field, the ``.npy`` file name and the
    payloads in row order. Missing parent directories are created.
    """
    path = Path(path)
    matrix_path = index_matrix_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.save(matrix_path, index._matrix, allow_pickle=False)
    doc = {
        "version": INDEX_FORMAT_VERSION,
        "dimension": index.dimension,
        "metric": METRIC,
        "kind": index.kind,
        "encoder": dataclasses.asdict(index.encoder_config),
        "matrix": matrix_path.name,
        "payloads": [_payload_to_json(index.kind, payload) for payload in index.payloads],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return matrix_path


def load_index(path: str | Path, config: EncoderConfig | None = None) -> VectorIndex:
    """Read an index written by ``save_index``.

    The encoder config is rebuilt from the header; a ``config`` passed in
    must match its fingerprint and dimension, and is used instead. The
    matrix is read whole into one array that the index adopts. Anything
    malformed in either file raises ``IndexFormatError`` naming the file.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"{path}: not valid JSON at offset {exc.pos}: {exc.msg}", offset=exc.pos) from exc
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"{path}: not valid UTF-8 at byte {exc.start}: {exc.reason}", offset=exc.start) from exc
    if not isinstance(doc, dict):
        raise IndexFormatError(f"{path}: index document must be a JSON object")
    version = doc.get("version")
    if version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(f"{path}: unsupported index format version {version!r}; rebuild it with `kgte index`")
    for key in ("dimension", "metric", "kind", "encoder", "matrix", "payloads"):
        if key not in doc:
            raise IndexFormatError(f"{path}: index document missing field {key!r}")
    try:
        stored = EncoderConfig(**doc["encoder"])
    except (TypeError, ValueError) as exc:
        raise IndexFormatError(f"{path}: invalid encoder config {doc['encoder']!r}: {exc}") from exc
    if config is None:
        config = stored
    elif config.fingerprint != stored.fingerprint:
        raise IndexFormatError(f"{path}: encoder fingerprint {stored.fingerprint!r} != configured {config.fingerprint!r}")
    if doc["metric"] != METRIC:
        raise IndexFormatError(f"{path}: unsupported metric {doc['metric']!r}")
    if config.dimension != doc["dimension"]:
        raise IndexFormatError(f"{path}: dimension {doc['dimension']} != configured encoder's {config.dimension}")
    if doc["kind"] not in NODE_KINDS:
        raise IndexFormatError(f"{path}: unknown index kind {doc['kind']!r}")
    if not isinstance(doc["payloads"], list):
        raise IndexFormatError(f"{path}: payloads are not a list")
    payload_from_json = triplet_from_json if doc["kind"] == "triplet" else sentence_from_json
    payloads = []
    for position, raw in enumerate(doc["payloads"]):
        try:
            payloads.append(payload_from_json(raw))
        except ValueError as exc:
            raise IndexFormatError(f"{path}: node {position}: {exc}") from exc
    try:
        matrix_path = path.parent / doc["matrix"]
        matrix = np.load(matrix_path, allow_pickle=False)
    except (OSError, ValueError, EOFError, TypeError) as exc:
        raise IndexFormatError(f"{path}: cannot read matrix file {doc['matrix']!r}: {exc}") from exc
    if not isinstance(matrix, np.ndarray) or matrix.dtype != np.float64:
        raise IndexFormatError(f"{path}: matrix file {matrix_path} does not hold a float64 array")
    try:
        return VectorIndex(doc["kind"], payloads, matrix, config)
    except ValueError as exc:
        raise IndexFormatError(f"{path}: matrix file {matrix_path}: {exc}") from exc
