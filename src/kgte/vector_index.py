"""Immutable node-based vector store with exact top-k retrieval and persistence.

Retrieval scans every node (one float64 matrix-vector product over a dense
matrix that holds each vector once) and then selects the top k exactly with a
partial selection instead of a full sort: deterministic, and fast enough at
the KB sizes this library targets (tens of thousands of nodes). Ties are
broken by ascending node id, at the k-th position too.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import AnnotatedSentence, KnowledgeBase, Triplet
from .encoder import EncoderConfig, encode, triplet_to_string

INDEX_FORMAT_VERSION = 1
NODE_KINDS = ("triplet", "example")
EXAMPLE_EMBED_MODES = ("sentence", "sentence+triplets")

_NORM_TOLERANCE = 1e-6
_FINGERPRINT_RE = re.compile(r"^hashed-ngram:dim=(\d+):ngrams=(\d+)-(\d+)$")


class IndexFormatError(ValueError):
    """An index file cannot be read back (syntax, version, or shape)."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class IndexNode:
    id: int
    kind: str
    payload: Triplet | AnnotatedSentence
    vector: np.ndarray


@dataclass(frozen=True)
class VectorIndex:
    kind: str
    dimension: int
    encoder_config: EncoderConfig
    nodes: tuple[IndexNode, ...]
    metric: str = "cosine"
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown index kind {self.kind!r}")
        if self.metric != "cosine":
            raise ValueError(f"unsupported metric {self.metric!r}")
        if not self.nodes:
            raise ValueError("index has no nodes")
        for position, node in enumerate(self.nodes):
            if node.id != position:
                raise ValueError(f"node ids must be contiguous from 0; got {node.id} at {position}")
            if node.vector.shape != (self.dimension,):
                raise ValueError(f"node {node.id} has dimension {node.vector.shape}, expected {self.dimension}")
        matrix = np.stack([node.vector for node in self.nodes])
        norms = np.linalg.norm(matrix, axis=1)
        if not np.all(np.abs(norms - 1.0) <= _NORM_TOLERANCE):
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(f"node {worst} vector norm {norms[worst]} is not unit")
        matrix.setflags(write=False)
        object.__setattr__(self, "_matrix", matrix)
        # each node's vector becomes a read-only row view, so it is stored once
        object.__setattr__(
            self,
            "nodes",
            tuple(IndexNode(node.id, node.kind, node.payload, row) for node, row in zip(self.nodes, matrix)),
        )

    @classmethod
    def from_entries(
        cls,
        kind: str,
        payloads: Sequence[Triplet | AnnotatedSentence],
        vectors: Sequence[np.ndarray],
        encoder_config: EncoderConfig,
    ) -> "VectorIndex":
        if len(payloads) != len(vectors):
            raise ValueError("payload/vector count mismatch")
        nodes = tuple(
            IndexNode(id=i, kind=kind, payload=p, vector=np.asarray(v, dtype=np.float64))
            for i, (p, v) in enumerate(zip(payloads, vectors))
        )
        return cls(kind=kind, dimension=encoder_config.dimension, encoder_config=encoder_config, nodes=nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def _example_embed_text(example: AnnotatedSentence, mode: str) -> str:
    if mode == "sentence":
        return example.text
    return "\n".join([example.text, *(triplet_to_string(t) for t in example.gold)])


def build_index(
    kb: KnowledgeBase,
    kind: str,
    example_embed_mode: str = "sentence",
    config: EncoderConfig | None = None,
    *,
    client=None,
) -> VectorIndex:
    """Embed KB content into a frozen index.

    ``triplet`` kind stores one node per deduplicated KB triplet, embedded
    from its "(s, p, o)" string. ``example`` kind stores one node per KB
    example, embedded from the sentence alone or from the sentence plus its
    gold triplet strings (newline-joined), per ``example_embed_mode``.
    """
    if kind not in NODE_KINDS:
        raise ValueError(f"unknown index kind {kind!r}")
    if example_embed_mode not in EXAMPLE_EMBED_MODES:
        raise ValueError(f"unknown example embed mode {example_embed_mode!r}")
    config = config or EncoderConfig()
    if kind == "triplet":
        payloads: Sequence = kb.triplets
        texts = [triplet_to_string(t) for t in kb.triplets]
    else:
        payloads = kb.examples
        texts = [_example_embed_text(ex, example_embed_mode) for ex in kb.examples]
    if not payloads:
        raise ValueError(f"knowledge base has no content for kind {kind!r}")
    vectors = [encode(text, config, client=client) for text in texts]
    return VectorIndex.from_entries(kind, payloads, vectors, config)


def top_k(index: VectorIndex, query: np.ndarray, k: int) -> list[tuple[IndexNode, float]]:
    """Exact top-k by cosine score, descending; ties broken by ascending id.

    Scans every node, then selects instead of sorting all scores: the k-th
    largest score is found with a partial selection, every node scoring at
    least that much is a candidate (so all nodes tied at the k-th position
    compete), and only the candidates are ordered by (-score, id). Returns
    min(k, len(index)) entries, the same as a full stable sort would.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dimension,):
        raise ValueError(f"query dimension {query.shape} does not match index dimension {index.dimension}")
    scores = index._matrix @ query
    n = len(scores)
    k = min(k, n)
    candidates = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    order = candidates[np.lexsort((candidates, -scores[candidates]))[:k]]
    return [(index.nodes[i], float(scores[i])) for i in order]


def _round9(value: float) -> float:
    return float(f"{value:.9g}")


def _payload_to_json(node: IndexNode):
    if node.kind == "triplet":
        return list(node.payload.as_tuple())
    return {
        "text": node.payload.text,
        "triplets": [list(t.as_tuple()) for t in node.payload.gold],
    }


def _payload_from_json(kind: str, raw, position: int) -> Triplet | AnnotatedSentence:
    if kind == "triplet":
        if not isinstance(raw, list) or len(raw) != 3:
            raise IndexFormatError(f"node {position}: triplet payload {raw!r} is not a 3-element list")
        return Triplet(*raw)
    if not isinstance(raw, dict):
        raise IndexFormatError(f"node {position}: example payload {raw!r} is not an object")
    for key in ("text", "triplets"):
        if key not in raw:
            raise IndexFormatError(f"node {position}: example payload missing field {key!r}")
    triplets = raw["triplets"]
    if not isinstance(triplets, list) or not all(isinstance(t, list) and len(t) == 3 for t in triplets):
        raise IndexFormatError(f"node {position}: example triplets {triplets!r} are not 3-element lists")
    return AnnotatedSentence(text=raw["text"], gold=tuple(Triplet(*t) for t in triplets))


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Write the index as a single self-describing JSON document.

    Vector coordinates are stored as decimals with 9 significant digits and
    re-normalized on load, so reloaded scores match to about 1e-6.
    """
    doc = {
        "version": INDEX_FORMAT_VERSION,
        "dimension": index.dimension,
        "metric": index.metric,
        "kind": index.kind,
        "encoder": index.encoder_config.fingerprint,
        "nodes": [
            {
                "id": node.id,
                "payload": _payload_to_json(node),
                "vector": [_round9(x) for x in node.vector],
            }
            for node in index.nodes
        ],
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _config_from_fingerprint(fingerprint: str) -> EncoderConfig:
    match = _FINGERPRINT_RE.match(fingerprint)
    if match is None:
        raise IndexFormatError(
            f"cannot reconstruct encoder config from fingerprint {fingerprint!r}; "
            "pass the config explicitly"
        )
    dim, lo, hi = (int(g) for g in match.groups())
    return EncoderConfig(provider="hashed-ngram", dimension=dim, ngram_range=(lo, hi))


def load_index(path: str | Path, config: EncoderConfig | None = None) -> VectorIndex:
    """Read an index written by ``save_index``.

    If ``config`` is given, its fingerprint and dimension must match the file.
    Otherwise the config is reconstructed from the stored fingerprint
    (possible for the hashed n-gram provider only).
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"index file is not valid JSON at offset {exc.pos}: {exc.msg}", offset=exc.pos) from exc
    if not isinstance(doc, dict):
        raise IndexFormatError("index document must be a JSON object")
    version = doc.get("version")
    if version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(f"unsupported index format version {version!r}")
    for key in ("dimension", "metric", "kind", "encoder", "nodes"):
        if key not in doc:
            raise IndexFormatError(f"index document missing field {key!r}")
    fingerprint = doc["encoder"]
    if config is None:
        config = _config_from_fingerprint(fingerprint)
    elif config.fingerprint != fingerprint:
        raise IndexFormatError(
            f"encoder fingerprint mismatch: file has {fingerprint!r}, configured {config.fingerprint!r}"
        )
    if config.dimension != doc["dimension"]:
        raise IndexFormatError(
            f"dimension mismatch: file has {doc['dimension']}, configured encoder {config.dimension}"
        )
    kind = doc["kind"]
    payloads = []
    vectors = []
    for position, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict):
            raise IndexFormatError(f"node {position} is not an object")
        if entry.get("id") != position:
            raise IndexFormatError(f"node ids not contiguous at position {position}")
        for key in ("payload", "vector"):
            if key not in entry:
                raise IndexFormatError(f"node {position} missing field {key!r}")
        payloads.append(_payload_from_json(kind, entry["payload"], position))
        vector = np.asarray(entry["vector"], dtype=np.float64)
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            raise IndexFormatError(f"node {position} has a zero vector")
        vectors.append(vector / norm)
    return VectorIndex.from_entries(kind, payloads, vectors, config)
