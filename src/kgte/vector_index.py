"""Immutable vector store with exact top-k retrieval and persistence.

``VectorIndex(kind, payloads, vectors, encoder_config, example_embed_mode)``
makes every index but a selection (below). Its vectors live once, as the
rows of one dense float64 matrix, from ``build_index`` to disk (a raw
``.npy`` file beside a JSON header that states each other fact of the index
once) and back.
An index is its payloads and that matrix, row ``i`` under payload ``i``, with
no object per row. Retrieval scans every row (one matrix-vector product) and
then selects the top k exactly with a partial selection instead of a full
sort: deterministic, and fast enough at the KB sizes this library targets
(tens of thousands of rows). It returns row ids and scores; ties are broken
by ascending row id, at the k-th position too.

``select_rows`` makes a selection: an index over some rows of another, in an
order of its own, that shares that index's matrix and keeps the selected row
ids. It encodes nothing and copies no row. It scores with the full matrix's
own product and reads the selected rows' scores from it, so they equal the
full index's scores bit for bit; its ids are positions in the selection.
A downscaled KB's index is a selection of the full KB's (``analysis``).

``build_index`` interns its result: while an index built from equal inputs
(kind, example embed mode, encoder config and payloads) is alive, it returns
that same object and encodes nothing. The table holds each index weakly, so
an index lives exactly as long as its callers hold it.

As in ``encoder``, numpy is imported inside the functions that touch the
matrix (``VectorIndex.__post_init__``, ``select_rows``, ``top_k``,
``save_index``, ``load_index``), so importing this module loads no numpy;
building, loading or querying an index loads it at the first array
operation.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import weakref
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .corpus import AnnotatedSentence, KnowledgeBase, Triplet, check_int, sentence_from_json, sentence_to_json, triplet_from_json, triplet_to_json
from .encoder import EncoderConfig, encode_texts
from .parsing import triplet_to_string

if TYPE_CHECKING:
    import numpy as np

INDEX_FORMAT_VERSION = 3
NODE_KINDS = ("triplet", "example")
EXAMPLE_EMBED_MODES = ("sentence", "sentence+triplets")

_NORM_TOLERANCE = 1e-6

# (kind, example embed mode, encoder config, payloads) -> the live index built from them
_live_indexes: weakref.WeakValueDictionary[tuple, VectorIndex] = weakref.WeakValueDictionary()


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
    copied. ``payloads`` is stored as a tuple, each a ``Triplet`` in a
    ``triplet`` index and an ``AnnotatedSentence`` in an ``example`` one,
    whose rows embed what ``example_embed_mode`` names (``sentence``, the
    only mode a ``triplet`` index takes). ``nodes``, one ``IndexNode`` per
    row in id order whose ``vector`` is a read-only row view of the matrix,
    is built on first access; nothing in ``kgte`` reads it. Indexes compare
    by identity.

    A selection (``select_rows``) shares the matrix of the index it selects
    from, which has more rows than it has payloads: ``payloads[i]`` lies
    under matrix row ``_rows[i]``, and ``_rows`` is a read-only int array.
    For any other index ``_rows`` is ``None``."""

    kind: str
    payloads: tuple[Triplet | AnnotatedSentence, ...] = field(repr=False)
    vectors: InitVar[np.ndarray | Sequence[np.ndarray]]
    encoder_config: EncoderConfig
    example_embed_mode: str = "sentence"
    _matrix: np.ndarray = field(init=False, repr=False)
    _rows: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self, vectors) -> None:
        import numpy as np

        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown index kind {self.kind!r}")
        check_embed_mode(self.kind, self.example_embed_mode)
        if not self.payloads:
            raise ValueError("index has no nodes")
        payloads = tuple(self.payloads)
        payload_type = Triplet if self.kind == "triplet" else AnnotatedSentence
        for row, payload in enumerate(payloads):
            if not isinstance(payload, payload_type):
                raise ValueError(f"row {row}: a {self.kind} index holds {payload_type.__name__} payloads, not {type(payload).__name__}")
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
        then kept (a selection's own rows, as views of the shared matrix);
        ``kgte`` never reads it, the benchmark's output checks do."""
        rows = range(len(self)) if self._rows is None else self._rows.tolist()
        pairs = zip(self.payloads, rows)
        return tuple(IndexNode(i, self.kind, payload, self._matrix[row]) for i, (payload, row) in enumerate(pairs))

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

    While an index built from equal inputs (kind, embed mode, config and
    payloads, compared by value) is alive, that same object is returned and
    nothing is encoded or posted. The table of built indexes holds them
    weakly: it keeps no index alive.
    """
    if kind not in NODE_KINDS:
        raise ValueError(f"unknown index kind {kind!r}")
    check_embed_mode(kind, example_embed_mode)
    config = config or EncoderConfig()
    payloads = tuple(kb.triplets if kind == "triplet" else kb.examples)
    key = (kind, example_embed_mode, config, payloads)
    index = _live_indexes.get(key)
    if index is None:
        if kind == "triplet":
            texts = [triplet_to_string(t) for t in payloads]
        else:
            texts = [_example_embed_text(ex, example_embed_mode) for ex in payloads]
        index = _live_indexes[key] = VectorIndex(kind, payloads, encode_texts(texts, config), config, example_embed_mode)
    return index


def select_rows(index: VectorIndex, rows: Sequence[int]) -> VectorIndex:
    """``index`` restricted to ``rows``, in that order: row ``i`` of the
    selection is row ``rows[i]`` of ``index``, under that row's payload.

    The selection shares the matrix of ``index`` and keeps the selected ids
    as a read-only int array (composed with those of ``index`` when it is a
    selection itself). So it encodes nothing, copies no row and does not
    check the shared rows' norms again. ``rows`` must be a non-empty
    sequence of ints, each a row of ``index``; a row may repeat.
    """
    import numpy as np

    ids = np.array(rows)
    if ids.ndim != 1 or not len(ids):
        raise ValueError("a selection needs a non-empty sequence of row ids")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"row ids must be ints, got an array of {ids.dtype}")
    if ids.min() < 0 or ids.max() >= len(index):
        raise ValueError(f"row ids must lie in [0, {len(index)}), got {ids.min()} to {ids.max()}")
    payloads = tuple(index.payloads[row] for row in ids.tolist())
    ids = ids.astype(np.intp, copy=False)
    if index._rows is not None:
        ids = index._rows[ids]
    ids.setflags(write=False)
    selection = object.__new__(VectorIndex)  # skips __post_init__: the shared rows were checked when built
    for name, value in (
        ("kind", index.kind),
        ("payloads", payloads),
        ("encoder_config", index.encoder_config),
        ("example_embed_mode", index.example_embed_mode),
        ("_matrix", index._matrix),
        ("_rows", ids),
    ):
        object.__setattr__(selection, name, value)
    return selection


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

    The scan stays one product over the whole matrix because its float64
    scores depend on how BLAS splits it. With 2-thread OpenBLAS, on the
    webnlg-0 bench KB (12,323 rows) and 150 test queries, products over
    aligned row blocks of 4 to 256 rows agree with each other but differ
    from the full product in 365 of 1,848,450 scores, all at rows 16, 17, 32
    or 33 mod 64, where OpenBLAS splits the full product between its
    threads; products over gathered rows differ too. So screening, pruning
    or splitting the scan would reorder rows whose scores differ only in
    the last bits, and today's rankings would change.

    A selection takes the same product over the whole shared matrix and
    reads its rows' scores from it, in selection order; ids are positions
    in the selection, so ties break by that order. Its scores are the full
    index's own, bit for bit. An index that is not a selection reads its
    product as it is, with nothing gathered.
    """
    import numpy as np

    check_int("k", k, 1)
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dimension,):
        raise ValueError(f"query dimension {query.shape} does not match index dimension {index.dimension}")
    scores = index._matrix @ query
    if index._rows is not None:
        scores = scores[index._rows]
    n = len(scores)
    k = min(k, n)
    candidates = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    order = candidates[np.lexsort((candidates, -scores[candidates]))[:k]]
    return list(zip(order.tolist(), scores[order].tolist()))


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
    """Write the index as format v3; returns the path of its matrix file.

    The matrix goes, bit-exact, to ``index_matrix_path(path)`` (written
    first), and a JSON header to ``path`` with the rest of what ``load_index``
    needs, once: format version, kind, the example embed mode (example
    index only), every ``EncoderConfig`` field and the payloads in row
    order. Missing parent directories are created. A selection writes its
    own rows, gathered from the shared matrix: each is the encoding of its
    payload, so the files equal those of an index built from the selected
    payloads alone, and load back as an index that is not a selection.
    """
    import numpy as np

    path = Path(path)
    matrix_path = index_matrix_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    matrix = index._matrix if index._rows is None else index._matrix[index._rows]
    np.save(matrix_path, matrix, allow_pickle=False)
    payload_to_json = triplet_to_json if index.kind == "triplet" else sentence_to_json
    doc = {
        "version": INDEX_FORMAT_VERSION,
        "kind": index.kind,
        **({"example_embed_mode": index.example_embed_mode} if index.kind == "example" else {}),
        "encoder": dataclasses.asdict(index.encoder_config),
        "payloads": list(map(payload_to_json, index.payloads)),
    }
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return matrix_path


def load_index(path: str | Path) -> VectorIndex:
    """Read an index written by ``save_index``.

    The header must hold exactly the v3 fields of its kind; an older version
    asks for a rebuild. The matrix is always ``index_matrix_path(path)``,
    read whole into one array that the index adopts. Anything malformed in
    either file (a matrix not of shape (payloads, encoder dimension)
    included) raises ``IndexFormatError`` naming the header.
    """
    import numpy as np

    path = Path(path)
    matrix_path = index_matrix_path(path)
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
    kind = doc.get("kind")
    if kind not in NODE_KINDS:
        raise IndexFormatError(f"{path}: unknown index kind {kind!r}")
    fields = {"version", "kind", "encoder", "payloads", *(["example_embed_mode"] if kind == "example" else [])}
    if doc.keys() != fields:
        raise IndexFormatError(f"{path}: an index of kind {kind!r} has the header fields {sorted(fields)}, not {sorted(doc)}")
    try:
        config = EncoderConfig(**doc["encoder"])
    except (TypeError, ValueError) as exc:
        raise IndexFormatError(f"{path}: invalid encoder config {doc['encoder']!r}: {exc}") from exc
    embed_mode = doc.get("example_embed_mode", "sentence")
    if embed_mode not in EXAMPLE_EMBED_MODES:
        raise IndexFormatError(f"{path}: unknown example embed mode {embed_mode!r}")
    if not isinstance(doc["payloads"], list):
        raise IndexFormatError(f"{path}: payloads are not a list")
    payload_from_json = triplet_from_json if kind == "triplet" else sentence_from_json
    payloads = []
    for position, raw in enumerate(doc["payloads"]):
        try:
            payloads.append(payload_from_json(raw))
        except ValueError as exc:
            raise IndexFormatError(f"{path}: node {position}: {exc}") from exc
    try:
        matrix = np.load(matrix_path, allow_pickle=False)
    except (OSError, ValueError, EOFError, TypeError) as exc:
        raise IndexFormatError(f"{path}: cannot read matrix file {matrix_path}: {exc}") from exc
    if not isinstance(matrix, np.ndarray) or matrix.dtype != np.float64:
        raise IndexFormatError(f"{path}: matrix file {matrix_path} does not hold a float64 array")
    try:
        return VectorIndex(kind, payloads, matrix, config, embed_mode)
    except ValueError as exc:
        raise IndexFormatError(f"{path}: matrix file {matrix_path}: {exc}") from exc
