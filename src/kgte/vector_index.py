"""Immutable vector store with exact top-k retrieval and persistence.

``VectorIndex(kind, payloads, vectors, encoder_config, example_embed_mode)``
makes every index, a selection (below) included, and stores each argument as
the field of that name. Its vectors live once, as the rows of one dense
float64 matrix, ``vectors``, from ``build_index`` to disk (a raw ``.npy``
file beside a JSON header that states each other fact of the index once)
and back.
An index is its payloads and that matrix, row ``i`` under payload ``i``, with
no object per row. Retrieval scans every row (one matrix-vector product) and
then selects the top k exactly with a partial selection instead of a full
sort: deterministic, and fast enough at the KB sizes this library targets
(tens of thousands of rows). It returns row ids and scores; ties are broken
by ascending row id, at the k-th position too.

A selection (``_select_rows``) is an index over some rows of another, in an
order of its own: ``dataclasses.replace`` of that index with the selected
payloads and their row ids, ``_rows``, so it shares that index's matrix. It
encodes nothing and copies no row. It scores with the full matrix's
own product and reads the selected rows' scores from it, so they equal the
full index's scores bit for bit; its ids are positions in the selection.
A downscaled KB's index is a selection of the full KB's (``index_dataset``).

``save_index`` streams both files in blocks of rows, gathering a
selection's rows one block at a time, so a save holds no second matrix and
no whole header string. It writes temporary siblings and moves them into
place, the header last. ``load_index`` frees the parsed header before it
reads the matrix, so a load never holds both.

``build_index`` interns its result: while an index built from equal inputs
(kind, example embed mode, encoder config and payloads) is alive, it returns
that same object and encodes nothing. The table holds each index weakly, so
an index lives exactly as long as its callers hold it.

As in ``encoder``, numpy is imported inside the functions that touch the
matrix (``VectorIndex.__post_init__``, ``_select_rows``, ``top_k``,
``save_index``, ``_read_matrix``), so importing this module loads no numpy;
building, loading or querying an index loads it at the first array
operation.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import tokenize
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import AnnotatedSentence, KnowledgeBase, Triplet, check_int, sentence_from_json, sentence_to_json, triplet_from_json, triplet_to_json
from .encoder import EncoderConfig, encode_texts
from .parsing import triplet_to_string

if TYPE_CHECKING:
    import numpy as np

INDEX_FORMAT_VERSION = 3
NODE_KINDS = ("triplet", "example")
EXAMPLE_EMBED_MODES = ("sentence", "sentence+triplets")

_NORM_TOLERANCE = 1e-6

# rows per block that ``save_index`` writes: 1.5 MiB of a 384-dimensional matrix
_SAVE_BLOCK_ROWS = 512

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
    """``payloads[i]`` under unit row ``i`` of ``vectors``, one read-only
    ``(len(payloads), encoder_config.dimension)`` float64 matrix: a
    C-contiguous float64 array is adopted without a copy, anything else is
    copied. ``payloads`` is stored as a tuple, each a ``Triplet`` in a
    ``triplet`` index and an ``AnnotatedSentence`` in an ``example`` one,
    whose rows embed what ``example_embed_mode`` names (``sentence``, the
    only mode a ``triplet`` index takes). ``nodes``, one ``IndexNode`` per
    row in id order whose ``vector`` is a read-only row view of the matrix,
    is built on first access; nothing in ``kgte`` reads it. Indexes compare
    by identity.

    A selection (``_select_rows``) shares ``vectors`` with the built or
    loaded index it selects from: ``payloads[i]`` lies under matrix row
    ``_rows[i]``, and ``_rows`` is a read-only int array. Its matrix is not
    checked against its payloads again: the shared rows were checked when
    that index was made. For any other index ``_rows`` is ``None``."""

    kind: str
    payloads: tuple[Triplet | AnnotatedSentence, ...] = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    encoder_config: EncoderConfig
    example_embed_mode: str = "sentence"
    _rows: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
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
        matrix = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if self._rows is None:
            if matrix.shape != (len(payloads), self.dimension):
                raise ValueError(f"vectors have shape {matrix.shape}, not (payloads, dim) {len(payloads), self.dimension}")
            # row-wise squared norms, without a temporary the size of the matrix
            norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
            if not np.all(np.abs(norms - 1.0) <= _NORM_TOLERANCE):
                worst = int(np.argmax(np.abs(norms - 1.0)))
                raise ValueError(f"node {worst} vector norm {norms[worst]} is not unit")
        matrix.setflags(write=False)
        object.__setattr__(self, "payloads", payloads)
        object.__setattr__(self, "vectors", matrix)

    @functools.cached_property
    def nodes(self) -> tuple[IndexNode, ...]:
        """One ``IndexNode`` per row, in id order, built on first access and
        then kept (a selection's own rows, as views of the shared matrix);
        ``kgte`` never reads it, the benchmark's output checks do."""
        rows = range(len(self)) if self._rows is None else self._rows.tolist()
        pairs = zip(self.payloads, rows)
        return tuple(IndexNode(i, self.kind, payload, self.vectors[row]) for i, (payload, row) in enumerate(pairs))

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


def _select_rows(index: VectorIndex, rows: list[int]) -> VectorIndex:
    """``index`` (built or loaded) restricted to ``rows``, a non-empty list of
    its row ids in the selection's order; a row may repeat. The selection is
    ``index`` with the selected payloads and ``rows`` as a read-only int
    array: it shares ``index.vectors``, encodes nothing, copies no row and
    does not check the shared rows' norms again."""
    import numpy as np

    ids = np.array(rows, dtype=np.intp)
    ids.setflags(write=False)
    return dataclasses.replace(index, payloads=tuple(index.payloads[row] for row in rows), _rows=ids)


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
    scores = index.vectors @ query
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

    The matrix goes, bit-exact, to ``index_matrix_path(path)`` as the bytes
    ``np.save`` writes, and a JSON header to ``path`` with the rest of what
    ``load_index`` needs, once: format version, kind, the example embed mode
    (example index only), every ``EncoderConfig`` field and the payloads in
    row order. Missing parent directories are created. A selection writes
    its own rows: each is the encoding of its payload, so the files equal
    those of an index built from the selected payloads alone, and load back
    as an index that is not a selection.

    Both files are streamed in blocks of ``_SAVE_BLOCK_ROWS`` rows: the
    ``.npy`` header once, then each block of rows (a slice of the matrix, or
    a selection's rows gathered block by block), and the JSON header's
    payloads serialized a block at a time. So saving holds no second matrix,
    no whole header string and no list of every payload's JSON value.

    Each file is first written to a temporary sibling (``<name>.<pid>.tmp``).
    Only when both are complete is the old header removed, the matrix moved
    into place and then the header. A save that fails before that removes
    its temporaries and leaves any existing files as they were, so an old
    header never lies beside a new matrix.
    """
    from numpy.lib import format as npy_format

    path = Path(path)
    matrix_path = index_matrix_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp_path, temp_matrix_path = (p.with_name(f"{p.name}.{os.getpid()}.tmp") for p in (path, matrix_path))
    blocks = [slice(start, start + _SAVE_BLOCK_ROWS) for start in range(0, len(index), _SAVE_BLOCK_ROWS)]
    try:
        with open(temp_matrix_path, "wb") as fh:
            header = npy_format.header_data_from_array_1_0(index.vectors) | {"shape": (len(index), index.dimension)}
            npy_format.write_array_header_1_0(fh, header)
            for block in blocks:
                fh.write(index.vectors[block] if index._rows is None else index.vectors[index._rows[block]])
        payload_to_json = triplet_to_json if index.kind == "triplet" else sentence_to_json
        encode = json.JSONEncoder(separators=(",", ":")).encode
        head = {
            "version": INDEX_FORMAT_VERSION,
            "kind": index.kind,
            **({"example_embed_mode": index.example_embed_mode} if index.kind == "example" else {}),
            "encoder": dataclasses.asdict(index.encoder_config),
        }
        # the document's JSON in pieces: ``head`` without its closing brace,
        # then each block's payload list without its brackets
        with open(temp_path, "w", encoding="utf-8") as fh:
            fh.write(encode(head)[:-1] + ',"payloads":[')
            for number, block in enumerate(blocks):
                fh.write(("," if number else "") + encode(list(map(payload_to_json, index.payloads[block])))[1:-1])
            fh.write("]}\n")
    except BaseException:
        temp_path.unlink(missing_ok=True)
        temp_matrix_path.unlink(missing_ok=True)
        raise
    path.unlink(missing_ok=True)
    temp_matrix_path.replace(matrix_path)
    temp_path.replace(path)
    return matrix_path


def load_index(path: str | Path) -> VectorIndex:
    """Read an index written by ``save_index``.

    The header must hold exactly the v3 fields of its kind; an older version
    asks for a rebuild. The matrix is always ``index_matrix_path(path)``,
    read whole into one array that the index adopts. The payloads are built
    and the parsed header tree freed before the matrix is read, so the load
    never holds both. Anything malformed in either file raises
    ``IndexFormatError`` naming the header: for the matrix, before anything
    is allocated, a ``.npy`` header that does not parse or that states a
    dtype other than ``<f8``, Fortran order or a shape other than (payloads,
    encoder dimension), and a file size other than that header's plus the
    rows' bytes.
    """
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
    payloads = tuple(payloads)
    doc = raw = None  # free the parsed header tree before the matrix is read
    try:
        matrix = _read_matrix(matrix_path, (len(payloads), config.dimension))
    except (OSError, ValueError, EOFError, TypeError, SyntaxError, tokenize.TokenError) as exc:
        raise IndexFormatError(f"{path}: cannot read matrix file {matrix_path}: {exc}") from exc
    try:
        return VectorIndex(kind, payloads, matrix, config, embed_mode)
    except ValueError as exc:
        raise IndexFormatError(f"{path}: matrix file {matrix_path}: {exc}") from exc


def _read_matrix(matrix_path: Path, shape: tuple[int, int]) -> np.ndarray:
    """The C-order ``<f8`` matrix of ``shape`` in the ``.npy`` file at
    ``matrix_path``, read into one array once the file's header and size
    are checked, so a file that claims anything else allocates nothing; the
    ``ValueError`` says what it claims."""
    import numpy as np
    from numpy.lib import format as npy_format

    with open(matrix_path, "rb") as fh:
        version = npy_format.read_magic(fh)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"its .npy format version {version} is not 1.0 or 2.0")
        read_header = npy_format.read_array_header_1_0 if version == (1, 0) else npy_format.read_array_header_2_0
        stated_shape, fortran_order, dtype = read_header(fh)
        if dtype != np.dtype("<f8") or fortran_order:
            raise ValueError(f"it holds {dtype.str} in {'Fortran' if fortran_order else 'C'} order, not <f8 in C order")
        if stated_shape != shape:
            raise ValueError(f"it has shape {stated_shape}, not (payloads, dim) {shape}")
        size, expected = os.fstat(fh.fileno()).st_size, fh.tell() + shape[0] * shape[1] * 8
        if size != expected:
            raise ValueError(f"it has {size} bytes, not the {expected} that its header and shape make")
        return np.fromfile(fh, dtype=dtype, count=shape[0] * shape[1]).reshape(shape)
