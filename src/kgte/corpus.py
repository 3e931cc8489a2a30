"""Sentence/triplet data model, its JSON grammar, dataset ingestion, and
knowledge-base construction.

The record grammar is one JSON shape for a sentence and its triplets:

    {"text": "...", "triplets": [["subject", "predicate", "object"], ...]}

where each triplet is a list of exactly three strings. It is shared by every
file that carries sentences or triplets: dataset lines, the example payloads
(and, as bare triplets, the triplet payloads) of an index file, prediction
lines and ``kgte retrieve`` output. ``triplet_from_json``,
``prediction_from_json`` (a prediction line) and ``sentence_from_json`` are
its only readers, ``triplet_to_json`` and ``sentence_to_json`` its only
writers. Every line-oriented file (dataset splits, prediction files,
``kgte fit`` CSVs) is read by ``parse_lines``, which adds the file and line
to a line's error.

Datasets are newline-delimited JSON files, one record per sentence, with one
file per split and a manifest JSON mapping split names to files:

    {"train": "train.jsonl", "validation": "valid.jsonl", "test": "test.jsonl"}

Every ``Triplet`` normalizes its surface strings at construction (lowercase,
underscores to spaces, whitespace runs collapsed), so that string equality is
meaningful between dataset labels, index payloads and generator output, and
interns them: each distinct normalized surface is one ``str`` object shared by
every triplet that carries it, whichever path built the triplet. Sentence text
is kept raw. ``Triplet`` memoizes the normal form of the first
``SURFACE_MEMO_SIZE`` raw surfaces (full: a 0.4 MB dict plus its raw keys).

``load_dataset`` interns its result by value, as ``build_index`` does:
while a dataset with equal splits is alive, it returns that same object and
drops its fresh parse. Its table holds each dataset weakly, so a dataset
lives exactly as long as its callers hold it.
"""

from __future__ import annotations

import json
import math
import numbers
import random
import sys
import weakref
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

SPLIT_NAMES = ("train", "validation", "test")
SURFACE_MEMO_SIZE = 1 << 14
_surfaces: dict[str, str] = {}  # raw -> canonical surface; no eviction: with few repeats each field would pay one
_set_field = object.__setattr__  # sets a frozen field; Triplet.__init__'s parameter ``object`` shadows the builtin
T = TypeVar("T")
# (train, validation, test) -> the live dataset with those splits
_live_datasets: weakref.WeakValueDictionary[tuple, Dataset] = weakref.WeakValueDictionary()


class DatasetFormatError(ValueError):
    """A dataset manifest or a line-oriented input (dataset split, prediction
    file, ``kgte fit`` CSV) is malformed; ``path`` and ``line`` locate it."""

    def __init__(self, message: str, path: str | Path | None = None, line: int | None = None):
        detail = str(message)
        if path is not None:
            detail = f"{path}: {detail}" if line is None else f"{path}:{line}: {detail}"
        super().__init__(detail)
        self.path = str(path) if path is not None else None
        self.line = line


def normalize_surface(raw: str) -> str:
    """Canonical surface form: trimmed, lowercased, underscores as spaces,
    internal whitespace runs collapsed to a single space. Idempotent."""
    return " ".join(raw.lower().replace("_", " ").split())


@dataclass(init=False, frozen=True, order=True, slots=True)
class Triplet:
    """A (subject, predicate, object) fact. Each field is the interned
    ``normalize_surface`` of its raw string; instances are slotted (no ``__dict__``)."""

    subject: str
    predicate: str
    object: str

    def __init__(self, subject: str, predicate: str, object: str) -> None:
        for name, raw in (("subject", subject), ("predicate", predicate), ("object", object)):
            surface = _surfaces.get(raw)
            if surface is None:  # memoized for the first SURFACE_MEMO_SIZE raws
                surface = sys.intern(normalize_surface(raw))
                if len(_surfaces) < SURFACE_MEMO_SIZE:
                    _surfaces[raw] = surface
            if not surface:
                raise ValueError(f"triplet {name} is empty after normalization")
            _set_field(self, name, surface)

    def as_tuple(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)


@dataclass(init=False, frozen=True, slots=True)
class AnnotatedSentence:
    """A sentence together with its gold triplet set (ordered, deduplicated:
    the first occurrence of each triplet is kept); slotted (no ``__dict__``)."""

    text: str
    gold: tuple[Triplet, ...]

    def __init__(self, text: str, gold: Iterable[Triplet]) -> None:
        if not text.strip():
            raise ValueError("sentence text is empty")
        _set_field(self, "text", text)
        _set_field(self, "gold", tuple(dict.fromkeys(gold)))


@dataclass(frozen=True)
class Dataset:
    """The three splits, each stored as a tuple. The statistics are derived
    from the sentences of train, validation and test, in that order."""

    train: tuple[AnnotatedSentence, ...]
    validation: tuple[AnnotatedSentence, ...]
    test: tuple[AnnotatedSentence, ...]

    def __post_init__(self) -> None:
        for name in SPLIT_NAMES:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not (self.train or self.validation or self.test):
            raise ValueError("dataset has no sentences")

    def _gold_sets(self) -> list[tuple[Triplet, ...]]:
        return [s.gold for s in self.train + self.validation + self.test]

    @cached_property
    def relation_vocab(self) -> frozenset[str]:
        return frozenset(t.predicate for gold in self._gold_sets() for t in gold)

    @cached_property
    def max_triplets(self) -> int:
        return max(map(len, self._gold_sets()))

    @cached_property
    def avg_triplets(self) -> float:
        sizes = list(map(len, self._gold_sets()))
        return sum(sizes) / len(sizes)

    def split(self, name: str) -> tuple[AnnotatedSentence, ...]:
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class DatasetStats:
    train: int
    validation: int
    test: int
    relations: int
    max_triplets: int
    avg_triplets: float

    def to_dict(self) -> dict:
        return asdict(self)


def dataset_stats(dataset: Dataset) -> DatasetStats:
    return DatasetStats(
        train=len(dataset.train),
        validation=len(dataset.validation),
        test=len(dataset.test),
        relations=len(dataset.relation_vocab),
        max_triplets=dataset.max_triplets,
        avg_triplets=dataset.avg_triplets,
    )


@dataclass(frozen=True)
class KnowledgeBase:
    """Deduplicated triplet set plus the sentences it was collected from."""

    triplets: tuple[Triplet, ...]
    examples: tuple[AnnotatedSentence, ...]


def gold_triplets(examples: Iterable[AnnotatedSentence]) -> tuple[Triplet, ...]:
    """The gold triplets of ``examples``, deduplicated in first-occurrence order."""
    return tuple(dict.fromkeys(t for ex in examples for t in ex.gold))


def _kb_from_examples(examples: tuple[AnnotatedSentence, ...]) -> KnowledgeBase:
    return KnowledgeBase(triplets=gold_triplets(examples), examples=examples)


def build_kb(
    train: Sequence[AnnotatedSentence], validation: Sequence[AnnotatedSentence]
) -> KnowledgeBase:
    """Pool train and validation examples, in that order, into a KB."""
    if not train or not validation:
        raise ValueError("build_kb requires non-empty train and validation splits")
    return _kb_from_examples(tuple(train) + tuple(validation))


def check_int(name: str, value: object, minimum: int | None = None) -> None:
    """Reject a ``value`` of field ``name`` that is not an ``int`` (a ``bool``
    is not one) or is below ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value: object, minimum: float | None = None, *, strict: bool = False) -> None:
    """Reject a ``value`` of field ``name`` that is not a real number (a
    ``bool`` is not one); with a ``minimum``, also one that is not finite or
    is below it (or, if ``strict``, not above it)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if minimum is not None and not (math.isfinite(value) and (value > minimum if strict else value >= minimum)):
        raise ValueError(f"{name} must be a finite number {'>' if strict else '>='} {minimum}, got {value}")


def check_scale(scale: float) -> None:
    """Reject a KB scale that is not a real number or lies outside [0, 1];
    NaN is outside too."""
    check_real("scale", scale)
    if not 0.0 <= scale <= 1.0:
        raise ValueError(f"scale must be in [0, 1], got {scale}")


def downscale_kb(kb: KnowledgeBase, scale: float, seed: int) -> KnowledgeBase:
    """Retain floor(scale * |examples|) examples, sampled uniformly without
    replacement; triplets are recomputed from the retained examples.

    Sampling takes a prefix of a seed-determined permutation, so for a fixed
    seed a smaller scale always retains a subset of a larger scale's examples.
    Retained examples keep their original order. A downscale that retains
    every example is ``kb`` itself, with nothing shuffled or recomputed, also
    for a KB whose triplets were given apart from its examples.
    """
    check_scale(scale)
    n = len(kb.examples)
    # tiny epsilon guards float error in products like 0.3 * 10 -> 2.999...
    keep = math.floor(scale * n + 1e-9)
    if keep == n:
        return kb
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return _kb_from_examples(tuple(kb.examples[i] for i in sorted(order[:keep])))


def triplet_from_json(raw: object) -> Triplet:
    """The ``Triplet`` a JSON value ``[subject, predicate, object]`` spells.

    Raises ``ValueError`` naming the value when it is not a list of exactly
    three strings or when a field is empty after normalization.
    """
    if not isinstance(raw, list) or len(raw) != 3 or not all(map(isinstance, raw, (str, str, str))):
        raise ValueError(f"triplet {raw!r} is not a 3-element list of strings")
    try:
        return Triplet(*raw)
    except ValueError as exc:
        raise ValueError(f"triplet {raw!r}: {exc}") from None


def triplet_to_json(triplet: Triplet) -> list[str]:
    """The JSON value ``[subject, predicate, object]`` that ``triplet_from_json`` reads back."""
    return [triplet.subject, triplet.predicate, triplet.object]


def prediction_from_json(obj: object) -> list[Triplet]:
    """The triplets of a prediction line: a JSON list of ``[s, p, o]`` lists,
    or an object holding one under ``"triplets"``; the list may be empty."""
    raw = obj.get("triplets") if isinstance(obj, dict) else obj
    if not isinstance(raw, list):
        raise ValueError("expected a list of triplets or an object with 'triplets'")
    return [triplet_from_json(item) for item in raw]


def sentence_from_json(obj: object) -> AnnotatedSentence:
    """The ``AnnotatedSentence`` a JSON record ``{"text": ..., "triplets":
    [...]}`` spells; other keys are ignored and the triplet list may be empty.

    Raises ``ValueError`` naming the bad field: a record that is not an
    object, a missing or non-string ``text``, a missing or non-list
    ``triplets``, a malformed triplet, or a blank text.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"record {obj!r} is not an object")
    text, triplets = obj.get("text"), obj.get("triplets")
    if not isinstance(text, str):
        raise ValueError("record field 'text' missing or not a string")
    if not isinstance(triplets, list):
        raise ValueError("record field 'triplets' missing or not a list")
    return AnnotatedSentence(text=text, gold=tuple(map(triplet_from_json, triplets)))


def sentence_to_json(sentence: AnnotatedSentence) -> dict:
    """The JSON record of a sentence, read back by ``sentence_from_json``:
    ``{"text": ..., "triplets": [[s, p, o], ...]}`` in gold order."""
    return {"text": sentence.text, "triplets": list(map(triplet_to_json, sentence.gold))}


def parse_lines(path: str | Path, parse: Callable[[str], T]) -> list[T]:
    """``parse`` of each non-blank line of ``path``, in order. Lines are
    decoded one by one, so invalid UTF-8 is located too; a ``ValueError`` from
    decoding or ``parse`` becomes a ``DatasetFormatError`` at ``path:line``."""
    values = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    values.append(parse(line))
            except ValueError as exc:
                raise DatasetFormatError(str(exc), path=path, line=lineno) from exc
    return values


def _record_from_line(line: str) -> AnnotatedSentence:
    record = sentence_from_json(json.loads(line))
    if not record.gold:
        raise ValueError("record field 'triplets' is empty")
    return record


def load_records(path: str | Path) -> list[AnnotatedSentence]:
    """Load one newline-delimited record file. Raises ``DatasetFormatError``
    carrying the offending line number on malformed input."""
    path = Path(path)
    records = parse_lines(path, _record_from_line)
    if not records:
        raise DatasetFormatError("split contains no records", path=path)
    return records


def load_predictions(path: str | Path) -> list[list[Triplet]]:
    """One ``prediction_from_json`` triplet list per non-blank line."""
    return parse_lines(path, lambda line: prediction_from_json(json.loads(line)))


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a dataset from a manifest file; split paths resolve relative to it.

    While a dataset with equal splits (train, validation, test) is alive,
    whatever files it was read from, that same object is returned and the
    fresh parse is dropped. A malformed split is never registered. The table
    holds each dataset weakly: it keeps no dataset alive.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"manifest is not valid JSON: {exc}", path=manifest_path) from exc
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"manifest is not valid UTF-8 at byte {exc.start}: {exc.reason}", path=manifest_path) from exc
    if not isinstance(manifest, dict):
        raise DatasetFormatError("manifest must be a JSON object", path=manifest_path)
    missing = [name for name in SPLIT_NAMES if name not in manifest]
    if missing:
        raise DatasetFormatError(f"manifest missing splits: {missing}", path=manifest_path)
    for name in SPLIT_NAMES:
        if not isinstance(manifest[name], str) or not manifest[name]:
            raise DatasetFormatError(f"split {name!r} path {manifest[name]!r} is not a non-empty string", path=manifest_path)
    # joining keeps an absolute split path as it is
    dataset = Dataset(*(load_records(manifest_path.parent / manifest[name]) for name in SPLIT_NAMES))
    return _live_datasets.setdefault((dataset.train, dataset.validation, dataset.test), dataset)


def save_dataset(dataset: Dataset, directory: str | Path) -> Path:
    """Write the dataset back out in the record grammar; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    filenames = {"train": "train.jsonl", "validation": "valid.jsonl", "test": "test.jsonl"}
    for name, filename in filenames.items():
        lines = [json.dumps(sentence_to_json(s)) for s in dataset.split(name)]
        (directory / filename).write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(filenames, indent=2) + "\n", encoding="utf-8")
    return manifest_path
