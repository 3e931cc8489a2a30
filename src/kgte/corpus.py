"""Sentence/triplet data model, its JSON grammar, dataset ingestion, and
knowledge-base construction.

The record grammar is one JSON shape for a sentence and its triplets:

    {"text": "...", "triplets": [["subject", "predicate", "object"], ...]}

where each triplet is a list of exactly three strings. It is shared by every
file that carries sentences or triplets: dataset lines, the example payloads
(and, as bare triplets, the triplet payloads) of an index file, prediction
lines and ``kgte retrieve`` output. ``triplet_from_json``,
``sentence_from_json`` and ``sentence_to_json`` are its only reader and
writer; each caller adds where the input came from to the error.

Datasets are newline-delimited JSON files, one record per sentence, with one
file per split and a manifest JSON mapping split names to files:

    {"train": "train.jsonl", "validation": "valid.jsonl", "test": "test.jsonl"}

Every ``Triplet`` normalizes its surface strings at construction (lowercase,
underscores to spaces, whitespace runs collapsed), so that string equality is
meaningful between dataset labels, index payloads and generator output, and
interns them: each distinct normalized surface is one ``str`` object shared by
every triplet that carries it, whichever path built the triplet. Sentence text
is kept raw. ``canonical_surface`` memoizes the first ``SURFACE_MEMO_SIZE`` raw surfaces
(full: a 0.4 MB dict plus its raw keys); the earlier code normalized every field.
"""

from __future__ import annotations

import json
import math
import numbers
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

SPLIT_NAMES = ("train", "validation", "test")
SURFACE_MEMO_SIZE = 1 << 14
_surfaces: dict[str, str] = {}  # raw -> canonical surface; no eviction: with few repeats each field would pay one
_set_field = object.__setattr__  # sets a frozen field; Triplet.__init__'s parameter ``object`` shadows the builtin


class DatasetFormatError(ValueError):
    """A dataset file or manifest violates the record grammar."""

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


def canonical_surface(raw: str) -> str:
    """``sys.intern(normalize_surface(raw))``; the first ``SURFACE_MEMO_SIZE`` raws are memoized."""
    surface = _surfaces.get(raw)
    if surface is None:
        surface = sys.intern(normalize_surface(raw))
        if len(_surfaces) < SURFACE_MEMO_SIZE:
            _surfaces[raw] = surface
    return surface


@dataclass(init=False, frozen=True, order=True, slots=True)
class Triplet:
    """A (subject, predicate, object) fact. Fields are canonical surfaces
    (``canonical_surface``); instances are slotted (no ``__dict__``)."""

    subject: str
    predicate: str
    object: str

    def __init__(self, subject: str, predicate: str, object: str) -> None:
        for name, raw in (("subject", subject), ("predicate", predicate), ("object", object)):
            surface = _surfaces.get(raw) or canonical_surface(raw)  # a hit makes no call
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
    train: tuple[AnnotatedSentence, ...]
    validation: tuple[AnnotatedSentence, ...]
    test: tuple[AnnotatedSentence, ...]
    relation_vocab: frozenset[str]
    max_triplets: int
    avg_triplets: float

    @classmethod
    def from_splits(
        cls,
        train: Sequence[AnnotatedSentence],
        validation: Sequence[AnnotatedSentence],
        test: Sequence[AnnotatedSentence],
    ) -> "Dataset":
        sentences = list(train) + list(validation) + list(test)
        if not sentences:
            raise ValueError("dataset has no sentences")
        sizes = [len(s.gold) for s in sentences]
        vocab = frozenset(t.predicate for s in sentences for t in s.gold)
        return cls(
            train=tuple(train),
            validation=tuple(validation),
            test=tuple(test),
            relation_vocab=vocab,
            max_triplets=max(sizes),
            avg_triplets=sum(sizes) / len(sizes),
        )

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
        return {
            "train": self.train,
            "validation": self.validation,
            "test": self.test,
            "relations": self.relations,
            "max_triplets": self.max_triplets,
            "avg_triplets": self.avg_triplets,
        }


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


def build_kb(
    train: Sequence[AnnotatedSentence], validation: Sequence[AnnotatedSentence]
) -> KnowledgeBase:
    """Pool train and validation examples, in that order, into a KB.

    Triplets are deduplicated preserving first-occurrence order.
    """
    if not train or not validation:
        raise ValueError("build_kb requires non-empty train and validation splits")
    examples = tuple(train) + tuple(validation)
    triplets = dict.fromkeys(t for ex in examples for t in ex.gold)
    return KnowledgeBase(triplets=tuple(triplets), examples=examples)


def check_int(name: str, value: object, minimum: int | None = None) -> None:
    """Reject a ``value`` of field ``name`` that is not an ``int`` (a ``bool``
    is not one) or is below ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_scale(scale: float) -> None:
    """Reject a KB scale that is not a real number or lies outside [0, 1];
    NaN is outside too."""
    if not isinstance(scale, numbers.Real) or isinstance(scale, bool):
        raise ValueError(f"scale must be a real number, got {scale!r}")
    if not 0.0 <= scale <= 1.0:
        raise ValueError(f"scale must be in [0, 1], got {scale}")


def downscale_kb(kb: KnowledgeBase, scale: float, seed: int) -> KnowledgeBase:
    """Retain floor(scale * |examples|) examples, sampled uniformly without
    replacement; triplets are recomputed from the retained examples.

    Sampling takes a prefix of a seed-determined permutation, so for a fixed
    seed a smaller scale always retains a subset of a larger scale's examples.
    Retained examples keep their original order.
    """
    check_scale(scale)
    n = len(kb.examples)
    # tiny epsilon guards float error in products like 0.3 * 10 -> 2.999...
    keep = math.floor(scale * n + 1e-9)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    retained = sorted(order[:keep])
    examples = tuple(kb.examples[i] for i in retained)
    triplets = dict.fromkeys(t for ex in examples for t in ex.gold)
    return KnowledgeBase(triplets=tuple(triplets), examples=examples)


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
    return {"text": sentence.text, "triplets": [list(t.as_tuple()) for t in sentence.gold]}


def load_records(path: str | Path) -> list[AnnotatedSentence]:
    """Load one newline-delimited record file. Raises ``DatasetFormatError``
    carrying the offending line number on malformed input."""
    path = Path(path)
    records: list[AnnotatedSentence] = []
    with path.open("rb") as fh:  # decoded per line, so invalid UTF-8 is located too
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = sentence_from_json(json.loads(line))
                if not record.gold:
                    raise ValueError("record field 'triplets' is empty")
            except ValueError as exc:
                raise DatasetFormatError(str(exc), path=path, line=lineno) from exc
            records.append(record)
    if not records:
        raise DatasetFormatError("split contains no records", path=path)
    return records


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a dataset from a manifest file; split paths resolve relative to it."""
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
    splits = {}
    for name in SPLIT_NAMES:
        if not isinstance(manifest[name], str):
            raise DatasetFormatError(f"split {name!r} path {manifest[name]!r} is not a string", path=manifest_path)
        split_path = Path(manifest[name])
        if not split_path.is_absolute():
            split_path = manifest_path.parent / split_path
        splits[name] = load_records(split_path)
    return Dataset.from_splits(splits["train"], splits["validation"], splits["test"])


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
