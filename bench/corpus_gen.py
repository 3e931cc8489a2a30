"""Seeded synthetic corpora in the kgte dataset grammar.

The generator reproduces the shape statistics the benchmark depends on
(split sizes, relation count, maximum and average triplets per sentence)
without any real data. Entities are drawn uniformly from a pool, so the pool
size controls how many (subject, predicate, object) triplets repeat across
sentences, and with it how many test triplets the knowledge base holds.

Stdlib only: it runs before, and independently of, the program under test.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass
from pathlib import Path

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "st", "tr", "gl")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "n", "r", "s", "l", "m")
_CONNECTIVES = (", and ", "; ", ", while ", ". ")


@dataclass(frozen=True)
class CorpusShape:
    train: int
    validation: int
    test: int
    relations: int
    max_triplets: int
    avg_triplets: float
    entity_pool: int


# WebNLG: 5019/500/703 sentences, 171 relations, at most 7 and on average
# 2.29 triplets per sentence. A pool of 40 entities makes about 2.5% of the
# drawn KB triplets repeats, leaving about 12.3k distinct KB triplets.
WEBNLG = CorpusShape(5019, 500, 703, 171, 7, 2.29, 40)

# NYT: 24 relations, at most 22 and on average 1.72 triplets per sentence, in
# the 56195/5000/5000 split proportions of the real corpus, scaled to 0.4 so
# that the KB holds about 40k distinct triplets (over 3x WebNLG's).
NYT = CorpusShape(22478, 2000, 2000, 24, 22, 1.72, 150)

SHAPES = {"webnlg": WEBNLG, "nyt": NYT}


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(syllables))


def _names(rng: random.Random, count: int, words: tuple[int, int]) -> list[str]:
    """``count`` distinct multi-word names; capitalised so the text reads like prose."""
    names: dict[str, None] = {}
    while len(names) < count:
        parts = [_word(rng, rng.randint(2, 3)) for _ in range(rng.randint(*words))]
        names.setdefault(" ".join(p.capitalize() for p in parts))
    return list(names)


def triplet_counts(rng: random.Random, total_sentences: int, max_triplets: int, avg: float) -> list[int]:
    """Per-sentence triplet counts whose maximum is exactly ``max_triplets``
    and whose mean is the closest reachable value to ``avg``.

    Counts start geometric (most sentences hold one triplet, as in both real
    corpora); one sentence is pinned at the maximum, then single increments
    or decrements on random unpinned sentences move the sum to its target.
    """
    if not 1 <= avg <= max_triplets or total_sentences < 2:
        raise ValueError("average must lie in [1, max_triplets] with at least two sentences")
    p = 1.0 / avg
    counts = []
    for _ in range(total_sentences):
        n = 1
        while n < max_triplets and rng.random() > p:
            n += 1
        counts.append(n)
    pinned = rng.randrange(total_sentences)
    counts[pinned] = max_triplets
    target = round(avg * total_sentences)
    target = min(max(target, max_triplets + total_sentences - 1), max_triplets * total_sentences)
    while (excess := sum(counts) - target) != 0:
        i = rng.randrange(total_sentences)
        if i == pinned:
            continue
        if excess > 0 and counts[i] > 1:
            counts[i] -= 1
        elif excess < 0 and counts[i] < max_triplets:
            counts[i] += 1
    return counts


def generate(shape: CorpusShape, seed: int) -> dict[str, list[dict]]:
    """Records per split, a pure function of (shape, seed)."""
    rng = random.Random(f"kgte-bench:{seed}")
    entities = _names(rng, shape.entity_pool, (1, 2))
    relations = [name.lower() for name in _names(rng, shape.relations, (1, 2))]
    sizes = {"train": shape.train, "validation": shape.validation, "test": shape.test}
    counts = iter(triplet_counts(rng, sum(sizes.values()), shape.max_triplets, shape.avg_triplets))
    seen_texts: set[str] = set()
    splits: dict[str, list[dict]] = {}
    for split, size in sizes.items():
        records = []
        while len(records) < size:
            n = next(counts)
            triplets: dict[tuple[str, str, str], None] = {}
            while len(triplets) < n:
                subject, obj = rng.sample(entities, 2)
                triplets.setdefault((subject, rng.choice(relations), obj))
            clauses = [f"{s} {p} {o}" for s, p, o in triplets]
            text = clauses[0] + "".join(rng.choice(_CONNECTIVES) + c for c in clauses[1:]) + "."
            while text in seen_texts:  # texts are unique so a prompt identifies its sentence
                text = f"{text[:-1]} {_word(rng, 2)}."
            seen_texts.add(text)
            records.append({"text": text, "triplets": [list(t) for t in triplets]})
        splits[split] = records
    return splits


def _normalize(raw: str) -> str:
    """The program's surface normalisation, restated so stats are computed
    without importing it: lowercase, underscores as spaces, single spaces."""
    return " ".join(raw.lower().replace("_", " ").split())


def stats(splits: dict[str, list[dict]]) -> dict:
    """The statistics ``kgte.dataset_stats`` reports, computed independently."""
    records = [r for split in splits.values() for r in split]
    sizes = [len(r["triplets"]) for r in records]
    return {
        "train": len(splits["train"]),
        "validation": len(splits["validation"]),
        "test": len(splits["test"]),
        "relations": len({_normalize(t[1]) for r in records for t in r["triplets"]}),
        "max_triplets": max(sizes),
        "avg_triplets": sum(sizes) / len(sizes),
    }


def check_shape(shape: CorpusShape, produced: dict) -> None:
    """Raise unless the produced corpus has the target's exact maximum and an
    average within 0.05 of the target."""
    if produced["max_triplets"] != shape.max_triplets:
        raise ValueError(f"max triplets {produced['max_triplets']} != target {shape.max_triplets}")
    if abs(produced["avg_triplets"] - shape.avg_triplets) > 0.05:
        raise ValueError(f"avg triplets {produced['avg_triplets']:.4f} not within 0.05 of {shape.avg_triplets}")
    for key in ("train", "validation", "test", "relations"):
        if produced[key] != getattr(shape, key):
            raise ValueError(f"{key} {produced[key]} != target {getattr(shape, key)}")


def write_corpus(shape: CorpusShape, seed: int, directory: Path) -> Path:
    """Generate, check and write the corpus to ``directory``; returns the
    manifest path. An existing complete corpus is reused as is."""
    manifest = directory / "manifest.json"
    if manifest.exists():
        return manifest
    splits = generate(shape, seed)
    produced = stats(splits)
    check_shape(shape, produced)
    staging = directory.with_name(directory.name + f".tmp{os.getpid()}")
    staging.mkdir(parents=True, exist_ok=True)
    files = {"train": "train.jsonl", "validation": "valid.jsonl", "test": "test.jsonl"}
    for split, filename in files.items():
        lines = (json.dumps(r) for r in splits[split])
        (staging / filename).write_text("\n".join(lines) + "\n", encoding="utf-8")
    (staging / "dataset_stats.json").write_text(
        json.dumps({"shape": asdict(shape), "seed": seed, "stats": produced}, indent=2) + "\n", encoding="utf-8"
    )
    (staging / "manifest.json").write_text(json.dumps(files) + "\n", encoding="utf-8")
    staging.rename(directory)
    return manifest
