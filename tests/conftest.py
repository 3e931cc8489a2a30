from __future__ import annotations

import gc
import hashlib
import json
import logging
import random
from pathlib import Path

import pytest

import kgte._transport
import kgte.corpus
from kgte import AnnotatedSentence, Dataset, Triplet, save_dataset, triplet_to_string

DATA_DIR = Path(__file__).parent / "data"

# known statistics of the committed mini fixture
MINI_STATS = {
    "train": 8,
    "validation": 2,
    "test": 4,
    "relations": 5,
    "max_triplets": 3,
    "avg_triplets": 22 / 14,
}

_CONSONANTS = "bcdfghjklmnpqrstvwxz"

# the dimension of fake_embedding's vectors
FAKE_EMBED_DIM = 8


def fake_embedding(text: str) -> list[int]:
    """A stand-in embedding that is a deterministic function of ``text``: 3
    and 4 at two coordinates picked by its SHA-256. Its norm is exactly 5, so
    its unit vector is the same, bit for bit, on every host."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    first = digest[0] % FAKE_EMBED_DIM
    second = (first + 1 + digest[1] % (FAKE_EMBED_DIM - 1)) % FAKE_EMBED_DIM
    vector = [0] * FAKE_EMBED_DIM
    vector[first], vector[second] = 3, 4
    return vector


@pytest.fixture
def embed_posts(monkeypatch) -> list[list[str]]:
    """Answers every embeddings POST in process, with ``fake_embedding`` of
    each input, in place of the network transport; returns the input list of
    each POST, in order."""
    posts = []

    def transport(url, payload, headers, timeout):
        posts.append(payload["input"])
        return 200, json.dumps({"data": [{"embedding": fake_embedding(text)} for text in payload["input"]]})

    monkeypatch.setattr(kgte._transport, "_requests_transport", transport)
    return posts


@pytest.fixture
def llm_requests(caplog):
    """Reads the ``request`` entry of each record the LLM client has logged
    on ``kgte.extraction`` so far, in order."""
    caplog.set_level(logging.DEBUG, logger="kgte.extraction")
    return lambda: [record.request for record in caplog.records if record.name == "kgte.extraction"]


@pytest.fixture
def mini_manifest() -> Path:
    return DATA_DIR / "mini" / "manifest.json"


# records in the mini fixture's three splits
MINI_RECORDS = MINI_STATS["train"] + MINI_STATS["validation"] + MINI_STATS["test"]


@pytest.fixture
def parsed_records(monkeypatch) -> list[str]:
    """The record lines ``load_dataset`` parses, in order. Garbage is
    collected first, so no dataset an earlier test dropped is still live."""
    gc.collect()
    lines = []
    real = kgte.corpus._record_from_line

    def counting(line):
        lines.append(line)
        return real(line)

    monkeypatch.setattr(kgte.corpus, "_record_from_line", counting)
    return lines


def _token(rng: random.Random, length: int = 8) -> str:
    return "".join(rng.choice(_CONSONANTS) for _ in range(length))


def planted_pair_records(count: int = 50, seed: int = 77) -> list[AnnotatedSentence]:
    """Sentences with two gold triplets each; every entity and predicate is
    derived from a sentence-unique token, so each sentence's own triplets are
    its nearest KB neighbors under the hashed n-gram encoder."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        tok = _token(rng)
        t1 = Triplet(f"{tok}a", f"{tok}p", f"{tok}b")
        t2 = Triplet(f"{tok}c", f"{tok}q", f"{tok}d")
        text = f"{triplet_to_string(t1)} {triplet_to_string(t2)}"
        records.append(AnnotatedSentence(text, (t1, t2)))
    return records


def planted_single_records(count: int = 30, seed: int = 99) -> list[AnnotatedSentence]:
    """One gold triplet per sentence; the sentence text IS the triplet string,
    so the query vector equals its own triplet node vector exactly."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        tok = _token(rng)
        t = Triplet(f"{tok}a", f"{tok}p", f"{tok}b")
        records.append(AnnotatedSentence(triplet_to_string(t), (t,)))
    return records


def planted_dataset(records: list[AnnotatedSentence], holdout: int = 5) -> Dataset:
    """Dataset whose test split is fully covered by the train+validation KB."""
    return Dataset(records[:-holdout], records[-holdout:], records)


@pytest.fixture
def planted_pair_manifest(tmp_path: Path) -> Path:
    return save_dataset(planted_dataset(planted_pair_records()), tmp_path / "planted")
