"""Every reader, fed a valid file with 1-3 bytes changed, either loads it or
raises its module's typed error naming the file (for an endpoint body, the
``APIError`` of the client). Any other exception is a reader defect."""

from __future__ import annotations

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgte._transport
from kgte import (
    APIError,
    DatasetFormatError,
    EncoderConfig,
    ExperimentRunSpec,
    IndexFormatError,
    VectorIndex,
    encode_texts,
    load_index,
    load_records,
    replay_experiment,
)
from kgte.cli import _read_xy_csv
from kgte.corpus import load_predictions
from kgte.extraction import GenerationConfig, RemoteLLMClient
from conftest import DATA_DIR, FAKE_EMBED_DIM, fake_embedding

_FUZZ = settings(max_examples=150, deadline=None, database=None)
_EXTERNAL_INDEX = DATA_DIR / "golden" / "external" / "triplet.index.json"


def mutated(original: bytes) -> st.SearchStrategy[bytes]:
    """``original`` with 1 to 3 of its bytes replaced by arbitrary bytes."""
    edits = st.lists(st.tuples(st.integers(0, len(original) - 1), st.integers(0, 255)), min_size=1, max_size=3)

    def apply(changes: list[tuple[int, int]]) -> bytes:
        data = bytearray(original)
        for position, byte in changes:
            data[position] = byte
        return bytes(data)

    return edits.map(apply)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_line_error_names(exc: DatasetFormatError, path, lines: int) -> None:
    assert exc.path == str(path)
    assert str(exc).startswith(f"{path}:")
    assert exc.line is None or 1 <= exc.line <= lines


@_FUZZ
@given(data=mutated((DATA_DIR / "mini" / "train.jsonl").read_bytes()))
def test_dataset_split(workdir, data):
    path = workdir / "train.jsonl"
    path.write_bytes(data)
    try:
        load_records(path)
    except DatasetFormatError as exc:
        _assert_line_error_names(exc, path, data.count(b"\n") + 1)


@_FUZZ
@given(data=mutated((DATA_DIR / "golden" / "cli" / "pred.jsonl").read_bytes()))
def test_prediction_file(workdir, data):
    path = workdir / "pred.jsonl"
    path.write_bytes(data)
    try:
        load_predictions(path)
    except DatasetFormatError as exc:
        _assert_line_error_names(exc, path, data.count(b"\n") + 1)


@_FUZZ
@given(data=mutated((DATA_DIR / "golden" / "cli" / "params.csv").read_bytes()))
def test_fit_csv(workdir, data):
    path = workdir / "params.csv"
    path.write_bytes(data)
    try:
        _read_xy_csv(str(path))
    except DatasetFormatError as exc:
        _assert_line_error_names(exc, path, data.count(b"\n") + 1)


def _load_mutated_index(workdir, header: bytes, matrix: bytes) -> None:
    path = workdir / "kb.index.json"
    path.write_bytes(header)
    path.with_suffix(".npy").write_bytes(matrix)
    try:
        assert isinstance(load_index(path), VectorIndex)
    except IndexFormatError as exc:
        assert str(exc).startswith(f"{path}: ")


@_FUZZ
@given(header=mutated(_EXTERNAL_INDEX.read_bytes()))
def test_index_header(workdir, header):
    _load_mutated_index(workdir, header, _EXTERNAL_INDEX.with_suffix(".npy").read_bytes())


@_FUZZ
@given(matrix=mutated(_EXTERNAL_INDEX.with_suffix(".npy").read_bytes()))
def test_index_matrix(workdir, matrix):
    _load_mutated_index(workdir, _EXTERNAL_INDEX.read_bytes(), matrix)


@pytest.fixture(scope="module")
def mini_spec(workdir) -> bytes:
    """A triplets-mode ``spec.json`` over a copy of the mini fixture."""
    shutil.copytree(DATA_DIR / "mini", workdir / "mini")
    spec = ExperimentRunSpec(manifest=str(workdir / "mini" / "manifest.json"), mode="triplets", extractor="random", n_kb=3)
    return spec.to_json().encode("utf-8")


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_spec_json(workdir, mini_spec, data):
    path = workdir / "spec.json"
    text = data.draw(mutated(mini_spec))
    path.write_bytes(text)
    try:
        replay_experiment(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: not a valid run spec: ")
    except FileNotFoundError as exc:
        # a spec that parses but names a manifest that is not there
        assert exc.filename == json.loads(text)["manifest"]


def _post_answering(body: bytes):
    """A transport that answers every POST with status 200 and ``body``,
    decoded as ``requests`` decodes a response's text."""
    return lambda url, payload, headers, timeout: (200, body.decode("utf-8", errors="replace"))


_COMPLETION = json.dumps({"choices": [{"message": {"role": "assistant", "content": "(rome, capital of, italy)"}}]}).encode()


@_FUZZ
@given(body=mutated(_COMPLETION))
def test_completions_body(body):
    client = RemoteLLMClient("http://llm.test/v1", GenerationConfig(), api_key="", transport=_post_answering(body))
    try:
        assert isinstance(client.generate("extract the triplets"), str)
    except APIError:
        pass


_EMBED_TEXTS = ["rome is the capital of italy", "paris lies in france"]
_EMBEDDINGS = json.dumps({"data": [{"embedding": fake_embedding(text)} for text in _EMBED_TEXTS]}).encode()


@_FUZZ
@given(body=mutated(_EMBEDDINGS))
def test_embeddings_body(body):
    config = EncoderConfig(provider="external", dimension=FAKE_EMBED_DIM, endpoint="http://embed.test/v1/embeddings", model="fake")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kgte._transport, "_requests_transport", _post_answering(body))
        try:
            assert encode_texts(_EMBED_TEXTS, config).shape == (2, FAKE_EMBED_DIM)
        except APIError:
            pass
