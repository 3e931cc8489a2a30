"""The record grammar shared by dataset lines, index payloads and prediction
lines: one reader and writer in ``corpus``, and each file reader adding only
where the input came from."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgte import (
    AnnotatedSentence,
    DatasetFormatError,
    EncoderConfig,
    IndexFormatError,
    KnowledgeBase,
    Triplet,
    build_index,
    load_index,
    load_records,
    save_index,
)
from kgte.corpus import load_predictions as _read_triplet_lines
from kgte.corpus import normalize_surface, sentence_from_json, sentence_to_json, triplet_from_json, triplet_to_json

# non-ASCII letters, underscores and whitespace runs, which normalization folds
_surface = st.text(st.sampled_from("aZé中ß_ \t\n"), min_size=1, max_size=10).filter(normalize_surface)
_fields = st.lists(_surface, min_size=3, max_size=3)
_text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20).filter(str.strip)
_sentences = st.builds(AnnotatedSentence, _text, st.lists(_fields.map(lambda f: Triplet(*f)), max_size=4).map(tuple))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None, database=None)
    @given(fields=_fields)
    def test_triplet(self, fields):
        t = Triplet(*fields)
        assert triplet_from_json(fields) == t
        assert triplet_from_json(triplet_to_json(t)) == t
        assert triplet_from_json(json.loads(json.dumps(triplet_to_json(t)))) == t

    @settings(max_examples=200, deadline=None, database=None)
    @given(sentence=_sentences)
    def test_sentence(self, sentence):
        assert sentence_from_json(sentence_to_json(sentence)) == sentence
        assert sentence_from_json(json.loads(json.dumps(sentence_to_json(sentence)))) == sentence

    def test_extra_keys_are_ignored(self):
        obj = {"text": "t", "triplets": [["a", "r", "b"]], "score": 0.5}
        assert sentence_from_json(obj) == AnnotatedSentence("t", (Triplet("a", "r", "b"),))


GOOD_TRIPLET = ["a", "r", "b"]

# every malformed triplet the grammar rejects
BAD_TRIPLETS = [
    pytest.param([1, "r", "b"], "3-element list of strings", id="int-field"),
    pytest.param(["a", None, "b"], "3-element list of strings", id="null-field"),
    pytest.param(["a", "r"], "3-element list of strings", id="two-fields"),
    pytest.param(["a", "r", "b", "c"], "3-element list of strings", id="four-fields"),
    pytest.param("a r b", "3-element list of strings", id="string"),
    pytest.param({"s": "a"}, "3-element list of strings", id="object"),
    pytest.param(["a", " _\t ", "b"], "predicate is empty after normalization", id="blank-field"),
]

# every malformed record the grammar rejects
BAD_RECORDS = [
    pytest.param([1, 2], "not an object", id="list"),
    pytest.param("text", "not an object", id="string"),
    pytest.param(None, "not an object", id="null"),
    pytest.param({"triplets": [GOOD_TRIPLET]}, "field 'text'", id="no-text"),
    pytest.param({"text": 5, "triplets": [GOOD_TRIPLET]}, "field 'text'", id="int-text"),
    pytest.param({"text": "  ", "triplets": [GOOD_TRIPLET]}, "sentence text is empty", id="blank-text"),
    pytest.param({"text": "ok"}, "field 'triplets'", id="no-triplets"),
    pytest.param({"text": "ok", "triplets": "a r b"}, "field 'triplets'", id="string-triplets"),
    pytest.param({"text": "ok", "triplets": {"0": GOOD_TRIPLET}}, "field 'triplets'", id="object-triplets"),
]


def _grammar_error(parse, raw) -> str:
    with pytest.raises(ValueError) as excinfo:
        parse(raw)
    return str(excinfo.value)


def _dataset_error(tmp_path, record) -> str:
    path = tmp_path / "split.jsonl"
    path.write_text(json.dumps({"text": "ok", "triplets": [GOOD_TRIPLET]}) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(DatasetFormatError) as excinfo:
        load_records(path)
    assert excinfo.value.line == 2
    return str(excinfo.value).removeprefix(f"{path}:2: ")


def _index_error(tmp_path, kind, payload) -> str:
    kb = KnowledgeBase(
        triplets=(Triplet("a", "r", "b"), Triplet("c", "r", "d")),
        examples=(AnnotatedSentence("a r b", (Triplet("a", "r", "b"),)), AnnotatedSentence("c r d", ())),
    )
    path = tmp_path / "index.json"
    save_index(build_index(kb, kind, config=EncoderConfig(dimension=16)), path)
    doc = json.loads(path.read_text())
    doc["payloads"][1] = payload
    path.write_text(json.dumps(doc))
    with pytest.raises(IndexFormatError) as excinfo:
        load_index(path)
    return str(excinfo.value).removeprefix(f"{path}: node 1: ")


def _prediction_error(tmp_path, line) -> str:
    path = tmp_path / "pred.jsonl"
    path.write_text(json.dumps([GOOD_TRIPLET]) + "\n" + json.dumps(line) + "\n")
    with pytest.raises(ValueError) as excinfo:
        _read_triplet_lines(str(path))
    return str(excinfo.value).removeprefix(f"{path}:2: ")


class TestEveryReaderRejectsTheSameInputs:
    """Each reader raises its own typed error, located by line or node, whose
    text after the location is the grammar's own message."""

    @pytest.mark.parametrize("triplet,needle", BAD_TRIPLETS)
    def test_bad_triplet(self, tmp_path, triplet, needle):
        expected = _grammar_error(triplet_from_json, triplet)
        assert needle in expected
        record = {"text": "ok", "triplets": [GOOD_TRIPLET, triplet]}
        assert _dataset_error(tmp_path, record) == expected
        assert _index_error(tmp_path, "triplet", triplet) == expected
        assert _index_error(tmp_path, "example", record) == expected
        assert _prediction_error(tmp_path, [GOOD_TRIPLET, triplet]) == expected
        assert _prediction_error(tmp_path, {"triplets": [triplet]}) == expected

    @pytest.mark.parametrize("record,needle", BAD_RECORDS)
    def test_bad_record(self, tmp_path, record, needle):
        expected = _grammar_error(sentence_from_json, record)
        assert needle in expected
        assert _dataset_error(tmp_path, record) == expected
        assert _index_error(tmp_path, "example", record) == expected


def test_index_example_payload_without_triplets_loads(tmp_path):
    # only a dataset record needs a gold triplet (test_corpus checks that rule)
    kb = KnowledgeBase(triplets=(), examples=(AnnotatedSentence("no facts here", ()),))
    path = tmp_path / "index.json"
    save_index(build_index(kb, "example", config=EncoderConfig(dimension=16)), path)
    assert json.loads(path.read_text())["payloads"] == [{"text": "no facts here", "triplets": []}]
    assert load_index(path).payloads[0] == AnnotatedSentence("no facts here", ())
