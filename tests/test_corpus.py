from __future__ import annotations

import dataclasses
import gc
import json
import os
import pickle
import random
import shutil
import string
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgte import (
    AnnotatedSentence,
    Dataset,
    DatasetFormatError,
    KnowledgeBase,
    Triplet,
    build_kb,
    dataset_stats,
    downscale_kb,
    load_dataset,
    load_records,
    normalize_surface,
    save_dataset,
)
from kgte import corpus
from kgte.corpus import SURFACE_MEMO_SIZE, parse_lines
from conftest import MINI_RECORDS, MINI_STATS


class TestNormalizeSurface:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Alan_Bean ", "alan bean"),
            ("United  States", "united states"),
            ("", ""),
            ("  \t\n ", ""),
            ("A__B", "a b"),
            ("MIXED_Case  String", "mixed case string"),
        ],
    )
    def test_rules(self, raw, expected):
        assert normalize_surface(raw) == expected

    def test_idempotent_on_random_strings(self):
        rng = random.Random(1)
        alphabet = string.ascii_letters + string.digits + "_ \t-()"
        for _ in range(500):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            once = normalize_surface(raw)
            assert normalize_surface(once) == once


class TestTriplet:
    def test_fields_normalized_and_equality(self):
        a = Triplet("Alan_Bean", "NATIONALITY", "United  States")
        b = Triplet("alan bean", "nationality", "united states")
        assert a == b
        assert a.as_tuple() == ("alan bean", "nationality", "united states")

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            Triplet("a", "  _ ", "b")

    def test_gold_deduplicated_on_construction(self):
        t = Triplet("a", "r", "b")
        s = AnnotatedSentence("some text", (t, Triplet("A", "R", "B")))
        assert s.gold == (t,)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            AnnotatedSentence("   ", (Triplet("a", "r", "b"),))


def _surface_objects_shared(triplets) -> bool:
    """True if each distinct surface value among the fields is one object."""
    fields = [f for t in triplets for f in t.as_tuple()]
    return len({id(f) for f in fields}) == len(set(fields))


class TestMemoryLayout:
    def test_records_have_no_instance_dict(self):
        t = Triplet("a", "r", "b")
        s = AnnotatedSentence("some text", (t,))
        assert not hasattr(t, "__dict__")
        assert not hasattr(s, "__dict__")

    def test_equal_surfaces_are_one_object(self):
        a = Triplet("Rome", "Capital_of", "Italy")
        b = Triplet("Canberra", "capital  of", "Australia")
        assert a.predicate is b.predicate

    def test_loaded_dataset_shares_surface_objects(self, mini_manifest):
        dataset = load_dataset(mini_manifest)
        triplets = [t for s in dataset.train + dataset.validation + dataset.test for t in s.gold]
        assert len({f for t in triplets for f in t.as_tuple()}) < 3 * len(triplets)  # surfaces do repeat
        assert _surface_objects_shared(triplets)
        # and with triplets built elsewhere
        assert Triplet("Rome", "capital_of", "Italy").subject is dataset.test[2].gold[0].subject


FIELDS = ("subject", "predicate", "object")
# spellings that normalization changes: "İ" lowercases to two code points;
# NBSP, U+3000, U+2028 and U+0085 are whitespace to str.split()
_odd_field = st.text(
    st.one_of(st.sampled_from("İ\u00a0\u3000\u2028\u0085_ \t"), st.characters(blacklist_categories=("Cs",))),
    max_size=8,
)


class TestConstructorContract:
    """``Triplet(s, p, o)`` is the only constructor: each field is
    ``sys.intern(normalize_surface(raw))``, checked in field order."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(raw=st.tuples(_odd_field, _odd_field, _odd_field))
    def test_fields_are_interned_normal_forms(self, raw):
        expected = [normalize_surface(f) for f in raw]
        if not all(expected):
            first = FIELDS[expected.index("")]
            with pytest.raises(ValueError, match=f"^triplet {first} is empty after normalization$"):
                Triplet(*raw)
            return
        triplet = Triplet(*raw)
        for value, f in zip(triplet.as_tuple(), raw):
            assert value is sys.intern(normalize_surface(f))

    @settings(max_examples=200, deadline=None, database=None)
    @given(raw=_odd_field.filter(normalize_surface))
    def test_two_spellings_share_one_object(self, raw):
        respelled = "\u3000" + raw.replace(" ", "_") + "\u00a0_\u2028"
        assert Triplet(raw, raw, raw).subject is Triplet(respelled, "p", respelled).object

    @settings(max_examples=200, deadline=None, database=None)
    @given(fields=st.lists(st.one_of(_odd_field, st.integers(), st.none()), min_size=3, max_size=3))
    def test_first_bad_field_decides(self, fields):
        bad = next((i for i, f in enumerate(fields) if not isinstance(f, str) or not normalize_surface(f)), None)
        if bad is None:
            assert Triplet(*fields).as_tuple() == tuple(map(normalize_surface, fields))
        elif isinstance(fields[bad], str):  # a later field that is not a str does not matter
            with pytest.raises(ValueError, match=f"^triplet {FIELDS[bad]} is empty after normalization$"):
                Triplet(*fields)
        else:
            with pytest.raises(AttributeError):
                Triplet(*fields)

    def test_replace_pickle_order_and_hash(self):
        a = Triplet("Rome", "Capital_of", "Italy")
        b = dataclasses.replace(a, subject="CANBERRA", object="  australia ")
        assert b == Triplet("canberra", "capital of", "australia")
        assert b.subject is sys.intern("canberra") and b.predicate is a.predicate
        with pytest.raises(ValueError, match="^triplet object is empty"):
            dataclasses.replace(a, object="_")
        assert pickle.loads(pickle.dumps(a)) == a
        assert [t.as_tuple() for t in sorted([a, b])] == sorted([a.as_tuple(), b.as_tuple()])
        assert b < a and not a < a
        assert hash(a) == hash(a.as_tuple()) == hash(Triplet("ROME", "capital of", "italy"))


# few distinct values, so that a list of them repeats triplets often
_few_triplets = st.builds(Triplet, st.sampled_from("abc"), st.sampled_from("rs"), st.sampled_from("xy"))


class TestSentenceContract:
    """``AnnotatedSentence(text, gold)`` keeps ``text`` as given and stores
    ``gold`` once, as a tuple deduplicated in first-occurrence order."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(text=st.text(st.sampled_from("a \t\u3000"), max_size=4), gold=st.lists(_few_triplets, max_size=8))
    def test_gold_is_deduplicated_in_first_occurrence_order(self, text, gold):
        if not text.strip():
            with pytest.raises(ValueError, match="^sentence text is empty$"):
                AnnotatedSentence(text, tuple(gold))
            return
        expected = tuple(dict.fromkeys(gold))
        for given_gold in (gold, tuple(gold), iter(gold)):
            sentence = AnnotatedSentence(text, given_gold)
            assert sentence.text is text
            assert type(sentence.gold) is tuple and sentence.gold == expected
            assert all(a is b for a, b in zip(sentence.gold, expected, strict=True))

    def test_replace_pickle_equality_and_hash(self):
        t, u = Triplet("a", "r", "b"), Triplet("c", "r", "d")
        s = AnnotatedSentence("one", (t, u, Triplet("A", "R", "B")))
        assert s == AnnotatedSentence(text="one", gold=[t, u]) and s != AnnotatedSentence("one", (u, t))
        assert hash(s) == hash(AnnotatedSentence("one", (t, u))) == hash(("one", (t, u)))
        replaced = dataclasses.replace(s, gold=(u, u, t))
        assert replaced.gold == (u, t) and replaced.text is s.text
        with pytest.raises(ValueError, match="^sentence text is empty$"):
            dataclasses.replace(s, text=" ")
        assert pickle.loads(pickle.dumps(s)) == s
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.gold = ()
        assert repr(s) == f"AnnotatedSentence(text='one', gold={(t, u)!r})"


class TestSurfaceMemo:
    def test_reload_normalizes_each_distinct_raw_surface_once(self, mini_manifest, monkeypatch):
        raw_surfaces = set()
        for name in json.loads(mini_manifest.read_text()).values():
            for line in (mini_manifest.parent / name).read_text().splitlines():
                raw_surfaces.update(f for t in json.loads(line)["triplets"] for f in t)
        calls = []
        monkeypatch.setattr(corpus, "_surfaces", {})
        monkeypatch.setattr(corpus, "normalize_surface", lambda raw: calls.append(raw) or normalize_surface(raw))
        first = load_dataset(mini_manifest)
        splits, alive = (first.train, first.validation, first.test), weakref.ref(first)
        del first
        gc.collect()
        assert alive() is None  # so the reload parses every record again
        second = load_dataset(mini_manifest)
        assert (second.train, second.validation, second.test) == splits
        assert sorted(calls) == sorted(raw_surfaces)

    def test_memo_stops_admitting_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(corpus, "_surfaces", {})
        for i in range(SURFACE_MEMO_SIZE + 100):
            Triplet(f"Entity_{i}", "p", "o")
        assert len(corpus._surfaces) == SURFACE_MEMO_SIZE
        assert "Entity_0" in corpus._surfaces
        # a surface past the bound is normalized on each call, to the same object
        late = f"Entity_{SURFACE_MEMO_SIZE + 50}"
        assert late not in corpus._surfaces
        assert Triplet(late, "p", "o").subject is Triplet(late.upper(), "p", "o").subject
        assert len(corpus._surfaces) == SURFACE_MEMO_SIZE


# raw surface text: non-ASCII, underscores and whitespace runs included
_raw_field = st.text(
    st.one_of(st.sampled_from("_ \t\u00a0\u3000"), st.characters(blacklist_categories=("Cs", "Cc"))),
    min_size=1,
    max_size=12,
).filter(normalize_surface)


@st.composite
def _raw_records(draw):
    """(text, raw triplets) records whose triplets repeat, within a record too."""
    pool = draw(st.lists(st.tuples(_raw_field, _raw_field, _raw_field), min_size=1, max_size=6))
    text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20).filter(str.strip)
    record = st.tuples(text, st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    return draw(st.lists(record, min_size=3, max_size=8))


class TestDatasetRoundTrip:
    @settings(max_examples=100, deadline=None, database=None)
    @given(records=_raw_records())
    def test_save_load_round_trip_normalizes_once(self, tmp_path_factory, records):
        sentences = [AnnotatedSentence(text, tuple(Triplet(*raw) for raw in raws)) for text, raws in records]
        dataset = Dataset(sentences[:1], sentences[1:2], sentences[2:])
        reloaded = load_dataset(save_dataset(dataset, tmp_path_factory.mktemp("dataset")))
        assert reloaded == dataset
        reloaded_sentences = reloaded.train + reloaded.validation + reloaded.test
        for (text, raws), sentence in zip(records, reloaded_sentences):
            assert sentence.text == text
            expected = dict.fromkeys(tuple(normalize_surface(f) for f in raw) for raw in raws)
            assert [t.as_tuple() for t in sentence.gold] == list(expected)
        assert _surface_objects_shared([t for s in reloaded_sentences for t in s.gold])


class TestParseLines:
    def test_parses_the_non_blank_lines_in_order(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"a\n \t\n\nb\r\nc")
        assert parse_lines(path, str.strip) == ["a", "b", "c"]

    def test_error_names_the_path_as_given_and_the_line(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("lines.txt").write_text("1\n\nx\n")
        with pytest.raises(DatasetFormatError) as excinfo:
            parse_lines("./lines.txt", int)
        assert (excinfo.value.path, excinfo.value.line) == ("./lines.txt", 3)
        assert str(excinfo.value) == "./lines.txt:3: invalid literal for int() with base 10: 'x\\n'"

    def test_other_errors_propagate(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("a\n")
        with pytest.raises(KeyError):
            parse_lines(path, {}.__getitem__)


class TestLoadDataset:
    def test_mini_fixture_statistics(self, mini_manifest):
        stats = dataset_stats(load_dataset(mini_manifest))
        assert stats.train == MINI_STATS["train"]
        assert stats.validation == MINI_STATS["validation"]
        assert stats.test == MINI_STATS["test"]
        assert stats.relations == MINI_STATS["relations"]
        assert stats.max_triplets == MINI_STATS["max_triplets"]
        assert abs(stats.avg_triplets - MINI_STATS["avg_triplets"]) < 0.005

    def test_dataset_stores_only_its_splits(self, mini_manifest):
        dataset = load_dataset(mini_manifest)
        assert [f.name for f in dataclasses.fields(Dataset)] == ["train", "validation", "test"]
        rebuilt = Dataset(list(dataset.train), list(dataset.validation), list(dataset.test))
        assert rebuilt == dataset and isinstance(rebuilt.train, tuple)
        assert dataset_stats(rebuilt) == dataset_stats(dataset)

    def test_dataset_without_sentences_rejected(self):
        with pytest.raises(ValueError, match="dataset has no sentences"):
            Dataset((), [], ())

    def test_single_record_fixture(self, tmp_path):
        (tmp_path / "one.jsonl").write_text('{"text":"a","triplets":[["x","r","y"]]}\n')
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"train": "one.jsonl", "validation": "one.jsonl", "test": "one.jsonl"}))
        dataset = load_dataset(manifest)
        assert dataset.max_triplets == 1
        assert dataset.avg_triplets == 1.0
        assert dataset.relation_vocab == {"r"}

    def test_stats_consistent_with_gold_sizes(self, mini_manifest):
        dataset = load_dataset(mini_manifest)
        sizes = [len(s.gold) for s in dataset.train + dataset.validation + dataset.test]
        assert max(sizes) == dataset.max_triplets
        assert abs(sum(sizes) / len(sizes) - dataset.avg_triplets) < 0.005
        vocab = {t.predicate for s in dataset.train + dataset.validation + dataset.test for t in s.gold}
        assert vocab == dataset.relation_vocab

    def test_malformed_record_carries_line_number(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"text":"ok","triplets":[["a","r","b"]]}\nnot json at all\n')
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"train": "bad.jsonl", "validation": "bad.jsonl", "test": "bad.jsonl"}))
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(manifest)
        assert excinfo.value.line == 2

    def test_record_missing_triplets_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"text":"ok","triplets":[]}\n')
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"train": "bad.jsonl", "validation": "bad.jsonl", "test": "bad.jsonl"}))
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(manifest)
        assert excinfo.value.line == 1

    def test_invalid_utf8_carries_path_and_line_number(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"text":"ok","triplets":[["a","r","b"]]}\n\n{"text":"caf\xe9","triplets":[["a","r","b"]]}\n')
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"train": "bad.jsonl", "validation": "bad.jsonl", "test": "bad.jsonl"}))
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(manifest)
        assert excinfo.value.line == 3
        assert str(excinfo.value).startswith(f"{bad}:3: ")

    def test_invalid_utf8_manifest_names_the_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"train": "tr\xffin.jsonl"}')
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(manifest)
        assert excinfo.value.path == str(manifest)
        assert "not valid UTF-8 at byte 13" in str(excinfo.value)

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param('{"train": ', "manifest is not valid JSON: ", id="invalid-json"),
            pytest.param('["train.jsonl"]', "manifest must be a JSON object", id="not-an-object"),
            pytest.param('{"train": "t.jsonl"}', "manifest missing splits: ['validation', 'test']", id="missing-splits"),
            pytest.param(
                '{"train": "", "validation": "v.jsonl", "test": "t.jsonl"}',
                "split 'train' path '' is not a non-empty string",
                id="empty-split-path",
            ),
        ],
    )
    def test_malformed_manifest_names_the_manifest(self, tmp_path, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(manifest)
        assert (excinfo.value.path, excinfo.value.line) == (str(manifest), None)
        assert str(excinfo.value).startswith(f"{manifest}: {message}")

    @pytest.mark.parametrize("value", [5, None, ["train.jsonl"]])
    def test_non_string_split_path_names_the_manifest(self, mini_manifest, tmp_path, value):
        manifest = tmp_path / "manifest.json"
        splits = {"train": value, "validation": str(mini_manifest.parent / "valid.jsonl"), "test": "test.jsonl"}
        manifest.write_text(json.dumps(splits))
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(manifest)
        assert excinfo.value.path == str(manifest)
        assert "'train'" in str(excinfo.value)

    def test_absolute_and_relative_split_paths_load_alike(self, mini_manifest, tmp_path):
        for split in ("valid.jsonl", "test.jsonl"):
            shutil.copy(mini_manifest.parent / split, tmp_path / split)
        manifest = tmp_path / "manifest.json"
        splits = {"train": str(mini_manifest.parent / "train.jsonl"), "validation": "valid.jsonl", "test": "test.jsonl"}
        manifest.write_text(json.dumps(splits))
        assert load_dataset(manifest) == load_dataset(mini_manifest)

    def test_empty_split_rejected(self, tmp_path):
        (tmp_path / "empty.jsonl").write_text("")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"train": "empty.jsonl", "validation": "empty.jsonl", "test": "empty.jsonl"}))
        with pytest.raises(DatasetFormatError):
            load_dataset(manifest)

    def test_save_load_round_trip(self, mini_manifest, tmp_path):
        dataset = load_dataset(mini_manifest)
        manifest = save_dataset(dataset, tmp_path / "copy")
        reloaded = load_dataset(manifest)
        assert reloaded == dataset
        # and a second round trip is stable too
        manifest2 = save_dataset(reloaded, tmp_path / "copy2")
        assert load_dataset(manifest2) == dataset


def _copy_mini(mini_manifest, directory) -> Path:
    """A copy of the mini fixture's manifest and splits in ``directory``."""
    shutil.copytree(mini_manifest.parent, directory)
    return directory / mini_manifest.name


class TestOneLiveCopy:
    def test_identical_bytes_elsewhere_give_the_same_object(self, mini_manifest, tmp_path):
        held = load_dataset(mini_manifest)
        assert load_dataset(_copy_mini(mini_manifest, tmp_path / "copy")) is held
        assert load_dataset(mini_manifest) is held

    @pytest.mark.parametrize("copy", ["train.jsonl", "valid.jsonl", "test.jsonl", "save_dataset"])
    def test_equal_records_from_other_bytes_give_the_held_object(self, mini_manifest, tmp_path, parsed_records, copy):
        held = load_dataset(mini_manifest)
        if copy == "save_dataset":
            manifest = save_dataset(held, tmp_path / "copy")  # normalized surfaces: other bytes
        else:
            manifest = _copy_mini(mini_manifest, tmp_path / "copy")
            data = bytearray((manifest.parent / copy).read_bytes())
            data[-1:] = b" "  # the last newline: the records stay equal, the bytes do not
            (manifest.parent / copy).write_bytes(data)
        del parsed_records[:]
        assert load_dataset(manifest) is held
        assert len(parsed_records) == MINI_RECORDS  # a hit parses; the fresh copy is dropped

    @pytest.mark.parametrize("split", ["train.jsonl", "valid.jsonl", "test.jsonl"])
    def test_one_changed_byte_in_any_split_parses_again(self, mini_manifest, tmp_path, split):
        held = load_dataset(mini_manifest)
        manifest = _copy_mini(mini_manifest, tmp_path / "copy")
        data = bytearray((manifest.parent / split).read_bytes())
        first = data.rindex(b'{"text": "') + len(b'{"text": "')
        data[first : first + 1] = data[first : first + 1].swapcase()  # the last record's text changes case
        (manifest.parent / split).write_bytes(data)
        changed = load_dataset(manifest)
        assert changed is not held and changed != held
        assert load_dataset(manifest) is changed

    def test_a_dropped_dataset_is_parsed_again(self, mini_manifest, parsed_records):
        held = load_dataset(mini_manifest)
        alive = weakref.ref(held)
        del held
        gc.collect()
        assert alive() is None
        assert len(parsed_records) == MINI_RECORDS
        load_dataset(mini_manifest)
        assert len(parsed_records) == 2 * MINI_RECORDS

    def test_a_malformed_split_raises_the_same_error_every_time(self, mini_manifest, tmp_path, parsed_records):
        held = load_dataset(mini_manifest)  # the other splits' records are those of a live dataset
        live = set(corpus._live_datasets.keys())
        manifest = _copy_mini(mini_manifest, tmp_path / "copy")
        with open(manifest.parent / "test.jsonl", "a") as fh:
            fh.write("not json at all\n")
        errors = []
        for _ in range(2):
            with pytest.raises(DatasetFormatError) as excinfo:
                load_dataset(manifest)
            errors.append((type(excinfo.value), str(excinfo.value), excinfo.value.path, excinfo.value.line))
        assert errors[0] == errors[1]
        assert errors[0][2:] == (str(manifest.parent / "test.jsonl"), MINI_STATS["test"] + 1)
        assert set(corpus._live_datasets.keys()) == live
        assert load_dataset(mini_manifest) is held

    def test_a_named_pipe_split_loads(self, mini_manifest, tmp_path):
        manifest = _copy_mini(mini_manifest, tmp_path / "copy")
        test_split = manifest.parent / "test.jsonl"
        records = test_split.read_bytes()
        test_split.unlink()
        os.mkfifo(test_split)
        loaded = []

        def load():
            try:
                loaded.append(load_dataset(manifest))
            except Exception as exc:
                loaded.append(exc)

        # both ends run in daemon threads joined with a timeout, so a load that
        # blocks on the pipe fails this test instead of stalling the run
        writer = threading.Thread(target=test_split.write_bytes, args=(records,), daemon=True)
        loader = threading.Thread(target=load, daemon=True)
        writer.start()
        loader.start()
        for thread in (loader, writer):
            thread.join(timeout=10)
        assert not loader.is_alive() and not writer.is_alive()
        assert loaded == [load_dataset(mini_manifest)]

    def test_a_directory_split_raises_an_os_error_naming_it(self, mini_manifest, tmp_path):
        manifest = _copy_mini(mini_manifest, tmp_path / "copy")
        test_split = manifest.parent / "test.jsonl"
        test_split.unlink()
        test_split.mkdir()
        with pytest.raises(OSError) as excinfo:
            load_dataset(manifest)
        assert excinfo.value.filename == str(test_split)

    def test_a_bad_train_line_is_reported_before_a_missing_test_split(self, tmp_path):
        (tmp_path / "train.jsonl").write_text("not json at all\n")
        (tmp_path / "valid.jsonl").write_text('{"text":"ok","triplets":[["a","r","b"]]}\n')
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"train": "train.jsonl", "validation": "valid.jsonl", "test": "test.jsonl"}))
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(manifest)
        assert (excinfo.value.path, excinfo.value.line) == (str(tmp_path / "train.jsonl"), 1)


class TestBuildKb:
    def test_shared_triplet_deduplicated(self):
        t = Triplet("a", "r", "b")
        s1 = AnnotatedSentence("one", (t,))
        s2 = AnnotatedSentence("two", (t, Triplet("c", "r", "d")))
        kb = build_kb([s1], [s2])
        assert kb.triplets.count(t) == 1
        assert kb.triplets == (t, Triplet("c", "r", "d"))

    def test_example_order_is_train_then_validation(self):
        s1 = AnnotatedSentence("one", (Triplet("a", "r", "b"),))
        s2 = AnnotatedSentence("two", (Triplet("c", "r", "d"),))
        kb = build_kb([s1], [s2])
        assert kb.examples == (s1, s2)

    def test_empty_split_rejected(self):
        s = AnnotatedSentence("one", (Triplet("a", "r", "b"),))
        with pytest.raises(ValueError):
            build_kb([], [s])


def _toy_kb(n=100):
    examples = [
        AnnotatedSentence(f"sentence {i}", (Triplet(f"s{i}", f"r{i % 7}", f"o{i}"),))
        for i in range(n)
    ]
    return build_kb(examples[: n // 2], examples[n // 2 :])


class TestDownscaleKb:
    def test_floor_rule(self):
        kb = _toy_kb(100)
        assert len(downscale_kb(kb, 0.5, seed=3).examples) == 50

    def test_scale_zero_empties_kb(self):
        kb = _toy_kb(10)
        small = downscale_kb(kb, 0.0, seed=3)
        assert small.examples == ()
        assert small.triplets == ()

    @pytest.mark.parametrize("scale", [-0.1, 1.5, float("nan"), float("inf")])
    def test_scale_outside_unit_interval_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be in"):
            downscale_kb(_toy_kb(10), scale, seed=3)

    def test_scale_one_is_identity(self):
        kb = _toy_kb(10)
        assert downscale_kb(kb, 1.0, seed=123) is kb
        # triplets given apart from the examples stay as given, not recomputed
        apart = KnowledgeBase(triplets=(Triplet("x", "r", "y"),), examples=kb.examples)
        assert downscale_kb(apart, 1.0, seed=123) is apart

    def test_fractional_products(self):
        kb = _toy_kb(10)
        assert len(downscale_kb(kb, 0.3, seed=0).examples) == 3

    def test_deterministic_and_subset(self):
        kb = _toy_kb(40)
        a = downscale_kb(kb, 0.4, seed=11)
        b = downscale_kb(kb, 0.4, seed=11)
        assert a == b
        assert set(a.examples) <= set(kb.examples)
        assert downscale_kb(kb, 0.4, seed=12) != a

    def test_nested_for_fixed_seed(self):
        kb = _toy_kb(40)
        smaller = downscale_kb(kb, 0.25, seed=5)
        larger = downscale_kb(kb, 0.5, seed=5)
        assert set(smaller.examples) <= set(larger.examples)

    def test_triplets_recomputed(self):
        kb = _toy_kb(20)
        small = downscale_kb(kb, 0.5, seed=9)
        expected = {t for ex in small.examples for t in ex.gold}
        assert set(small.triplets) == expected


@pytest.mark.skipif(
    "KGTE_WEBNLG_MANIFEST" not in os.environ,
    reason="set KGTE_WEBNLG_MANIFEST to check the real WebNLG statistics",
)
def test_webnlg_statistics_match_reference():
    stats = dataset_stats(load_dataset(os.environ["KGTE_WEBNLG_MANIFEST"]))
    assert (stats.train, stats.validation, stats.test) == (5019, 500, 703)
    assert stats.relations == 171
    assert stats.max_triplets == 7
    assert abs(stats.avg_triplets - 2.29) <= 0.005


@pytest.mark.skipif(
    "KGTE_NYT_MANIFEST" not in os.environ,
    reason="set KGTE_NYT_MANIFEST to check the real NYT statistics",
)
def test_nyt_statistics_match_reference():
    stats = dataset_stats(load_dataset(os.environ["KGTE_NYT_MANIFEST"]))
    assert (stats.train, stats.validation, stats.test) == (56195, 5000, 5000)
    assert stats.relations == 24
    assert stats.max_triplets == 22
    assert abs(stats.avg_triplets - 1.72) <= 0.005
