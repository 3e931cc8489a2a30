from __future__ import annotations

import argparse
import inspect
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgte._transport
import kgte.analysis
import kgte.cli
import kgte.encoder
from kgte import DatasetFormatError, Triplet, build_kb, load_dataset, triplet_to_string
from kgte.analysis import EXTRACTORS, ExperimentRunSpec, run_ablation, run_experiment
from kgte.cli import _read_xy_csv, build_parser, main
from kgte.corpus import load_predictions as _read_triplet_lines, normalize_surface
from kgte.encoder import EncoderConfig
from kgte.extraction import GenerationConfig
from kgte.prompting import MODES, PROMPT_KINDS
from kgte.retriever import CONTEXT_MODES
from conftest import DATA_DIR, MINI_RECORDS, MINI_STATS

_finite = st.floats(allow_nan=False, allow_infinity=False)
# any printable text, non-ASCII included, that survives normalization
_surface = st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=10).filter(normalize_surface)
_triplet_fields = st.lists(_surface, min_size=3, max_size=3)


def run_cli(args):
    return main(args)


class TestIngest:
    def test_stats_to_stdout(self, mini_manifest, capsys):
        assert run_cli(["ingest", "--manifest", str(mini_manifest)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["train"] == MINI_STATS["train"]
        assert stats["relations"] == MINI_STATS["relations"]
        assert stats["max_triplets"] == MINI_STATS["max_triplets"]

    def test_stats_to_file(self, mini_manifest, tmp_path):
        out = tmp_path / "stats.json"
        assert run_cli(["ingest", "--manifest", str(mini_manifest), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["test"] == MINI_STATS["test"]

    def test_missing_manifest_fails_with_error_record(self, tmp_path, capsys):
        code = run_cli(["ingest", "--manifest", str(tmp_path / "nope.json")])
        assert code != 0
        record = json.loads(capsys.readouterr().err)
        assert "error" in record
        assert record["error"]["type"]


class TestIndexAndRetrieve:
    def test_round_trip(self, planted_pair_manifest, tmp_path, capsys):
        index_path = tmp_path / "kb.index.json"
        assert (
            run_cli(
                [
                    "index",
                    "--manifest",
                    str(planted_pair_manifest),
                    "--kind",
                    "triplet",
                    "--dimension",
                    "128",
                    "--out",
                    str(index_path),
                ]
            )
            == 0
        )
        matrix_path = index_path.with_suffix(".npy")
        assert index_path.exists() and matrix_path.exists()
        assert capsys.readouterr().out.endswith(f" nodes to {index_path} and {matrix_path}\n")

        # retrieving with the first planted sentence brings back its own gold
        first = json.loads(
            (planted_pair_manifest.parent / "test.jsonl").read_text().splitlines()[0]
        )
        assert (
            run_cli(
                [
                    "retrieve",
                    "--index",
                    str(index_path),
                    "--text",
                    first["text"],
                    "--nkb",
                    "2",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "triplets"
        got = {tuple(item["triplet"]) for item in payload["items"]}
        assert got == {tuple(t) for t in first["triplets"]}

    def test_example_index(self, planted_pair_manifest, tmp_path, capsys):
        index_path = tmp_path / "ex.index.json"
        assert (
            run_cli(
                [
                    "index",
                    "--manifest",
                    str(planted_pair_manifest),
                    "--kind",
                    "example",
                    "--embed-mode",
                    "sentence+triplets",
                    "--dimension",
                    "64",
                    "--out",
                    str(index_path),
                ]
            )
            == 0
        )
        doc = json.loads(index_path.read_text())
        assert doc["kind"] == "example"


    def test_retrieve_from_an_example_index(self, planted_pair_manifest, tmp_path, capsys):
        index_path = tmp_path / "ex.index.json"
        assert run_cli(["index", "--manifest", str(planted_pair_manifest), "--kind", "example",
                        "--embed-mode", "sentence", "--dimension", "128", "--out", str(index_path)]) == 0
        capsys.readouterr()
        first = json.loads((planted_pair_manifest.parent / "test.jsonl").read_text().splitlines()[0])
        assert run_cli(["retrieve", "--index", str(index_path), "--text", first["text"], "--nkb", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["mode"], payload["n_kb"]) == ("examples", 1)
        [item] = payload["items"]
        assert {"text": item["text"], "triplets": item["triplets"]} == first
        assert item["score"] == pytest.approx(1.0)

    def test_missing_output_directory_is_created(self, planted_pair_manifest, tmp_path):
        index_path = tmp_path / "missing" / "dir" / "kb.index.json"
        code = run_cli(["index", "--manifest", str(planted_pair_manifest), "--dimension", "64", "--out", str(index_path)])
        assert code == 0
        assert index_path.exists() and index_path.with_suffix(".npy").exists()

    def test_npy_header_path_exits_1_before_the_build(self, planted_pair_manifest, tmp_path, capsys, monkeypatch):
        builds = []
        monkeypatch.setattr(kgte.analysis, "build_index", lambda *args, **kwargs: builds.append(args))
        out = tmp_path / "out"
        code = run_cli(["index", "--manifest", str(planted_pair_manifest), "--out", str(out / "kb.npy")])
        assert code == 1
        assert "must not end in .npy" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert builds == []
        assert not out.exists()


class TestExtract:
    def test_oracle_run_writes_artifacts(self, planted_pair_manifest, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = run_cli(
            [
                "extract",
                "--manifest",
                str(planted_pair_manifest),
                "--mode",
                "triplets",
                "--extractor",
                "oracle-prefix",
                "--nkb",
                "2",
                "--dimension",
                "128",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["f1"] == 1.0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["f1"] == 1.0
        assert (out_dir / "spec.json").exists()
        assert (out_dir / "sentences.jsonl").exists()

    def test_llm_without_url_fails(self, planted_pair_manifest, tmp_path, capsys):
        code = run_cli(
            [
                "extract",
                "--manifest",
                str(planted_pair_manifest),
                "--extractor",
                "llm",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "llm-url" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_llm_extractor_posts_the_model_and_temperature_flags(self, mini_manifest, tmp_path, capsys, monkeypatch):
        posts = []

        def transport(url, payload, headers, timeout):
            posts.append((url, payload))
            return 200, json.dumps({"choices": [{"message": {"content": "(a, r, b)"}}]})

        monkeypatch.setattr(kgte._transport, "_requests_transport", transport)
        code = run_cli(["extract", "--manifest", str(mini_manifest), "--mode", "zero", "--extractor", "llm",
                        "--llm-url", "http://llm.test/v1/", "--model", "gpt-4", "--temperature", "0.7",
                        "--out", str(tmp_path / "run")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["sentences"] == MINI_STATS["test"]
        assert len(posts) == MINI_STATS["test"]
        for url, payload in posts:
            assert url == "http://llm.test/v1/chat/completions"
            assert (payload["model"], payload["temperature"]) == ("gpt-4", 0.7)

    @pytest.mark.parametrize("extractor", ["random", "oracle-gold", "oracle-prefix"])
    def test_llm_url_with_pure_extractor_exits_1_before_any_load(self, mini_manifest, tmp_path, capsys, monkeypatch, extractor):
        monkeypatch.setattr(kgte.analysis, "load_dataset", lambda *a, **k: pytest.fail("dataset loaded"))
        out = tmp_path / "run"
        code = run_cli(["extract", "--manifest", str(mini_manifest), "--mode", "zero", "--extractor", extractor,
                        "--llm-url", "http://unused.invalid", "--out", str(out)])
        assert code == 1
        assert "--llm-url" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "ablate"])
def test_extractor_choices_are_the_experiment_extractors(command):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    extractor = next(a for a in subparsers.choices[command]._actions if a.dest == "extractor")
    assert tuple(extractor.choices) == EXTRACTORS


@pytest.mark.parametrize(
    "command,dest,names",
    [("extract", "mode", MODES), ("ablate", "mode", CONTEXT_MODES), ("extract", "prompt", PROMPT_KINDS)],
    ids=["extract-mode", "ablate-mode", "extract-prompt"],
)
def test_setting_choices_are_the_library_names(command, dest, names):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in subparsers.choices[command]._actions if a.dest == dest)
    assert tuple(action.choices) == names


def test_extract_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["extract", "--manifest", "m", "--out", "o"])
    assert GenerationConfig(model=args.model, temperature=args.temperature) == GenerationConfig()


@pytest.mark.parametrize(
    "command", [["index", "--out", "o"], ["sweep-p", "--nkb-list", "1"], ["extract", "--out", "o"], ["ablate"]], ids=lambda c: c[0]
)
def test_encoder_flag_defaults_are_the_library_defaults(command):
    args = build_parser().parse_args([*command, "--manifest", "m"])
    ablation_default = inspect.signature(run_ablation).parameters["encoder"].default
    assert kgte.cli._encoder_config(args) == ExperimentRunSpec.encoder == ablation_default == EncoderConfig()


@pytest.mark.parametrize(
    "command,dest,field",
    [
        *((command, "nkb", "n_kb") for command in ("retrieve", "extract", "ablate")),
        ("extract", "prompt", "prompt_kind"),
        *((command, "split", "split") for command in ("extract", "sweep-p")),
        *((command, "embed_mode", "embed_mode") for command in ("index", "extract", "sweep-p", "ablate")),
        *((command, "scale", "scale") for command in ("index", "extract", "sweep-p")),
        *((command, "seed", "seed") for command in ("index", "extract", "sweep-p", "ablate")),
    ],
)
def test_run_flag_defaults_are_the_spec_defaults(command, dest, field):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    spec = ExperimentRunSpec(manifest="m", mode="zero", extractor="random")
    assert subparsers.choices[command].get_default(dest) == getattr(spec, field)


@pytest.mark.parametrize("dest", ["mode", "extractor"])
def test_ablate_defaults_are_run_ablation_defaults(dest):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert subparsers.choices["ablate"].get_default(dest) == inspect.signature(run_ablation).parameters[dest].default


# every subcommand's flags as (dest, default, choices, required); the four
# that embed default their n-gram flags to None, so a given one is told apart
FLAG_INVENTORY = {
    "ingest": {
        "--manifest": ("manifest", None, None, True),
        "--out": ("out", None, None, False),
    },
    "index": {
        "--manifest": ("manifest", None, None, True),
        "--kind": ("kind", "triplet", ("triplet", "example"), False),
        "--embed-mode": ("embed_mode", "sentence", ("sentence", "sentence+triplets"), False),
        "--scale": ("scale", 1.0, None, False),
        "--seed": ("seed", 0, None, False),
        "--out": ("out", None, None, True),
        "--dimension": ("dimension", 384, None, False),
        "--ngram-min": ("ngram_min", None, None, False),
        "--ngram-max": ("ngram_max", None, None, False),
        "--embed-url": ("embed_url", None, None, False),
        "--embed-model": ("embed_model", None, None, False),
    },
    "retrieve": {
        "--index": ("index", None, None, True),
        "--text": ("text", None, None, True),
        "--nkb": ("nkb", 5, None, False),
        "--out": ("out", None, None, False),
    },
    "extract": {
        "--manifest": ("manifest", None, None, True),
        "--mode": ("mode", "zero", ("zero", "static2", "triplets", "examples"), False),
        "--prompt": ("prompt", "base", ("base", "chain_of_thought", "documented"), False),
        "--extractor": ("extractor", "llm", ("llm", "oracle-gold", "oracle-prefix", "random"), False),
        "--nkb": ("nkb", 5, None, False),
        "--scale": ("scale", 1.0, None, False),
        "--seed": ("seed", 0, None, False),
        "--split": ("split", "test", ("train", "validation", "test"), False),
        "--embed-mode": ("embed_mode", "sentence", ("sentence", "sentence+triplets"), False),
        "--model": ("model", "llama-65b", None, False),
        "--temperature": ("temperature", 0.1, None, False),
        "--budget": ("budget", None, None, False),
        "--llm-url": ("llm_url", None, None, False),
        "--out": ("out", None, None, True),
        "--dimension": ("dimension", 384, None, False),
        "--ngram-min": ("ngram_min", None, None, False),
        "--ngram-max": ("ngram_max", None, None, False),
        "--embed-url": ("embed_url", None, None, False),
        "--embed-model": ("embed_model", None, None, False),
    },
    "eval": {
        "--pred": ("pred", None, None, True),
        "--gold": ("gold", None, None, True),
        "--out": ("out", None, None, False),
    },
    "sweep-p": {
        "--manifest": ("manifest", None, None, True),
        "--kind": ("kind", "triplet", ("triplet", "example"), False),
        "--embed-mode": ("embed_mode", "sentence", ("sentence", "sentence+triplets"), False),
        "--nkb-list": ("nkb_list", None, None, True),
        "--scale": ("scale", 1.0, None, False),
        "--seed": ("seed", 0, None, False),
        "--split": ("split", "test", ("train", "validation", "test"), False),
        "--out": ("out", None, None, False),
        "--dimension": ("dimension", 384, None, False),
        "--ngram-min": ("ngram_min", None, None, False),
        "--ngram-max": ("ngram_max", None, None, False),
        "--embed-url": ("embed_url", None, None, False),
        "--embed-model": ("embed_model", None, None, False),
    },
    "ablate": {
        "--manifest": ("manifest", None, None, True),
        "--scales": ("scales", "0,0.1,0.25,0.5,1", None, False),
        "--seed": ("seed", 0, None, False),
        "--mode": ("mode", "triplets", ("triplets", "examples"), False),
        "--extractor": ("extractor", "random", ("llm", "oracle-gold", "oracle-prefix", "random"), False),
        "--nkb": ("nkb", 5, None, False),
        "--embed-mode": ("embed_mode", "sentence", ("sentence", "sentence+triplets"), False),
        "--out": ("out", None, None, False),
        "--points-out": ("points_out", None, None, False),
        "--dimension": ("dimension", 384, None, False),
        "--ngram-min": ("ngram_min", None, None, False),
        "--ngram-max": ("ngram_max", None, None, False),
        "--embed-url": ("embed_url", None, None, False),
        "--embed-model": ("embed_model", None, None, False),
    },
    "fit": {
        "--input": ("input", None, None, True),
        "--log-x": ("log_x", False, None, False),
        "--out": ("out", None, None, False),
    },
}


@pytest.mark.parametrize("command", FLAG_INVENTORY)
def test_flag_inventory(command):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in subparsers.choices[command]._actions if not isinstance(a, argparse._HelpAction)]
    assert all(len(a.option_strings) == 1 for a in actions)
    inventory = {
        a.option_strings[0]: (a.dest, a.default, None if a.choices is None else tuple(a.choices), a.required)
        for a in actions
    }
    assert inventory == FLAG_INVENTORY[command]


def test_flag_inventory_covers_every_subcommand():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(FLAG_INVENTORY)


class TestEval:
    def test_eval_predictions_against_gold(self, mini_manifest, tmp_path, capsys):
        gold_path = mini_manifest.parent / "test.jsonl"
        pred_path = tmp_path / "pred.jsonl"
        lines = []
        for line in gold_path.read_text().splitlines():
            record = json.loads(line)
            lines.append(json.dumps({"triplets": record["triplets"][:1]}))
        pred_path.write_text("\n".join(lines) + "\n")
        assert run_cli(["eval", "--pred", str(pred_path), "--gold", str(gold_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["precision"] == 1.0
        assert report["recall"] < 1.0

    @pytest.mark.parametrize("predicted", [1, 0])
    def test_record_counts_that_differ_fail_naming_both_files(self, tmp_path, capsys, predicted):
        gold_path = tmp_path / "gold.jsonl"
        gold_path.write_text("".join(f'{{"text": "s{i}", "triplets": [["a", "r", "b{i}"]]}}\n' for i in range(3)))
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text('[["a", "r", "b0"]]\n' * predicted)
        assert run_cli(["eval", "--pred", str(pred_path), "--gold", str(gold_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "DatasetFormatError"
        assert error["message"] == f"{pred_path}: {predicted} prediction records, but {gold_path} holds 3 gold records"

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"triplets": [["a", "r", "b"]',
            '{"pred": [["a", "r", "b"]]}',
            '{"triplets": [["a", "r"]]}',
            '{"triplets": [["  ", "r", "b"]]}',
        ],
        ids=["invalid-json", "no-triplets", "short-triplet", "blank-field"],
    )
    def test_malformed_prediction_line_fails_naming_line(self, mini_manifest, tmp_path, capsys, bad_line):
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text('{"triplets": [["a", "r", "b"]]}\n\n' + bad_line + "\n")
        gold_path = mini_manifest.parent / "test.jsonl"
        assert run_cli(["eval", "--pred", str(pred_path), "--gold", str(gold_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "DatasetFormatError"
        assert error["message"].startswith(f"{pred_path}:3: ")

    def test_invalid_utf8_prediction_line_fails_naming_line(self, mini_manifest, tmp_path, capsys):
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_bytes(b'[["a", "r", "b"]]\n[["caf\xe9", "r", "b"]]\n')
        gold_path = mini_manifest.parent / "test.jsonl"
        assert run_cli(["eval", "--pred", str(pred_path), "--gold", str(gold_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "DatasetFormatError"
        assert error["message"].startswith(f"{pred_path}:2: ")


    @pytest.mark.parametrize(
        "text,line", [('[]\n\n{"triplets": 5}\n', 3), ('[["a", "r"]]\n', 1)], ids=["not-a-list", "short-triplet"]
    )
    def test_malformed_prediction_line_carries_path_and_line(self, tmp_path, text, line):
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text(text)
        with pytest.raises(DatasetFormatError) as excinfo:
            _read_triplet_lines(str(pred_path))
        assert (excinfo.value.path, excinfo.value.line) == (str(pred_path), line)

    @settings(max_examples=100, deadline=None, database=None)
    @given(lines=st.lists(st.tuples(st.lists(_triplet_fields, max_size=4), st.booleans()), min_size=1, max_size=6))
    def test_predictions_round_trip(self, tmp_path_factory, lines):
        pred_path = tmp_path_factory.mktemp("pred") / "pred.jsonl"
        text = "".join(
            json.dumps({"triplets": triplets} if wrapped else triplets, ensure_ascii=False) + "\n\n"
            for triplets, wrapped in lines
        )
        pred_path.write_text(text, encoding="utf-8")
        got = _read_triplet_lines(str(pred_path))
        assert got == [[Triplet(*fields) for fields in triplets] for triplets, _ in lines]


@pytest.mark.parametrize(
    "command",
    [
        ["index", "--out", "{tmp}/kb.index.json"],
        ["sweep-p", "--nkb-list", "1,2"],
        ["extract", "--extractor", "oracle-prefix", "--mode", "triplets", "--out", "{tmp}/run"],
        ["ablate", "--extractor", "oracle-prefix", "--scales", "0,{scale}"],
    ],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("scale", ["1.5", "7", "-0.25", "nan"])
def test_scale_outside_unit_interval_exits_1(planted_pair_manifest, tmp_path, capsys, monkeypatch, command, scale):
    loads = []
    for module in (kgte.cli, kgte.analysis):
        monkeypatch.setattr(module, "load_dataset", lambda manifest: loads.append(manifest) or load_dataset(manifest))
    out = tmp_path / "out"
    args = [arg.format(tmp=out, scale=scale) for arg in command]
    if command[0] != "ablate":
        args += ["--scale", scale]
    assert run_cli([*args, "--manifest", str(planted_pair_manifest), "--dimension", "64"]) == 1
    assert "scale must be in [0, 1]" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize("command", [["index", "--out", "{tmp}/kb.index.json"], ["sweep-p", "--nkb-list", "1,2"]], ids=lambda c: c[0])
def test_empty_kb_at_scale_zero_exits_1(planted_pair_manifest, tmp_path, capsys, command):
    args = [arg.format(tmp=tmp_path) for arg in command]
    assert run_cli([*args, "--scale", "0", "--manifest", str(planted_pair_manifest), "--dimension", "64"]) == 1
    assert "no content" in json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize(
    "command",
    [
        ["extract", "--mode", "zero", "--out", "{tmp}/run"],
        ["extract", "--mode", "triplets", "--out", "{tmp}/run"],
        ["ablate", "--out", "{tmp}/ablation.json"],
    ],
    ids=lambda command: f"{command[0]}-{command[2]}" if command[0] == "extract" else command[0],
)
@pytest.mark.parametrize("nkb", ["0", "-3"])
def test_nonpositive_nkb_exits_1_before_any_load(planted_pair_manifest, tmp_path, capsys, monkeypatch, command, nkb):
    loads = []
    monkeypatch.setattr(kgte.analysis, "load_dataset", loads.append)
    out = tmp_path / "out"
    args = [arg.format(tmp=out) for arg in command]
    code = run_cli([*args, "--manifest", str(planted_pair_manifest), "--extractor", "random", "--nkb", nkb])
    assert code == 1
    assert "n_kb must be >= 1" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,needle",
    [
        pytest.param(["--dimension", "0"], "dimension", id="zero-dimension"),
        pytest.param(["--dimension", "-8"], "dimension", id="negative-dimension"),
        pytest.param(["--ngram-min", "5", "--ngram-max", "3"], "ngram_range", id="reversed-ngrams"),
        pytest.param(["--ngram-min", "0"], "ngram_range", id="zero-ngram-min"),
    ],
)
@pytest.mark.parametrize("command", [["extract", "--out", "{tmp}/run"], ["ablate", "--out", "{tmp}/ablation.json"]], ids=lambda c: c[0])
def test_bad_encoder_flags_exit_1_before_any_load(planted_pair_manifest, tmp_path, capsys, monkeypatch, command, flags, needle):
    loads = []
    monkeypatch.setattr(kgte.analysis, "load_dataset", loads.append)
    out = tmp_path / "out"
    args = [arg.format(tmp=out) for arg in command]
    code = run_cli([*args, "--manifest", str(planted_pair_manifest), "--extractor", "random", *flags])
    assert code == 1
    assert needle in json.loads(capsys.readouterr().err)["error"]["message"]
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize("nkb", ["0", "-3"])
def test_retrieve_nonpositive_nkb_exits_1_before_the_index_is_read(tmp_path, capsys, monkeypatch, nkb):
    loads = []
    monkeypatch.setattr(kgte.cli, "load_index", loads.append)
    code = run_cli(["retrieve", "--index", str(tmp_path / "kb.index.json"), "--text", "some text", "--nkb", nkb])
    assert code == 1
    assert "n_kb must be >= 1" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert loads == []


@pytest.mark.parametrize(
    "nkb_list,needle",
    [("5,3", "strictly increasing"), ("2,2", "strictly increasing"), ("0", "n_kb must be >= 1"), ("1,-2", "n_kb must be >= 1")],
)
def test_sweep_p_bad_nkb_list_exits_1_before_any_load(planted_pair_manifest, tmp_path, capsys, monkeypatch, nkb_list, needle):
    loads = []
    monkeypatch.setattr(kgte.cli, "load_dataset", loads.append)
    out = tmp_path / "curve.csv"
    code = run_cli(["sweep-p", "--manifest", str(planted_pair_manifest), "--nkb-list", nkb_list, "--out", str(out)])
    assert code == 1
    assert needle in json.loads(capsys.readouterr().err)["error"]["message"]
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,needle",
    [
        ("--nkb-list", "1,2.5", "item 2 ('2.5') is not an integer"),
        ("--nkb-list", "x", "item 1 ('x') is not an integer"),
        ("--nkb-list", "1,,3", "item 2 ('') is not an integer"),
        ("--scales", "0,x", "item 2 ('x') is not a number"),
        ("--scales", "0.5,1,", "item 3 ('') is not a number"),
    ],
)
def test_bad_list_flag_item_exits_2_naming_flag_and_position(planted_pair_manifest, tmp_path, capsys, monkeypatch, flag, value, needle):
    loads = []
    monkeypatch.setattr(kgte.cli, "load_dataset", loads.append)
    monkeypatch.setattr(kgte.analysis, "load_dataset", loads.append)
    command = "sweep-p" if flag == "--nkb-list" else "ablate"
    with pytest.raises(SystemExit) as excinfo:
        run_cli([command, "--manifest", str(planted_pair_manifest), f"{flag}={value}", "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert f"argument {flag}: {needle}" in capsys.readouterr().err
    assert loads == []


def test_ablate_llm_extractor_exits_1_before_any_load(planted_pair_manifest, tmp_path, capsys, monkeypatch):
    loads = []
    monkeypatch.setattr(kgte.analysis, "load_dataset", loads.append)
    out = tmp_path / "ablation.json"
    code = run_cli(["ablate", "--manifest", str(planted_pair_manifest), "--extractor", "llm", "--out", str(out)])
    assert code == 1
    assert "pure extractors" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["index", "--kind", "triplet", "--out", "{tmp}/kb.index.json"],
        ["sweep-p", "--kind", "triplet", "--nkb-list", "1,2", "--out", "{tmp}/curve.csv"],
        ["extract", "--mode", "zero", "--extractor", "random", "--out", "{tmp}/run"],
        ["extract", "--mode", "static2", "--extractor", "random", "--out", "{tmp}/run"],
        ["extract", "--mode", "triplets", "--extractor", "random", "--out", "{tmp}/run"],
        ["ablate", "--mode", "triplets", "--out", "{tmp}/ablation.json"],
    ],
    ids=lambda command: f"{command[0]}-{command[2]}",
)
def test_embed_mode_without_example_index_exits_1_before_any_load(planted_pair_manifest, tmp_path, capsys, monkeypatch, command):
    loads = []
    monkeypatch.setattr(kgte.cli, "load_dataset", loads.append)
    monkeypatch.setattr(kgte.analysis, "load_dataset", loads.append)
    out = tmp_path / "out"
    args = [arg.format(tmp=out) for arg in command]
    code = run_cli([*args, "--manifest", str(planted_pair_manifest), "--embed-mode", "sentence+triplets"])
    assert code == 1
    assert "needs an example index" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize("temperature", ["nan", "inf", "-1"])
def test_extract_out_of_range_temperature_exits_1(mini_manifest, tmp_path, capsys, temperature):
    code = run_cli(["extract", "--manifest", str(mini_manifest), "--mode", "zero", "--extractor", "random",
                    "--temperature", temperature, "--out", str(tmp_path / "run")])
    assert code == 1
    assert "temperature" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode", ["zero", "static2"])
@pytest.mark.parametrize(
    "flags,field",
    [
        (["--nkb", "7"], "n_kb"),
        (["--scale", "0.5"], "scale"),
        (["--dimension", "64"], "encoder"),
        (["--ngram-min", "2"], "encoder"),
        (["--embed-url", "http://embed.test/v1/embeddings", "--embed-model", "fake"], "encoder"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else value,
)
def test_extract_retrieval_flag_without_retrieval_exits_1_before_any_load(mini_manifest, tmp_path, capsys, monkeypatch, mode, flags, field):
    # zero and static2 build no index, so these flags would change spec.json alone
    loads = []
    monkeypatch.setattr(kgte.analysis, "load_dataset", loads.append)
    out = tmp_path / "run"
    code = run_cli(["extract", "--manifest", str(mini_manifest), "--mode", mode, "--extractor", "random", *flags, "--out", str(out)])
    assert code == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith(f"{field} ") and message.endswith(f"needs a retrieval mode, not '{mode}'")
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_extract_nonpositive_budget_exits_1(planted_pair_manifest, tmp_path, capsys, budget):
    code = run_cli(["extract", "--manifest", str(planted_pair_manifest), "--extractor", "oracle-prefix",
                    "--budget", budget, "--out", str(tmp_path / "run")])
    assert code == 1
    assert "char_budget" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not (tmp_path / "run").exists()


EMBED_FLAGS = ["--embed-url", "http://embed.test/v1/embeddings", "--embed-model", "fake", "--dimension", "8"]
EXTERNAL_GOLDEN = DATA_DIR / "golden" / "external"


class TestExternalEmbeddings:
    """The external provider through the CLI, against the in-process fake
    endpoint of ``embed_posts``. The golden files were written by the
    one-POST-per-text encoder under the same fake."""

    @pytest.mark.parametrize(
        "kind,embed_mode,name",
        [("triplet", "sentence", "triplet"), ("example", "sentence", "example"),
         ("example", "sentence+triplets", "example-sentence+triplets")],
    )
    def test_index_posts_one_block_and_matches_golden(self, mini_manifest, tmp_path, embed_posts, kind, embed_mode, name):
        header = tmp_path / f"{name}.index.json"
        args = ["index", "--manifest", str(mini_manifest), "--kind", kind, "--embed-mode", embed_mode, "--out", str(header)]
        assert run_cli([*args, *EMBED_FLAGS]) == 0
        nodes = 15 if kind == "triplet" else 10
        assert [len(texts) for texts in embed_posts] == [nodes]
        assert header.read_bytes() == (EXTERNAL_GOLDEN / header.name).read_bytes()
        assert header.with_suffix(".npy").read_bytes() == (EXTERNAL_GOLDEN / f"{name}.index.npy").read_bytes()

    @pytest.mark.parametrize("block", [4, 32])
    def test_index_posts_ceil_nodes_over_block(self, mini_manifest, tmp_path, embed_posts, monkeypatch, block):
        monkeypatch.setattr(kgte.encoder, "EXTERNAL_BLOCK", block)
        assert run_cli(["index", "--manifest", str(mini_manifest), "--out", str(tmp_path / "kb.json"), *EMBED_FLAGS]) == 0
        assert len(embed_posts) == math.ceil(15 / block)
        assert (tmp_path / "kb.npy").read_bytes() == (EXTERNAL_GOLDEN / "triplet.index.npy").read_bytes()

    def test_index_posts_in_blocks_and_records_the_provider(self, mini_manifest, tmp_path, embed_posts, monkeypatch):
        monkeypatch.setattr(kgte.encoder, "EXTERNAL_BLOCK", 4)
        header = tmp_path / "kb.index.json"
        assert run_cli(["index", "--manifest", str(mini_manifest), "--out", str(header), *EMBED_FLAGS]) == 0
        assert [len(texts) for texts in embed_posts] == [4, 4, 4, 3]
        assert json.loads(header.read_text())["encoder"] == {
            "provider": "external", "dimension": 8, "ngram_range": [3, 5],
            "endpoint": "http://embed.test/v1/embeddings", "model": "fake",
        }

    def test_retrieve_posts_once(self, tmp_path, embed_posts, capsys):
        code = run_cli(["retrieve", "--index", str(EXTERNAL_GOLDEN / "triplet.index.json"), "--text",
                        "alan bean was born in wheeler texas", "--nkb", "3"])
        assert code == 0
        assert embed_posts == [["alan bean was born in wheeler texas"]]
        assert len(json.loads(capsys.readouterr().out)["items"]) >= 1

    @pytest.mark.parametrize("block", [3, 32])
    def test_sweep_posts_the_kb_then_the_split_in_blocks(self, mini_manifest, tmp_path, embed_posts, monkeypatch, block):
        monkeypatch.setattr(kgte.encoder, "EXTERNAL_BLOCK", block)
        out = tmp_path / "curve.csv"
        code = run_cli(["sweep-p", "--manifest", str(mini_manifest), "--nkb-list", "1,5", "--out", str(out), *EMBED_FLAGS])
        assert code == 0
        kb_posts = math.ceil(15 / block)
        assert len(embed_posts) == kb_posts + math.ceil(MINI_STATS["test"] / block)
        assert sum(len(texts) for texts in embed_posts[kb_posts:]) == MINI_STATS["test"]
        assert out.read_text().startswith("n_kb,p\n1,")

    def test_extract_records_the_external_encoder_and_replays_through_it(self, mini_manifest, tmp_path, embed_posts, capsys):
        out = tmp_path / "run"
        code = run_cli(["extract", "--manifest", str(mini_manifest), "--mode", "triplets", "--extractor", "random",
                        "--out", str(out), *EMBED_FLAGS])
        assert code == 0
        kb_posts = len(embed_posts)
        assert kb_posts == 2  # the KB's 15 triplets, then the 4 test sentences
        spec = json.loads((out / "spec.json").read_text())
        assert spec["encoder"] == {
            "provider": "external", "dimension": 8, "ngram_range": [3, 5],
            "endpoint": "http://embed.test/v1/embeddings", "model": "fake",
        }
        assert "dimension" not in spec and "ngram_range" not in spec
        kgte.analysis.replay_experiment(out / "spec.json", tmp_path / "replay")
        assert len(embed_posts) == 2 * kb_posts
        for name in ("report.json", "sentences.jsonl", "spec.json"):
            assert (tmp_path / "replay" / name).read_bytes() == (out / name).read_bytes(), name

    def test_ablate_runs_the_library_ablation_with_the_external_encoder(self, mini_manifest, tmp_path, embed_posts):
        out = tmp_path / "ablation.json"
        assert run_cli(["ablate", "--manifest", str(mini_manifest), "--scales", "0,0.5,1", "--out", str(out), *EMBED_FLAGS]) == 0
        assert len(embed_posts) == 3  # the KB once, then the test sentences at scales 0.5 and 1 (0 keeps no example)
        encoder = EncoderConfig(provider="external", dimension=8, endpoint="http://embed.test/v1/embeddings", model="fake")
        result = run_ablation(mini_manifest, [0.0, 0.5, 1.0], 0, encoder=encoder)
        assert out.read_text() == json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


# a command of each of the four that embed, with what it needs to run on the mini fixture
EMBEDDING_COMMANDS = [
    ["index", "--out", "{tmp}/kb.index.json"],
    ["sweep-p", "--nkb-list", "1,2", "--out", "{tmp}/curve.csv"],
    ["extract", "--mode", "triplets", "--extractor", "random", "--out", "{tmp}/run"],
    ["ablate", "--out", "{tmp}/ablation.json"],
]


@pytest.mark.parametrize("command", EMBEDDING_COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize(
    "flags",
    [["--embed-model", "mini"], ["--embed-url", "http://embed.test/v1/embeddings"]],
    ids=["model-without-url", "url-without-model"],
)
def test_embed_flags_alone_exit_1_before_any_load(mini_manifest, tmp_path, capsys, monkeypatch, embed_posts, command, flags):
    loads = []
    monkeypatch.setattr(kgte.cli, "load_dataset", loads.append)
    monkeypatch.setattr(kgte.analysis, "load_dataset", loads.append)
    out = tmp_path / "out"
    args = [arg.format(tmp=out) for arg in command]
    assert run_cli([*args, "--manifest", str(mini_manifest), *flags]) == 1
    assert "--embed-url and --embed-model must be given together" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert loads == [] and embed_posts == []
    assert not out.exists()


@pytest.mark.parametrize("command", EMBEDDING_COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize("flag", ["--ngram-min", "--ngram-max"])
def test_ngram_flags_with_embed_url_exit_2_naming_the_flag(mini_manifest, tmp_path, capsys, monkeypatch, embed_posts, command, flag):
    # the external provider has no n-grams; the default value is rejected too
    loads = []
    monkeypatch.setattr(kgte.cli, "load_dataset", loads.append)
    monkeypatch.setattr(kgte.analysis, "load_dataset", loads.append)
    out = tmp_path / "out"
    args = [arg.format(tmp=out) for arg in command]
    with pytest.raises(SystemExit) as excinfo:
        run_cli([*args, "--manifest", str(mini_manifest), *EMBED_FLAGS, flag, "3"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: kgte {command[0]} ")
    assert f"argument {flag}: not allowed with --embed-url" in err
    assert loads == [] and embed_posts == []
    assert not out.exists()


def test_index_text_too_short_for_the_ngrams_is_named(mini_manifest, tmp_path, capsys):
    dataset = load_dataset(mini_manifest)
    strings = [triplet_to_string(t) for t in build_kb(dataset.train, dataset.validation).triplets]
    position = next(i for i, text in enumerate(strings) if len(text) < 30)
    assert position > 0
    out = tmp_path / "kb.index.json"
    assert run_cli(["index", "--manifest", str(mini_manifest), "--ngram-min", "30", "--ngram-max", "30", "--out", str(out)]) == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == f"text {position}: text shorter than the minimum n-gram size 30"
    assert not out.exists()


class TestSweepP:
    def test_csv_output(self, planted_pair_manifest, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli(
            [
                "sweep-p",
                "--manifest",
                str(planted_pair_manifest),
                "--nkb-list",
                "1,2,4",
                "--dimension",
                "128",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_kb,p"
        assert len(lines) == 4
        ps = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a <= b for a, b in zip(ps, ps[1:]))


class TestAblate:
    def test_ablation_json_and_points_feed_fit(self, planted_pair_manifest, tmp_path, capsys):
        points_csv = tmp_path / "points.csv"
        code = run_cli(
            [
                "ablate",
                "--manifest",
                str(planted_pair_manifest),
                "--scales",
                "0,0.5,1",
                "--seed",
                "3",
                "--extractor",
                "oracle-prefix",
                "--nkb",
                "2",
                "--dimension",
                "128",
                "--points-out",
                str(points_csv),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 3
        assert payload["fit"] is not None
        assert points_csv.read_text().startswith("x,y\n")
        # the exported pairs feed straight back into the fit command
        assert run_cli(["fit", "--input", str(points_csv)]) == 0
        refit = json.loads(capsys.readouterr().out)
        assert refit["slope"] == pytest.approx(payload["fit"]["slope"], abs=1e-9)


class TestFit:
    def test_linear_fit_csv(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("x,y\n0,1\n1,3\n2,5\n")
        assert run_cli(["fit", "--input", str(csv)]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["slope"] == 2.0
        assert fit["intercept"] == 1.0
        assert fit["r2"] == 1.0

    def test_log_x_fit(self, tmp_path, capsys):
        import math

        csv = tmp_path / "points.csv"
        rows = ["n_par,f1"] + [f"{n},{0.05 * math.log(n)}" for n in (0.1, 1.5, 7, 40, 65)]
        csv.write_text("\n".join(rows) + "\n")
        assert run_cli(["fit", "--input", str(csv), "--log-x"]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["slope"] == pytest.approx(0.05, abs=1e-9)

    def test_non_numeric_data_row_fails_naming_line(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("x,y\n0,1\n\n2,oops\n3,7\n")
        assert run_cli(["fit", "--input", str(csv)]) == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert f"{csv}:4" in message
        assert "2,oops" in message

    @pytest.mark.parametrize("row", ["nan,1", "1,inf", "-inf,2", "1e400,3"])
    @pytest.mark.parametrize("header", ["x,y\n", ""], ids=["header", "no-header"])
    def test_non_finite_cell_fails_naming_line(self, tmp_path, capsys, header, row):
        csv = tmp_path / "points.csv"
        csv.write_text(f"{header}0,1\n{row}\n2,3\n")
        assert run_cli(["fit", "--input", str(csv)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "DatasetFormatError"
        assert error["message"].startswith(f"{csv}:{3 if header else 2}: ")
        assert row in error["message"]

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        points=st.lists(st.tuples(_finite, _finite), min_size=1, max_size=8),
        header=st.sampled_from([None, "x,y", "n_par,f1", "p_s , f1 ,note"]),
        blanks=st.lists(st.integers(0, 9), max_size=4),
    )
    def test_csv_round_trip(self, tmp_path_factory, points, header, blanks):
        lines = [f"{x!r},{y!r}" for x, y in points]
        for at in blanks:
            lines.insert(min(at, len(lines)), " \t")
        if header is not None:
            lines.insert(0, header)
        csv = tmp_path_factory.mktemp("fit") / "points.csv"
        csv.write_text("\n".join(lines) + "\n")
        assert _read_xy_csv(str(csv)) == points

    @pytest.mark.parametrize(
        "content,line,message",
        [
            ("x,y\n0,1\n2,oops\n", 3, "non-numeric row '2,oops'"),
            ("0,1\n\nx,y\n", 3, "non-numeric row 'x,y'"),
            ("x,y\n\n7\n", 3, "expected two CSV columns, got '7'"),
            ("5\n", 1, "expected two CSV columns, got '5'"),
            ("0,nan\n", 1, "non-finite value in row '0,nan'"),
            (b"\xff,1\n", 1, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
        ids=["non-numeric", "late-header", "one-column", "one-column-first", "non-finite", "invalid-utf8"],
    )
    def test_malformed_row_carries_path_and_line(self, tmp_path, content, line, message):
        csv = tmp_path / "points.csv"
        csv.write_bytes(content if isinstance(content, bytes) else content.encode())
        with pytest.raises(DatasetFormatError) as excinfo:
            _read_xy_csv(str(csv))
        assert (excinfo.value.path, excinfo.value.line) == (str(csv), line)
        assert str(excinfo.value) == f"{csv}:{line}: {message}"

    def test_invalid_utf8_row_fails_naming_line(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_bytes(b"x,y\n0,1\n1,\xff\n")
        assert run_cli(["fit", "--input", str(csv)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "DatasetFormatError"
        assert error["message"].startswith(f"{csv}:3: ")

    @pytest.mark.parametrize("content", ["", "\n \t\n\n", "x,y\n"], ids=["empty", "blank-lines", "header-only"])
    def test_no_numeric_rows_carries_the_path(self, tmp_path, content):
        csv = tmp_path / "points.csv"
        csv.write_text(content)
        with pytest.raises(DatasetFormatError) as excinfo:
            _read_xy_csv(str(csv))
        assert (excinfo.value.path, excinfo.value.line) == (str(csv), None)
        assert str(excinfo.value) == f"{csv}: no numeric rows"

    def test_points_too_large_to_fit_exit_1(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("1e200,0\n-1e200,1\n")
        assert run_cli(["fit", "--input", str(csv)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith("the points are too large to fit")

    def test_x_values_too_close_to_fit_exit_1(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("0,0\n5e-324,1\n")
        assert run_cli(["fit", "--input", str(csv)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith("the x values are too close to fit a slope")

    def test_empty_csv_fails(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("x,y\n")
        assert run_cli(["fit", "--input", str(csv)]) == 1
        assert "error" in json.loads(capsys.readouterr().err)


def _cli_succeeds(*args) -> None:
    assert run_cli(list(args)) == 0


# Each driver that loads a dataset, called on a manifest and an output directory.
DATASET_DRIVERS = {
    "run_experiment-triplets": lambda m, out: run_experiment(ExperimentRunSpec(manifest=str(m), mode="triplets", extractor="random")),
    "run_experiment-examples": lambda m, out: run_experiment(ExperimentRunSpec(manifest=str(m), mode="examples", extractor="random")),
    "run_ablation": lambda m, out: run_ablation(m, (0.5, 1.0), seed=0),
    "ingest": lambda m, out: _cli_succeeds("ingest", "--manifest", str(m)),
    "index": lambda m, out: _cli_succeeds("index", "--manifest", str(m), "--out", str(out / "kb.index.json")),
    "sweep-p": lambda m, out: _cli_succeeds("sweep-p", "--manifest", str(m), "--nkb-list", "1,2", "--out", str(out / "curve.csv")),
    "extract": lambda m, out: _cli_succeeds("extract", "--manifest", str(m), "--mode", "triplets", "--extractor", "random", "--out", str(out / "run")),
}


@pytest.mark.parametrize("held", [True, False], ids=["held", "not-held"])
@pytest.mark.parametrize("driver", DATASET_DRIVERS)
def test_drivers_share_a_held_dataset(mini_manifest, tmp_path, monkeypatch, parsed_records, driver, held):
    dataset = load_dataset(mini_manifest) if held else None
    loaded = []

    def recording_load(manifest):
        loaded.append(load_dataset(manifest))
        return loaded[-1]

    for module in (kgte.analysis, kgte.cli):
        monkeypatch.setattr(module, "load_dataset", recording_load)
    del parsed_records[:]
    DATASET_DRIVERS[driver](mini_manifest, tmp_path)
    assert len(parsed_records) == MINI_RECORDS  # one load per driver; a hit parses too
    assert len(loaded) == 1 and (dataset is None or loaded[0] is dataset)
