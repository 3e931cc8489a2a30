from __future__ import annotations

import argparse
import json

import pytest

from kgte.analysis import EXTRACTORS
from kgte.cli import build_parser, main
from conftest import MINI_STATS


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


@pytest.mark.parametrize("command", ["extract", "ablate"])
def test_experiment_commands_reject_external_encoder_flags(command, planted_pair_manifest, tmp_path):
    # experiment runs always embed with hashed n-grams, so these flags would
    # be ignored silently
    for flag, value in (("--embed-url", "http://127.0.0.1:9/unreachable"), ("--embed-model", "mini")):
        with pytest.raises(SystemExit) as excinfo:
            run_cli([command, "--manifest", str(planted_pair_manifest), "--extractor", "oracle-prefix",
                     "--out", str(tmp_path / "x"), flag, value])
        assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["extract", "ablate"])
def test_extractor_choices_are_the_experiment_extractors(command):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    extractor = next(a for a in subparsers.choices[command]._actions if a.dest == "extractor")
    assert tuple(extractor.choices) == EXTRACTORS


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

    @pytest.mark.parametrize(
        "bad_line",
        ['{"triplets": [["a", "r", "b"]', '{"pred": [["a", "r", "b"]]}', '{"triplets": [["a", "r"]]}'],
        ids=["invalid-json", "no-triplets", "short-triplet"],
    )
    def test_malformed_prediction_line_fails_naming_line(self, mini_manifest, tmp_path, capsys, bad_line):
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text('{"triplets": [["a", "r", "b"]]}\n\n' + bad_line + "\n")
        gold_path = mini_manifest.parent / "test.jsonl"
        assert run_cli(["eval", "--pred", str(pred_path), "--gold", str(gold_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{pred_path}:3: ")


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

    def test_empty_csv_fails(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("x,y\n")
        assert run_cli(["fit", "--input", str(csv)]) == 1
        assert "error" in json.loads(capsys.readouterr().err)
