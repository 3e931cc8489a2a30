"""Command-line surface tying the pipeline together.

Commands: ingest, index, retrieve, extract, eval, sweep-p, ablate, fit.
Outputs are JSON or CSV written to --out (stdout when omitted). Exit code is
0 on success; failures print a machine-readable error record to stderr and
exit nonzero. The LLM/embeddings credential is read from KGTE_API_KEY.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path

from .analysis import (
    ExperimentRunSpec,
    index_dataset,
    linear_fit,
    log_param_fit,
    run_ablation,
    run_experiment,
)
from .corpus import (
    SPLIT_NAMES,
    DatasetFormatError,
    check_scale,
    dataset_stats,
    load_dataset,
    load_predictions,
    load_records,
    parse_lines,
    sentence_to_json,
    triplet_to_json,
)
from .encoder import EncoderConfig
from .evaluation import check_n_kb_values, micro_f1, sweep_context_quality
from .extraction import EXTRACTORS, GenerationConfig, RemoteLLMClient
from .prompting import MODES, PROMPT_KINDS
from .retriever import CONTEXT_MODES, check_n_kb, retrieve_contexts
from .vector_index import EXAMPLE_EMBED_MODES, NODE_KINDS, check_embed_mode, index_matrix_path, load_index, save_index


def _comma_list(convert, what: str):
    """An argparse ``type`` for a comma-separated list: a bad item is an
    argument error naming its 1-based position."""

    def parse(text: str) -> list:
        values = []
        for position, item in enumerate(text.split(","), start=1):
            try:
                values.append(convert(item))
            except ValueError:
                raise argparse.ArgumentTypeError(f"item {position} ({item!r}) is not {what}") from None
        return values

    return parse


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _encoder_config(args) -> EncoderConfig:
    if (args.embed_url is None) != (args.embed_model is None):
        raise ValueError("--embed-url and --embed-model must be given together")
    if args.embed_url is not None:
        # the external provider has no n-grams: a given n-gram flag exits 2
        for flag, value in (("--ngram-min", args.ngram_min), ("--ngram-max", args.ngram_max)):
            if value is not None:
                args.usage_error(f"argument {flag}: not allowed with --embed-url")
        return EncoderConfig("external", args.dimension, endpoint=args.embed_url, model=args.embed_model)
    lo, hi = EncoderConfig.ngram_range
    ngram_range = (lo if args.ngram_min is None else args.ngram_min, hi if args.ngram_max is None else args.ngram_max)
    return EncoderConfig(dimension=args.dimension, ngram_range=ngram_range)


def _cmd_ingest(args) -> int:
    dataset = load_dataset(args.manifest)
    _emit_json(dataset_stats(dataset).to_dict(), args.out)
    return 0


def _kb_index(args, dataset, config: EncoderConfig):
    """The KB index the flags ask for; an empty retained KB is an error."""
    index = index_dataset(dataset, args.kind, args.scale, args.seed, args.embed_mode, config)
    if index is None:
        raise ValueError(f"the knowledge base at scale {args.scale} has no content")
    return index


def _cmd_index(args) -> int:
    check_scale(args.scale)  # before the load
    check_embed_mode(args.kind, args.embed_mode)
    config = _encoder_config(args)
    index_matrix_path(args.out)  # a bad --out fails before the build
    index = _kb_index(args, load_dataset(args.manifest), config)
    matrix_path = save_index(index, args.out)
    sys.stdout.write(f"wrote {len(index)} nodes to {args.out} and {matrix_path}\n")
    return 0


def _cmd_retrieve(args) -> int:
    check_n_kb(args.nkb)  # before the index is read
    context = retrieve_contexts([args.text], load_index(args.index), [args.nkb])[0][0]
    if context.mode == "triplets":
        items = [{"triplet": triplet_to_json(t), "score": score} for t, score in context.items]
    else:
        items = [{**sentence_to_json(ex), "score": score} for ex, score in context.items]
    _emit_json({"mode": context.mode, "n_kb": args.nkb, "items": items}, args.out)
    return 0


def _cmd_extract(args) -> int:
    if args.llm_url is not None and args.extractor != "llm":
        raise ValueError(f"--llm-url is only used with --extractor llm, not {args.extractor!r}")
    spec = ExperimentRunSpec(
        manifest=args.manifest,
        mode=args.mode,
        extractor=args.extractor,
        prompt_kind=args.prompt,
        n_kb=args.nkb,
        scale=args.scale,
        seed=args.seed,
        split=args.split,
        embed_mode=args.embed_mode,
        encoder=_encoder_config(args),
        char_budget=args.budget,
        generation=GenerationConfig(model=args.model, temperature=args.temperature),
    )
    client = None
    if args.extractor == "llm":
        if not args.llm_url:
            raise ValueError("--llm-url is required with --extractor llm")
        client = RemoteLLMClient(args.llm_url, spec.generation)
    result = run_experiment(spec, out_dir=args.out, llm_client=client)
    summary = {
        "f1": result.report.f1,
        "precision": result.report.precision,
        "recall": result.report.recall,
        "sentences": len(result.runs),
        "failures": result.failures,
        "out": args.out,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_eval(args) -> int:
    predictions = load_predictions(args.pred)
    gold = [list(s.gold) for s in load_records(args.gold)]
    if len(predictions) != len(gold):
        message = f"{len(predictions)} prediction records, but {args.gold} holds {len(gold)} gold records"
        raise DatasetFormatError(message, path=args.pred)
    report = micro_f1(predictions, gold)
    _emit(report.to_json() + "\n", args.out)
    return 0


def _cmd_sweep_p(args) -> int:
    values = check_n_kb_values(args.nkb_list)  # before the load
    check_scale(args.scale)
    check_embed_mode(args.kind, args.embed_mode)
    config = _encoder_config(args)
    dataset = load_dataset(args.manifest)
    curve = sweep_context_quality(dataset.split(args.split), _kb_index(args, dataset, config), values)
    _emit(curve.to_csv(), args.out)
    return 0


def _cmd_ablate(args) -> int:
    if args.extractor == "llm":
        raise ValueError("the CLI ablation runs the pure extractors; --extractor llm needs run_ablation's llm_client")
    result = run_ablation(
        args.manifest,
        args.scales,
        args.seed,
        mode=args.mode,
        extractor=args.extractor,
        n_kb=args.nkb,
        encoder=_encoder_config(args),
        embed_mode=args.embed_mode,
    )
    _emit_json(result.to_dict(), args.out)
    if args.points_out:
        _emit(result.to_points_csv(), args.points_out)
    return 0


def _read_xy_csv(path: str) -> list[tuple[float, float]]:
    """(x, y) pairs from the first two columns; only the first non-blank line
    may be a non-numeric header."""
    lines_read = 0

    def parse(line: str) -> tuple[float, float] | None:
        nonlocal lines_read
        lines_read += 1
        line = line.strip()
        cells = line.split(",")
        if len(cells) < 2:
            raise ValueError(f"expected two CSV columns, got {line!r}")
        try:
            point = (float(cells[0]), float(cells[1]))
        except ValueError:
            if lines_read > 1:
                raise ValueError(f"non-numeric row {line!r}") from None
            return None
        if not all(map(math.isfinite, point)):
            raise ValueError(f"non-finite value in row {line!r}")
        return point

    points = [point for point in parse_lines(path, parse) if point is not None]
    if not points:
        raise DatasetFormatError("no numeric rows", path=path)
    return points


def _cmd_fit(args) -> int:
    points = _read_xy_csv(args.input)
    result = log_param_fit(points) if args.log_x else linear_fit(points)
    _emit_json(dataclasses.asdict(result), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgte", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # shared flags, each declared once in a parent parser
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--manifest", required=True)
    # commands that embed: the encoder flags, read by _encoder_config (a given n-gram flag is not None)
    run = argparse.ArgumentParser(add_help=False, parents=[dataset])
    run.add_argument("--seed", type=int, default=ExperimentRunSpec.seed)
    run.add_argument("--embed-mode", choices=EXAMPLE_EMBED_MODES, default=ExperimentRunSpec.embed_mode)
    run.add_argument("--dimension", type=int, default=EncoderConfig.dimension)
    run.add_argument("--ngram-min", type=int)
    run.add_argument("--ngram-max", type=int)
    run.add_argument("--embed-url", help="external embeddings endpoint (default: built-in hashed n-grams)")
    run.add_argument("--embed-model", help="model id for the external embeddings endpoint")
    # commands that build a KB index themselves
    kb_index = argparse.ArgumentParser(add_help=False, parents=[run])
    kb_index.add_argument("--kind", choices=NODE_KINDS, default="triplet")
    kb_index.add_argument("--scale", type=float, default=ExperimentRunSpec.scale)
    experiment = argparse.ArgumentParser(add_help=False, parents=[run])
    experiment.add_argument("--nkb", type=int, default=ExperimentRunSpec.n_kb)

    p = sub.add_parser("ingest", parents=[dataset], help="validate a dataset and report its statistics")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("index", parents=[kb_index], help="build and persist a vector index from a dataset's KB")
    p.add_argument("--out", required=True, help="JSON header path; the matrix goes beside it with the suffix .npy")
    p.set_defaults(func=_cmd_index, usage_error=p.error)

    p = sub.add_parser("retrieve", help="retrieve KB context for one sentence")
    p.add_argument("--index", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--nkb", type=int, default=ExperimentRunSpec.n_kb)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("extract", parents=[experiment], help="run the full extraction pipeline over a split")
    p.add_argument("--mode", choices=MODES, default="zero")
    p.add_argument("--prompt", choices=PROMPT_KINDS, default=ExperimentRunSpec.prompt_kind)
    p.add_argument("--extractor", choices=EXTRACTORS, default="llm")
    p.add_argument("--scale", type=float, default=ExperimentRunSpec.scale)
    p.add_argument("--split", choices=SPLIT_NAMES, default=ExperimentRunSpec.split)
    p.add_argument("--model", default=GenerationConfig.model)
    p.add_argument("--temperature", type=float, default=GenerationConfig.temperature)
    p.add_argument("--budget", type=int)
    p.add_argument("--llm-url", help="chat-completions base URL (required for --extractor llm)")
    p.add_argument("--out", required=True, help="directory for report.json, sentences.jsonl, spec.json")
    p.set_defaults(func=_cmd_extract, usage_error=p.error)

    p = sub.add_parser("eval", help="score a predictions file against gold records")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep-p", parents=[kb_index], help="context-quality curve P(N_KB) as CSV")
    p.add_argument("--nkb-list", type=_comma_list(int, "an integer"), required=True, help="comma-separated N_KB values, increasing")
    p.add_argument("--split", choices=SPLIT_NAMES, default=ExperimentRunSpec.split)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep_p, usage_error=p.error)

    p = sub.add_parser("ablate", parents=[experiment], help="KB-downscale ablation with a linear fit of F1 vs P_S")
    p.add_argument("--scales", type=_comma_list(float, "a number"), default="0,0.1,0.25,0.5,1")
    ablation_defaults = inspect.signature(run_ablation).parameters
    p.add_argument("--mode", choices=CONTEXT_MODES, default=ablation_defaults["mode"].default)
    p.add_argument("--extractor", choices=EXTRACTORS, default=ablation_defaults["extractor"].default)
    p.add_argument("--out")
    p.add_argument("--points-out", help="also write the (P_S, F1) pairs as x,y CSV for `kgte fit`")
    p.set_defaults(func=_cmd_ablate, usage_error=p.error)

    p = sub.add_parser("fit", help="OLS fit of a two-column CSV, optionally in log-x")
    p.add_argument("--input", required=True)
    p.add_argument("--log-x", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
