"""Command-line surface tying the pipeline together.

Commands: ingest, index, retrieve, extract, eval, sweep-p, ablate, fit.
Outputs are JSON or CSV written to --out (stdout when omitted). Exit code is
0 on success; failures print a machine-readable error record to stderr and
exit nonzero. The LLM/embeddings credential is read from KGTE_API_KEY.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    EXPERIMENT_MODES,
    EXTRACTORS,
    ExperimentRunSpec,
    linear_fit,
    log_param_fit,
    run_ablation,
    run_experiment,
)
from .corpus import (
    Triplet,
    build_kb,
    dataset_stats,
    downscale_kb,
    load_dataset,
    load_records,
)
from .encoder import EncoderConfig
from .evaluation import micro_f1, sweep_context_quality
from .extraction import GenerationConfig, RemoteLLMClient
from .retriever import retrieve_examples, retrieve_triplets
from .vector_index import EXAMPLE_EMBED_MODES, NODE_KINDS, build_index, load_index, save_index

_PROMPT_FLAG_TO_KIND = {"base": "base", "cot": "chain_of_thought", "documented": "documented"}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _encoder_config(args) -> EncoderConfig:
    if args.embed_url:
        return EncoderConfig(
            provider="external",
            dimension=args.dimension,
            endpoint=args.embed_url,
            model=args.embed_model or "default",
        )
    return EncoderConfig(
        provider="hashed-ngram",
        dimension=args.dimension,
        ngram_range=(args.ngram_min, args.ngram_max),
    )


def _add_encoder_flags(parser: argparse.ArgumentParser, *, external: bool) -> None:
    """``external`` adds the external-provider flags, for the commands that
    build an index themselves; experiment runs always use hashed n-grams."""
    parser.add_argument("--dimension", type=int, default=384)
    parser.add_argument("--ngram-min", type=int, default=3)
    parser.add_argument("--ngram-max", type=int, default=5)
    if external:
        parser.add_argument("--embed-url", help="external embeddings endpoint (default: built-in hashed n-grams)")
        parser.add_argument("--embed-model", help="model id for the external embeddings endpoint")


def _cmd_ingest(args) -> int:
    dataset = load_dataset(args.manifest)
    _emit_json(dataset_stats(dataset).to_dict(), args.out)
    return 0


def _cmd_index(args) -> int:
    dataset = load_dataset(args.manifest)
    kb = build_kb(dataset.train, dataset.validation)
    if args.scale < 1.0:
        kb = downscale_kb(kb, args.scale, args.seed)
    index = build_index(kb, args.kind, args.embed_mode, _encoder_config(args))
    save_index(index, args.out)
    sys.stdout.write(f"wrote {len(index)} nodes to {args.out}\n")
    return 0


def _cmd_retrieve(args) -> int:
    index = load_index(args.index)
    if index.kind == "triplet":
        context = retrieve_triplets(args.text, index, args.nkb)
        items = [
            {"triplet": list(t.as_tuple()), "score": score} for t, score in context.items
        ]
    else:
        context = retrieve_examples(args.text, index, args.nkb)
        items = [
            {
                "text": ex.text,
                "triplets": [list(t.as_tuple()) for t in ex.gold],
                "score": score,
            }
            for ex, score in context.items
        ]
    _emit_json({"mode": context.mode, "n_kb": args.nkb, "items": items}, args.out)
    return 0


def _cmd_extract(args) -> int:
    spec = ExperimentRunSpec(
        manifest=args.manifest,
        mode=args.mode,
        extractor=args.extractor,
        prompt_kind=_PROMPT_FLAG_TO_KIND[args.prompt],
        n_kb=args.nkb,
        scale=args.scale,
        seed=args.seed,
        split=args.split,
        embed_mode=args.embed_mode,
        dimension=args.dimension,
        ngram_range=(args.ngram_min, args.ngram_max),
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


def _read_triplet_lines(path: str) -> list[list[Triplet]]:
    """One triplet list per non-blank line: a JSON list of [s, p, o] lists,
    or an object holding one under "triplets"."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            raw = obj.get("triplets") if isinstance(obj, dict) else obj
            if not isinstance(raw, list):
                raise ValueError(f"{path}:{lineno}: expected a list of triplets or an object with 'triplets'")
            for item in raw:
                if not (isinstance(item, list) and len(item) == 3 and all(isinstance(x, str) for x in item)):
                    raise ValueError(f"{path}:{lineno}: triplet {item!r} is not a 3-element list of strings")
            rows.append([Triplet(*item) for item in raw])
    return rows


def _cmd_eval(args) -> int:
    predictions = _read_triplet_lines(args.pred)
    gold = [list(s.gold) for s in load_records(args.gold)]
    report = micro_f1(predictions, gold)
    _emit(report.to_json() + "\n", args.out)
    return 0


def _cmd_sweep_p(args) -> int:
    dataset = load_dataset(args.manifest)
    kb = build_kb(dataset.train, dataset.validation)
    if args.scale < 1.0:
        kb = downscale_kb(kb, args.scale, args.seed)
    index = build_index(kb, args.kind, args.embed_mode, _encoder_config(args))
    values = [int(v) for v in args.nkb_list.split(",")]
    curve = sweep_context_quality(
        dataset.split(args.split), index, values, scale=args.scale
    )
    _emit(curve.to_csv(), args.out)
    return 0


def _cmd_ablate(args) -> int:
    scales = [float(v) for v in args.scales.split(",")]
    result = run_ablation(
        args.manifest,
        scales,
        args.seed,
        mode=args.mode,
        extractor=args.extractor,
        n_kb=args.nkb,
        dimension=args.dimension,
        ngram_range=(args.ngram_min, args.ngram_max),
        embed_mode=args.embed_mode,
    )
    _emit_json(result.to_dict(), args.out)
    if args.points_out:
        _emit(result.to_points_csv(), args.points_out)
    return 0


def _read_xy_csv(path: str) -> list[tuple[float, float]]:
    """(x, y) pairs from the first two columns; only the first non-blank line
    may be a non-numeric header."""
    points = []
    seen_line = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise ValueError(f"{path}:{lineno}: expected two CSV columns, got {line!r}")
            try:
                points.append((float(cells[0]), float(cells[1])))
            except ValueError:
                if seen_line:
                    raise ValueError(f"{path}:{lineno}: non-numeric row {line!r}") from None
            seen_line = True
    if not points:
        raise ValueError(f"no numeric rows in {path}")
    return points


def _cmd_fit(args) -> int:
    points = _read_xy_csv(args.input)
    result = log_param_fit(points) if args.log_x else linear_fit(points)
    _emit_json(result.to_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgte", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a dataset and report its statistics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("index", help="build and persist a vector index from a dataset's KB")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kind", choices=NODE_KINDS, default="triplet")
    p.add_argument("--embed-mode", choices=EXAMPLE_EMBED_MODES, default="sentence")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_encoder_flags(p, external=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("retrieve", help="retrieve KB context for one sentence")
    p.add_argument("--index", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--nkb", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("extract", help="run the full extraction pipeline over a split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=EXPERIMENT_MODES, default="zero")
    p.add_argument("--prompt", choices=tuple(_PROMPT_FLAG_TO_KIND), default="base")
    p.add_argument("--extractor", choices=EXTRACTORS, default="llm")
    p.add_argument("--nkb", type=int, default=5)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.add_argument("--embed-mode", choices=EXAMPLE_EMBED_MODES, default="sentence")
    p.add_argument("--model", default="llama-65b")
    p.add_argument("--temperature", type=float, default=0.1)
    p.add_argument("--budget", type=int)
    p.add_argument("--llm-url", help="chat-completions base URL (required for --extractor llm)")
    p.add_argument("--out", required=True, help="directory for report.json, sentences.jsonl, spec.json")
    _add_encoder_flags(p, external=False)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("eval", help="score a predictions file against gold records")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep-p", help="context-quality curve P(N_KB) as CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kind", choices=NODE_KINDS, default="triplet")
    p.add_argument("--embed-mode", choices=EXAMPLE_EMBED_MODES, default="sentence")
    p.add_argument("--nkb-list", required=True, help="comma-separated N_KB values, increasing")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.add_argument("--out")
    _add_encoder_flags(p, external=True)
    p.set_defaults(func=_cmd_sweep_p)

    p = sub.add_parser("ablate", help="KB-downscale ablation with a linear fit of F1 vs P_S")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scales", default="0,0.1,0.25,0.5,1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("triplets", "examples"), default="triplets")
    p.add_argument("--extractor", choices=EXTRACTORS, default="random")
    p.add_argument("--nkb", type=int, default=5)
    p.add_argument("--embed-mode", choices=EXAMPLE_EMBED_MODES, default="sentence")
    p.add_argument("--out")
    p.add_argument("--points-out", help="also write the (P_S, F1) pairs as x,y CSV for `kgte fit`")
    _add_encoder_flags(p, external=False)
    p.set_defaults(func=_cmd_ablate)

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
