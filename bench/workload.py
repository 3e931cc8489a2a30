"""One pass of one benchmark workload, in a fresh process started by ``run.py``.

    python3 bench/workload.py --workload NAME --manifest PATH --seed N \
        --trace 0|1 --work DIR
    python3 bench/workload.py --setup-only --manifest PATH

The process imports ``kgte`` from ``src/`` of the working directory, sets
up (import, ``load_dataset``, ``build_kb``), runs the workload's jobs once
and checks their outputs. Every job reaches the program through its public
functions only. The last line of output is one JSON object: set-up and job
times, latency samples, check results and, with ``--trace 1``, the
per-layer numbers of the traced pass.

Nothing here imports numpy before set-up, so ``setup_s`` includes it.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import importlib
import json
import math
import os
import random
import resource
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import fake_llm
from tracer import Tracer, self_times

# Job parameters; N_KB = 5 is the CLI's default and the sweep's values are
# those of its documented `kgte sweep-p` example.
N_KB = 5
SWEEP_NKB = (1, 2, 5, 10, 20)
STUDY_NKB = (1, 2, 5)
STUDY_TRIALS = 3
ABLATION_SCALES = (0.0, 0.25, 0.5, 1.0)
# Closed-loop single queries, in chunks spread over the pass so that a
# transient slowdown of a shared machine cannot set the whole distribution.
# Over 1000 samples per pass leave ten beyond the 99th percentile.
QUERY_CHUNK = 334
# Queries per run compared against the brute-force ranking.
CHECK_SAMPLE = 25
LLM_LATENCY_S = 0.010
LLM_BACKOFF_BASE_S = 0.002
LLM_URL = "http://fake-llm.invalid/v1"

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def setup(manifest: Path):
    """Import the program from ``src/`` and load the corpus; returns
    ``(kgte, dataset, kb, seconds)``."""
    start = time.perf_counter()
    import kgte

    source = Path.cwd().resolve() / "src"
    if not Path(kgte.__file__).resolve().is_relative_to(source):
        raise SystemExit(f"kgte was imported from {kgte.__file__}, not from {source}")
    dataset = kgte.load_dataset(manifest)
    kb = kgte.build_kb(dataset.train, dataset.validation)
    return kgte, dataset, kb, time.perf_counter() - start


class Context:
    """What the jobs of one run share: the program, its inputs, and what
    earlier jobs produced."""

    def __init__(self, kgte, dataset, kb, manifest: Path, seed: int, work: Path):
        self.kgte = kgte
        self.dataset = dataset
        self.kb = kb
        self.manifest = manifest
        self.seed = seed
        self.work = work
        self.index = None
        self.outputs: dict[str, str] = {}
        self.latencies: list[float] = []
        # completion times of the timed calls, one list per phase that issues them
        self.call_ends: list[list[float]] = []
        self.queries_sent = 0
        self.results: dict[str, object] = {}
        self.on_transport_call = None


# --- jobs -----------------------------------------------------------------


def _run_extraction(ctx: Context, name: str, mode: str, extractor: str) -> None:
    spec = ctx.kgte.ExperimentRunSpec(manifest=str(ctx.manifest), mode=mode, extractor=extractor, n_kb=N_KB, seed=ctx.seed)
    ctx.kgte.run_experiment(spec, ctx.work / name)


def job_extract_triplets(ctx: Context) -> None:
    _run_extraction(ctx, "extract_triplets", "triplets", "oracle-prefix")


def job_extract_examples(ctx: Context) -> None:
    _run_extraction(ctx, "extract_examples", "examples", "random")


def job_sweep(ctx: Context) -> None:
    # as `kgte sweep-p`: build the triplet index, then the P(N_KB) curve
    ctx.index = ctx.kgte.build_index(ctx.kb, "triplet")
    curve = ctx.kgte.sweep_context_quality(ctx.dataset.test, ctx.index, SWEEP_NKB)
    ctx.outputs["sweep"] = curve.to_csv()


def job_study(ctx: Context) -> None:
    rows = ctx.kgte.random_model_study(
        ctx.dataset.test, ctx.index, STUDY_NKB, ctx.dataset.max_triplets, ctx.seed, STUDY_TRIALS
    )
    ctx.outputs["study"] = json.dumps([row.to_dict() for row in rows], sort_keys=True)


def job_ablate(ctx: Context) -> None:
    result = ctx.kgte.run_ablation(str(ctx.manifest), ABLATION_SCALES, ctx.seed, n_kb=N_KB)
    ctx.outputs["ablate"] = json.dumps(result.to_dict(), sort_keys=True)


def job_query(ctx: Context) -> None:
    """One closed-loop caller: each query is sent when the previous returns.
    Successive chunks continue through the test split."""
    test = ctx.dataset.test
    texts = [test[i % len(test)].text for i in range(ctx.queries_sent, ctx.queries_sent + QUERY_CHUNK)]
    retrieve = ctx.kgte.retrieve_triplets
    clock = time.perf_counter
    latencies, ends = [], []
    for text in texts:
        start = clock()
        retrieve(text, ctx.index, N_KB)
        ends.append(clock())
        latencies.append(ends[-1] - start)
    ctx.queries_sent += QUERY_CHUNK
    ctx.latencies.extend(latencies)
    ctx.call_ends.append(ends)


def job_index(ctx: Context) -> None:
    # `kgte index`, in process; importing the CLI module is part of its cost
    import kgte.cli

    status = kgte.cli.main(["index", "--manifest", str(ctx.manifest), "--out", str(ctx.work / "kb.index.json")])
    if status != 0:
        raise RuntimeError(f"kgte index exited with status {status}")


def job_index_load(ctx: Context) -> None:
    # the fixed cost every `kgte retrieve` pays
    ctx.index = ctx.kgte.load_index(ctx.work / "kb.index.json")


def job_llm_extract(ctx: Context) -> None:
    kgte = ctx.kgte
    in_flight = len(os.sched_getaffinity(0))  # nproc
    transport = fake_llm.FakeChatTransport(ctx.results["golds"], LLM_LATENCY_S, on_call=ctx.on_transport_call)
    sleeper = fake_llm.CountingSleeper()
    latencies, ends = ctx.latencies, []
    clock = time.perf_counter

    class TimedClient(kgte.RemoteLLMClient):
        """Times each generate() as its caller sees it: semaphore wait,
        attempts and backoff included."""

        def generate(self, prompt):
            start = clock()
            try:
                return super().generate(prompt)
            finally:
                ends.append(clock())
                latencies.append(ends[-1] - start)

    generation = kgte.GenerationConfig(in_flight=in_flight)
    client = TimedClient(LLM_URL, generation, api_key="", transport=transport, sleeper=sleeper, backoff_base=LLM_BACKOFF_BASE_S)
    spec = kgte.ExperimentRunSpec(manifest=str(ctx.manifest), mode="static2", extractor="llm", seed=ctx.seed, generation=generation)
    result = kgte.run_experiment(spec, llm_client=client)
    ctx.call_ends.append(sorted(ends))
    ctx.results["llm"] = (result, transport.attempts, sleeper.calls, sleeper.seconds)


WORKLOADS = {
    "webnlg-pipeline": (
        ("extract_triplets", job_extract_triplets),
        ("extract_examples", job_extract_examples),
        ("sweep", job_sweep),
        ("query", job_query),
        ("study", job_study),
        ("query", job_query),
        ("ablate", job_ablate),
        ("query", job_query),
    ),
    "nyt-index": (
        ("index", job_index),
        ("index_load", job_index_load),
        ("query", job_query),
        ("query", job_query),
        ("query", job_query),
    ),
    "webnlg-llm": (("llm_extract", job_llm_extract),),
}


# --- output checks --------------------------------------------------------


def brute_force_triplets(kgte, index, matrix, text: str, n_kb: int):
    """Top ``n_kb`` by full score, descending, ties by ascending id, then at
    most two triplets per predicate in rank order: the retrieval contract,
    restated without the program's ranking code. ``matrix`` stacks the node
    vectors in id order."""
    scores = (matrix @ kgte.encode(text, index.encoder_config)).tolist()
    top = heapq.nsmallest(n_kb, range(len(scores)), key=lambda i: (-scores[i], i))
    kept, per_predicate = [], defaultdict(int)
    for i in top:
        triplet = index.nodes[i].payload
        if per_predicate[triplet.predicate] < 2:
            per_predicate[triplet.predicate] += 1
            kept.append((triplet, scores[i]))
    return kept


def check_retrieval(ctx: Context, sample: list[int]) -> list[str]:
    """Compare ``retrieve_triplets`` on sampled test sentences with the
    brute force, and for the oracle-prefix run (which predicts the first
    min(max_triplets, |context|) context triplets) its report as well."""
    import numpy as np

    matrix = np.stack([node.vector for node in ctx.index.nodes])
    report_path = ctx.work / "extract_triplets" / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.exists() else None
    problems = []
    for i in sample:
        text = ctx.dataset.test[i].text
        got = ctx.kgte.retrieve_triplets(text, ctx.index, N_KB).items
        want = brute_force_triplets(ctx.kgte, ctx.index, matrix, text, N_KB)
        same = [t for t, _ in got] == [t for t, _ in want] and all(
            abs(a - b) <= 1e-9 for (_, a), (_, b) in zip(got, want)
        )
        if not same:
            problems.append(f"retrieve_triplets differs from the brute-force ranking for test sentence {i}")
        prefix = sorted(list(t.as_tuple()) for t, _ in want[: ctx.dataset.max_triplets])
        if report is not None and report["per_sentence"][i]["pred"] != prefix:
            problems.append(f"oracle-prefix prediction for test sentence {i} is not the brute-force context prefix")
    return problems


def check_llm(ctx: Context) -> tuple[list[str], dict]:
    result, attempts, retries, _ = ctx.results["llm"]
    want = fake_llm.expected_outcome(ctx.results["golds"])
    got = {
        "sentences": len(result.runs),
        "failures": result.failures,
        "retries": retries,
        "attempts": attempts,
        "malformed_lines": sum(run.malformed_lines for run in result.runs),
        "f1": result.report.f1,
        "error_rate": result.failures / len(result.runs),
    }
    expected = {key: getattr(want, key) for key in got}
    problems = [f"llm run: {key} is {got[key]!r}, the fake endpoint implies {expected[key]!r}" for key in expected if got[key] != expected[key]]
    return problems, got


def output_hashes(ctx: Context) -> dict[str, str]:
    hashes = {name: sha256_text(text) for name, text in ctx.outputs.items()}
    for name in ("extract_triplets", "extract_examples"):
        report = ctx.work / name / "report.json"
        if report.exists():
            hashes[name] = hashlib.sha256(report.read_bytes()).hexdigest()
    return hashes


def check_hashes(workload: str, seed: int, hashes: dict[str, str]) -> tuple[list[str], str]:
    recorded = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    if recorded is None:
        return [f"no recorded output hashes for {workload} at input seed {seed}"], "no recorded hashes"
    problems = [
        f"{name}: output SHA-256 {hashes.get(name)} != recorded {digest}"
        for name, digest in recorded.items()
        if hashes.get(name) != digest
    ]
    return problems, "matched the recorded hashes"


# --- per-layer metrics ----------------------------------------------------


def _trace_targets(kgte, counters: dict):
    importlib.import_module("kgte.cli")

    def count(key, value):
        counters[key] = counters.get(key, 0) + value

    def on_render(args, kwargs, result):
        count("prompting.truncated", int(result.truncated))

    def on_parse(args, kwargs, result):
        count("parsing.malformed_lines", result.malformed_lines)

    def on_retrieve(args, kwargs, result):
        count("retriever.items", result.n_returned)
        count("retriever.requested", result.n_kb_requested)

    def on_index(args, kwargs, result):
        counters["vector_index.nodes"] = max(counters.get("vector_index.nodes", 0), len(result))

    def on_save(args, kwargs, result):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        counters["vector_index.file_bytes"] = os.path.getsize(path)

    m = kgte
    return [
        (m.corpus, "load_dataset", "corpus.load", None),
        (m.corpus, "downscale_kb", "corpus.downscale", None),
        (m.encoder, "encode", "encoder.encode", None),
        (m.vector_index, "build_index", "vector_index.build", on_index),
        (m.vector_index, "top_k", "vector_index.top_k", None),
        (m.vector_index, "save_index", "vector_index.save", on_save),
        (m.vector_index, "load_index", "vector_index.load", on_index),
        (m.retriever, "retrieve_triplets", "retriever.retrieve", on_retrieve),
        (m.retriever, "retrieve_examples", "retriever.retrieve", on_retrieve),
        (m.prompting, "render", "prompting.render", on_render),
        (m.extraction.RemoteLLMClient, "generate", "extraction.generate", None),
        (m.extraction, "exhaustive_random_f1", "extraction.exhaustive_random_f1", None),
        (m._transport, "post_json", "transport.post_json", None),
        (m.parsing, "parse_triplets", "parsing.parse", on_parse),
        (m.evaluation, "micro_f1", "evaluation.micro_f1", None),
        (m.evaluation, "sweep_context_quality", "evaluation.sweep", None),
        (m.evaluation, "context_hit_probability", "evaluation.hit_probability", None),
        (m.analysis, "run_experiment", "analysis.run_experiment", None),
        (m.analysis, "random_model_study", "analysis.study", None),
        (m.analysis, "run_ablation", "analysis.ablation", None),
        (m.cli, "main", "cli.main", None),
    ]


LAYER_COUNTS = ("corpus.load", "corpus.downscale", "encoder.encode_doc", "encoder.encode_query",
                "vector_index.build", "vector_index.top_k", "retriever.retrieve", "prompting.render",
                "extraction.generate", "transport.post_json", "parsing.parse")
LAYER_SELF = ("corpus.load", "corpus.downscale", "encoder.encode_doc", "encoder.encode_query",
              "vector_index.build", "vector_index.top_k", "vector_index.save", "vector_index.load",
              "retriever.retrieve", "prompting.render", "extraction.exhaustive_random_f1", "parsing.parse",
              "evaluation.micro_f1", "evaluation.sweep", "evaluation.hit_probability",
              "analysis.run_experiment", "analysis.study", "analysis.ablation", "cli.main")
LAYER_LATENCY = ("vector_index.top_k", "extraction.generate")
# Least share of a job's traced wall time that must fall inside traced
# layers. The query loop's own few microseconds per call are not covered, so
# the floor leaves room for retrieval to get several times faster.
MIN_COVERAGE = 0.98


def layer_metrics(spans, counters: dict) -> tuple[dict, list[str]]:
    """Per-layer numbers of one traced pass, and problems with the trace."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        name = span.name
        if name == "encoder.encode":
            name = "encoder.encode_doc" if span.ancestor(frozenset({"vector_index.build"})) else "encoder.encode_query"
        calls[name] += 1
        self_s[name] += selfs[id(span)]
        durations[name].append(span.duration)
    metrics = {f"{name}.calls": calls[name] for name in LAYER_COUNTS}
    metrics.update({f"{name}.self_s": self_s[name] for name in LAYER_SELF})
    for name in LAYER_LATENCY:
        samples = durations[name]
        metrics[f"{name}.p50_ms"] = percentile(samples, 50) * 1e3 if samples else 0.0
        metrics[f"{name}.p99_ms"] = percentile(samples, 99) * 1e3 if samples else 0.0
    requested = counters.get("retriever.requested", 0)
    metrics["retriever.kept_ratio"] = counters.get("retriever.items", 0) / requested if requested else 0.0
    metrics["transport.post_json.failures"] = sum(1 for s in spans if s.name == "transport.post_json" and s.error)
    for key in ("prompting.truncated", "parsing.malformed_lines", "vector_index.nodes", "vector_index.file_bytes",
                "extraction.queue_wait_s", "transport.post_json.attempts", "transport.post_json.retries",
                "transport.backoff_s"):
        metrics[key] = counters.get(key, 0)
    lookups = counters.get("encoder.ngram_hits", 0) + counters.get("encoder.ngram_misses", 0)
    metrics["encoder.ngram_cache_hit_ratio"] = counters.get("encoder.ngram_hits", 0) / lookups if lookups else 0.0

    # Every span must belong to a job's tree (worker-thread spans included),
    # and traced layers must account for nearly all of each job's wall time:
    # the job span's own self time is what no traced layer covers.
    problems = []
    orphans = defaultdict(int)
    for span in spans:
        root = span
        while root.parent is not None:
            root = root.parent
        if not root.name.startswith("job."):
            orphans[span.name] += 1
    problems += [f"{count} {name} span(s) outside every job's span tree" for name, count in orphans.items()]
    coverage = []
    for job in (s for s in spans if s.name.startswith("job.")):
        coverage.append(1 - selfs[id(job)] / job.duration)
        if coverage[-1] < MIN_COVERAGE:
            problems.append(f"{job.name}: traced layers cover {coverage[-1]:.4f} of its wall time, below {MIN_COVERAGE}")
    metrics["trace.coverage"] = min(coverage)
    return metrics, problems


# --- passes and entry point ----------------------------------------------


def run_pass(ctx: Context, jobs, tracer: Tracer | None = None, counters: dict | None = None) -> list[tuple[str, float]]:
    """Run the jobs once, in order; returns (job, seconds) per job run."""
    cache_info = getattr(getattr(ctx.kgte.encoder, "_ngram_slot", None), "cache_info", None)
    timings = []
    for name, job in jobs:
        before = cache_info() if cache_info else None
        start = time.perf_counter()
        if tracer is None:
            job(ctx)
        else:
            with tracer.span(f"job.{name}"):
                job(ctx)
        timings.append((name, time.perf_counter() - start))
        if counters is not None and before is not None:
            after = cache_info()
            counters["encoder.ngram_hits"] = counters.get("encoder.ngram_hits", 0) + after.hits - before.hits
            counters["encoder.ngram_misses"] = counters.get("encoder.ngram_misses", 0) + after.misses - before.misses
    return timings


def traced_pass(ctx: Context, jobs) -> tuple[list[tuple[str, float]], dict, list[str]]:
    kgte = ctx.kgte
    tracer = Tracer()
    counters: dict = {}
    lock = threading.Lock()
    started: set[int] = set()

    def on_transport_call():
        # queue wait: from entering generate() to its first transport attempt
        generate = tracer.current("extraction.generate")
        with lock:
            if generate is not None and id(generate) not in started:
                started.add(id(generate))
                counters["extraction.queue_wait_s"] = counters.get("extraction.queue_wait_s", 0.0) + time.perf_counter() - generate.start

    ctx.on_transport_call = on_transport_call
    tracer.install(_trace_targets(kgte, counters))
    try:
        timings = run_pass(ctx, jobs, tracer, counters)
    finally:
        tracer.uninstall()
        ctx.on_transport_call = None
    if "llm" in ctx.results:
        _, attempts, retries, backoff_s = ctx.results["llm"]
        counters["transport.post_json.attempts"] = attempts
        counters["transport.post_json.retries"] = retries
        counters["transport.backoff_s"] = backoff_s
    metrics, problems = layer_metrics(tracer.spans, counters)
    return timings, metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    kgte, dataset, kb, setup_s = setup(args.manifest)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload is None or args.work is None:
        parser.error("--workload and --work are required unless --setup-only")

    args.work.mkdir(parents=True, exist_ok=True)
    ctx = Context(kgte, dataset, kb, args.manifest, args.seed, args.work)
    problems = []
    recorded = json.loads((args.manifest.parent / "dataset_stats.json").read_text(encoding="utf-8"))["stats"]
    loaded = kgte.dataset_stats(dataset).to_dict()
    if loaded != recorded:
        problems.append(f"dataset_stats {loaded} differ from the generator's {recorded}")
    if args.workload == "webnlg-llm":
        ctx.results["golds"] = {
            record["text"]: tuple(tuple(t) for t in record["triplets"])
            for record in map(json.loads, (args.manifest.parent / "test.jsonl").read_text(encoding="utf-8").splitlines())
        }
    jobs = WORKLOADS[args.workload]

    if args.trace:
        timings, layers, trace_problems = traced_pass(ctx, jobs)
        problems += trace_problems
    else:
        timings, layers = run_pass(ctx, jobs), None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks allocate
    llm = None
    if "llm" in ctx.results:
        llm_problems, llm = check_llm(ctx)
        problems += llm_problems
    if ctx.index is not None:
        sample = random.Random(args.seed).sample(range(len(dataset.test)), CHECK_SAMPLE)
        problems += check_retrieval(ctx, sample)
    hashes = output_hashes(ctx)
    hash_note = "no pure-extractor outputs"
    if hashes:
        hash_problems, hash_note = check_hashes(args.workload, args.seed, hashes)
        problems += hash_problems

    print(json.dumps({
        "setup_s": setup_s,
        "jobs": timings,
        "latencies_ms": [x * 1e3 for x in ctx.latencies],
        "call_ends": ctx.call_ends,
        "hashes": hashes,
        "hash_check": hash_note,
        "llm": llm,
        "layers": layers,
        "problems": problems,
        # checked operations: every job, plus every query or LLM request
        "attempted": len(jobs) + len(ctx.latencies),
        "peak_rss_mb": peak_rss_mb,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
