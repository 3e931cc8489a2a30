"""Benchmark entry point for kgte.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. For each workload it writes the synthetic
corpus of input seed ``--seed`` mod 20 (before any timing), starts the
set-up probes and fresh workload processes one at a time, and prints every metric by name with
its unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
the per-layer ones. The exit code is 1 when an output check fails, and 2,
with no result line, when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus_gen
from workload import WORKLOADS, percentile

BENCH = Path(__file__).resolve().parent
SHAPE_OF = {"webnlg-pipeline": "webnlg", "nyt-index": "nyt", "webnlg-llm": "webnlg"}
# Fresh processes that only set up; with the set-up of each workload process
# they give the samples whose median is setup_s.
SETUP_PROBES = 8
# Inputs come from seed mod INPUT_SEEDS: expected.json records the
# pure-extractor output hashes of input seeds 0 .. INPUT_SEEDS - 1.
INPUT_SEEDS = 20
# calls_per_s is the median rate over windows of this many consecutive
# completions, so a slowdown of a shared machine lasting a few windows does
# not set it.
CALL_WINDOW = 50
RUN_BUDGET_S = 175.0
# every job of every workload; each is a per-layer metric "<job>_s"
JOB_SECONDS = list(dict.fromkeys(job for jobs in WORKLOADS.values() for job, _ in jobs if job != "query"))


def job_seconds(out: dict, job: str) -> float:
    """A job's time in one workload process; the median if it ran repeatedly."""
    return statistics.median(seconds for name, seconds in out["jobs"] if name == job)


def wall_seconds(out: dict) -> float:
    return sum(seconds for _, seconds in out["jobs"])


def window_rates(phases: list[list[float]]) -> list[float]:
    """Calls per second in each window of CALL_WINDOW consecutive completions
    within one phase; ``phases`` holds each phase's completion times."""
    rates = []
    for ends in phases:
        rates += [CALL_WINDOW / (ends[k + CALL_WINDOW] - ends[k]) for k in range(0, len(ends) - CALL_WINDOW, CALL_WINDOW)]
    return rates


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workload.py"), *args],
            capture_output=True, text=True, env=env, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {remaining:.0f}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path, spec: dict) -> dict:
    """Run one workload from input seed ``seed``."""
    deadline = time.monotonic() + RUN_BUDGET_S
    shape_name = SHAPE_OF[name]
    manifest = corpus_gen.write_corpus(corpus_gen.SHAPES[shape_name], seed, work_root / "corpora" / f"{shape_name}-{seed}")
    setups = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            setups.append(_child(["--setup-only", "--manifest", str(manifest)], deadline)["setup_s"])

    def workload_process(traced: bool) -> dict:
        run_dir = work_root / f"run-{os.getpid()}-{name}"
        try:
            return _child(
                ["--workload", name, "--manifest", str(manifest), "--seed", str(seed),
                 "--trace", str(int(traced)), "--work", str(run_dir)],
                deadline,
            )
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    # Each pass runs in a fresh process, so every pass starts with the cold
    # caches a user's process starts with.
    outs = []
    if trace:
        outs = [workload_process(False), workload_process(True)]
    else:
        # half the probes before the workload processes and half after, so
        # that setup_s samples the machine over the whole run
        probe_setup(SETUP_PROBES // 2)
        while not outs or sum(map(wall_seconds, outs)) < seconds:
            outs.append(workload_process(False))
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    setups += [o["setup_s"] for o in outs]
    problems = [p for o in outs for p in o["problems"]]

    untraced = outs[0]
    plain = [o for o in outs if not o["layers"]]
    latencies = [x for o in plain for x in o["latencies_ms"]]
    if trace:
        traced = outs[1]
        values = dict(traced["layers"])
        values["trace_overhead_ratio"] = wall_seconds(traced) / wall_seconds(untraced)
        values["wall_s"] = wall_seconds(untraced)
        ran = {job for job, _ in untraced["jobs"]}
        values.update({f"{job}_s": job_seconds(untraced, job) if job in ran else 0.0 for job in JOB_SECONDS})
        values["call_p99_ms"] = percentile(latencies, 99)
        values["call_samples"] = len(latencies)
        values["error_rate"] = untraced["llm"]["error_rate"] if untraced["llm"] else 0.0
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "call_p50_ms": percentile(latencies, 50),
            "calls_per_s": statistics.median(window_rates([ends for o in plain for ends in o["call_ends"]])),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"== {name} (input seed {seed}, {len(outs)} workload process(es), trace {int(trace)})")
    for metric, entry in metrics.items():
        print(f"  {metric:42} {entry['value']:>16.6g} {entry['unit']}")
    if not trace:
        # per-layer metrics, printed for reference: they do not repeat within a tenth
        print(f"  {'wall_s':42} {statistics.median(map(wall_seconds, outs)):>16.6g} s (median over processes)")
        for job in dict.fromkeys(job for job, _ in untraced["jobs"]):
            job_s = statistics.median(job_seconds(o, job) for o in outs)
            print(f"  {job + '_s':42} {job_s:>16.6g} s (median job time)")
        print(f"  {'call_p99_ms':42} {percentile(latencies, 99):>16.6g} ms")
        print(f"  {'call_samples':42} {len(latencies):>16d} count")
    if untraced["llm"]:
        print(f"  llm outcome: {json.dumps(untraced['llm'], sort_keys=True)}")
    print(f"  output hashes: {untraced['hash_check']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    attempted = sum(o["attempted"] for o in outs)
    return {"metrics": metrics, "attempted": attempted, "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="kgte benchmark")
    parser.add_argument("--workload", default="all", choices=("all", *SHAPE_OF))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (Path.cwd() / "src" / "kgte" / "__init__.py").is_file():
            raise BenchError("run from the repository root: src/kgte is missing")
        spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = list(SHAPE_OF) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(
                name, args.seed % INPUT_SEEDS, args.seconds, bool(args.trace), Path.cwd() / ".bench_work", spec
            )
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    problems = [p for r in results.values() for p in r["problems"]]
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry for name, r in results.items() for metric, entry in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
