"""Benchmark runner for the addlam workbench.

    python3 perfbench/run.py --workload corpus-typing --seed 1 --seconds 30 --trace 0

Runs passes of one workload, each in a fresh single-threaded process
(``workloads.py``), until ``--seconds`` are used up, checks every verdict
against a known answer, and prints one line per metric (name, value, unit)
followed by a JSON summary as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The workload seed picks one recorded corpus seed, and every pass of the
run uses it, so passes differ only in timing and a faster commit measures
the same work as a slower one. Every pass runs with ``PYTHONHASHSEED``
pinned, because the SN explorer walks ``frozenset`` reducts whose order
follows string hashes, so a budget-bound exploration would otherwise visit
different states.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes on the same corpus and
reports the per-layer metrics: calls and self time of the traced functions,
counts read from their results, and the tracing overhead.

The exit code is 0 when every verdict was right, 1 when some verdict was
wrong (the summary says so), and 2 when a pass could not run at all, for
instance in a checkout without the package's sources; then no summary is
printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"
HASH_SEED = "0"
PASS_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import SIZES, WORKLOADS  # noqa: E402


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def pool() -> list[int]:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))["pool"]


def corpus_seed(seed: int) -> int:
    """The recorded corpus seed that every pass of a run with this workload
    seed uses."""
    seeds = pool()
    return seeds[seed % len(seeds)]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_info(args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "corpus_seed": corpus_seed(args.seed),
        "python_hash_seed": HASH_SEED,
        "scale": args.scale,
        "sizes": SIZES[args.scale],
        "seconds": args.seconds,
        "trace": args.trace,
    }


class PassFailed(Exception):
    pass


def one_pass(workload: str, seed: int, scale: str, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--trace", str(int(trace))]
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(SPANS_DIR / f"spans-{workload}.jsonl")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = HASH_SEED
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} seed {seed}: no result within {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise PassFailed(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["python_hash_seed"] != HASH_SEED:
        raise PassFailed(f"{workload} seed {seed} ran with hash seed {result['python_hash_seed']}")
    return result


def run_passes(args) -> tuple[list[dict], list[dict]]:
    """Untraced passes and, with tracing, traced passes paired with them,
    all on one corpus seed. A pass starts only while the time used so far
    plus the last pass's length fits in the run."""
    plain, traced = [], []
    start = time.perf_counter()
    seed = corpus_seed(args.seed)
    while True:
        t0 = time.perf_counter()
        plain.append(one_pass(args.workload, seed, args.scale, False))
        if args.trace:
            traced.append(one_pass(args.workload, seed, args.scale, True))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            return plain, traced


def end_to_end(plain: list[dict]) -> dict:
    """Set-up and memory are medians over the passes. Run time is the mean
    pass, and throughput the checks of all passes over their summed run
    time: on a shared host whose speed switches between two levels for
    tens of seconds at a time, the median pass jumps from one level to the
    other, while the mean moves with the share of time spent at each."""
    med = statistics.median
    wall = sum(p["wall_s"] for p in plain)
    return {
        "setup_s": med(p["setup_s"] for p in plain),
        "wall_s": wall / len(plain),
        "checks_per_s": sum(p["checks"] for p in plain) / wall,
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        "decided_ratio": sum(p["decided"] for p in plain) / sum(p["inputs"] for p in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name in traced[0]["trace"]:
        out[name] = statistics.median(t["trace"][name] for t in traced)
    out["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=sorted(SIZES),
                    help="input size; 'tiny' is for the benchmark's self-test")
    args = ap.parse_args(argv)

    info = run_info(args)
    print("# run " + json.dumps(info), flush=True)
    try:
        plain, traced = run_passes(args)
    except PassFailed as e:
        print(f"benchmark pass failed: {e}", file=sys.stderr)
        return 2

    passes = plain + traced
    attempted = sum(p["checks"] for p in passes)
    failed = sum(p["errors"] for p in passes)
    for p in passes:
        for sample in p["error_samples"]:
            print(f"# wrong verdict, {args.workload} corpus seed {info['corpus_seed']}: {sample}")
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced")
    for key in ("setup_s", "wall_s"):
        print(f"# {key} per untraced pass: " + " ".join(f"{p[key]:.4f}" for p in plain))
    print(f"error_ratio {failed / attempted} ratio")

    units = {m["name"]: m["unit"] for m in spec()["per_layer" if args.trace else "end_to_end"]}
    values = per_layer(plain, traced) if args.trace else end_to_end(plain)
    metrics = {}
    for name, value in values.items():
        if name in units:
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name} {value} {units[name]}")
        else:
            print(f"# {name} {value}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark defines metrics it did not measure: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
