"""Self-test of the benchmark: every workload runs at a tiny size and emits
every metric of BENCHMARK.json with its unit, and wrong answers fail.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc


def summary(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = summary(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for name, unit in want.items():
        assert f"{name} {out['metrics'][name]['value']} {unit}" in proc.stdout
    assert "error_ratio 0.0 ratio" in proc.stdout
    info = json.loads(proc.stdout.splitlines()[0].removeprefix("# run "))
    for key in ("python", "platform", "nproc", "commit", "workload_seed", "python_hash_seed"):
        assert key in info


def test_workload_seed_fixes_the_inputs():
    assert run.corpus_seed(5) == run.corpus_seed(5)
    assert run.corpus_seed(5) != run.corpus_seed(6)
    assert {run.corpus_seed(s) for s in range(100)} == set(run.pool())


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_a_corrupted_expected_answer_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    for counts in table["cases"]["tiny"]["corpus-typing"].values():
        counts["sr"] += 1
    path.write_text(json.dumps(table), encoding="utf-8")
    proc = run_bench(root, "corpus-typing", 0)
    assert proc.returncode == 1
    out = summary(proc)
    assert out["correct"] is False and out["failed"] >= 1


def test_a_wrong_known_answer_is_counted(monkeypatch):
    monkeypatch.setattr(workloads, "wide_steps", lambda n: 4 * n)
    seed = json.loads(workloads.EXPECTED.read_text(encoding="utf-8"))["pool"][0]
    result = workloads.run_pass("sn-explore", seed, "tiny", False)
    # every wide(n) and both nested chain(1) normalise in 4n-1 steps, not 4n
    assert result["errors"] >= len(workloads.WIDE_SIZES) + len(workloads.NESTINGS)


def test_without_the_package_sources_the_run_fails(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc = run_bench(root, "canon-algebra", 0)
    assert proc.returncode not in (0, 1)
    assert '"metrics"' not in proc.stdout


def test_traced_self_times_cover_the_traced_run():
    seed = json.loads(workloads.EXPECTED.read_text(encoding="utf-8"))["pool"][0]
    result = workloads.run_pass("canon-algebra", seed, "tiny", True)
    assert result["errors"] == 0
    trace = result["trace"]
    layers = sum(v for k, v in trace.items() if k.endswith(".self_s"))
    assert layers > 0 and trace["trace.wall_s"] > 0
    assert trace["parser.parse_term.calls"] == workloads.SIZES["tiny"]["algebra_cases"]


def test_badly_nested_spans_are_reported():
    tracer = Tracer([])
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert tracer.problems() == []
    left_open = tracer.span("left open")
    left_open.__enter__()
    assert tracer.problems() == ["1 span(s) left open"]
