"""Run every workload on seeds 1 and 2, untraced and traced, and print every
metric with its unit.

    python3 perfbench/sweep.py

Each run lasts BENCHMARK.json's ``run_seconds``. Exits non-zero if any run
fails or reports a wrong verdict.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                print(f"== {workload} seed {seed} trace {trace}: exit {proc.returncode}")
                for line in proc.stdout.splitlines()[:-1]:
                    print(f"   {line}")
                if proc.returncode != 0:
                    print(proc.stderr.strip())
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
