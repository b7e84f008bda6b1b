"""Measure every workload over several seeds and append a trajectory point.

    python3 bench/trajectory.py --commit SHA --label TEXT

Run from the repository root.  For each workload it runs ``bench/run.py``
once per seed (seeds 1..10, ``run_seconds`` each), then appends to
``bench/trajectory.json`` the median and quartiles of every end-to-end
metric, with the spread (interquartile range over the median) that the
bounds in BENCHMARK.json are held against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    point = {
        "commit": args.commit,
        "label": args.label,
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "runs": RUNS,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds) for seed in range(1, RUNS + 1)]
        results = [r["result"] for r in runs]
        metrics = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results])
            for m in spec["end_to_end"]
        }
        point["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "deadline_overruns": sum(r["details"]["deadline_overruns"] for r in runs),
            "environment": runs[0]["details"]["environment"],
            "metrics": metrics,
        }
        print(workload, json.dumps(point["workloads"][workload]), flush=True)
    path = BENCH_DIR / "trajectory.json"
    points = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(points + [point], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
