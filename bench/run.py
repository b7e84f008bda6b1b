"""ovbkit benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` each request is one ``ovbkit`` command in its own
subprocess, as a user runs it, sent by one client in a closed loop: the
next request starts when the previous one has ended, until ``--seconds``
have passed.  The end-to-end metrics come from this run.  With ``--trace 1``
the same inputs go through each layer's public functions in-process, and
the per-layer metrics come from spans the benchmark records around those
calls.

The benchmark runs the package from ``src/`` of the current directory and
leaves the thread settings (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
OVBKIT_THREADS) as it finds them; it records them with every result.  Every
output is checked (see ``checks.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the details (environment, tail percentile, deadline
overruns, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, Request, Workload

SETUP_IMPORTS = 7
SETUP_ARGV = [sys.executable, "-c", "import ovbkit.cli"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OVBKIT_THREADS")
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Outcome:
    request: Request
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int | None   # None: killed at its deadline
    stdout: bytes


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    from importlib.metadata import version

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def run_request(req: Request, workdir: Path, env: dict) -> Outcome:
    """One subprocess request, killed at its deadline; rusage from wait4."""
    out_path = workdir / "request.stdout"
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ovbkit", *req.argv],
            cwd=workdir, env=env, stdout=out, stderr=subprocess.DEVNULL,
        )

        def expire():
            with lock:
                if not state["reaped"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(req.deadline_s, expire)
        timer.start()
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["reaped"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        req, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        None if state["killed"] else proc.returncode, out_path.read_bytes(),
    )


def timed_import(env: dict) -> float:
    """Wall time of a fresh interpreter importing ovbkit.cli."""
    start = time.perf_counter()
    subprocess.run(SETUP_ARGV, env=env, check=True)
    return time.perf_counter() - start


def closed_loop(workload: Workload, seconds: float, workdir: Path,
                env: dict) -> tuple[list[Outcome], list[float], float]:
    """(outcomes, import times, seconds spent on requests).

    Requests run until ``seconds`` have passed.  The ``SETUP_IMPORTS`` timed
    imports are spread evenly over the same time, between requests, so the
    set-up time sees the same machine as the requests do.  One untimed
    import first writes the bytecode caches, which users do not pay on
    every run.
    """
    subprocess.run(SETUP_ARGV, env=env, check=True)
    outcomes, imports = [], []
    start = time.perf_counter()
    for req in itertools.cycle(workload.requests):
        while (len(imports) < SETUP_IMPORTS
               and time.perf_counter() - start >= len(imports) * seconds / SETUP_IMPORTS):
            imports.append(timed_import(env))
        outcomes.append(run_request(req, workdir, env))
        if time.perf_counter() - start >= seconds:
            break
    while len(imports) < SETUP_IMPORTS:
        imports.append(timed_import(env))
    return outcomes, imports, time.perf_counter() - start - sum(imports)


def check_outcomes(results: list[tuple[Request, int | None, bytes]]) -> tuple[list[str], int]:
    """(failure reasons, deadline overruns of beyond-cliff requests)."""
    failures, overruns = [], 0
    verdicts: dict[tuple[int, int | None, str], str | None] = {}
    first_output: dict[str, bytes] = {}
    for req, code, stdout in results:
        command = " ".join(req.argv)
        if code is None:
            if req.cliff:
                overruns += 1
            else:
                failures.append(f"{command}: overran its {req.deadline_s} s deadline")
            continue
        key = (id(req), code, hashlib.sha256(stdout).hexdigest())
        if key not in verdicts:
            try:
                verdicts[key] = req.check(code, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                verdicts[key] = f"unreadable output ({type(exc).__name__}: {exc})"
        reason = verdicts[key]
        if not reason and req.identical_group is not None:
            if stdout != first_output.setdefault(req.identical_group, stdout):
                reason = "output differs from an earlier run of the same input"
        if reason:
            failures.append(f"{command}: {reason}")
    return failures, overruns


def end_to_end(workload: Workload, seconds: float, workdir: Path, env: dict) -> tuple[dict, dict, list[str]]:
    outcomes, imports, elapsed = closed_loop(workload, seconds, workdir, env)
    failures, overruns = check_outcomes([(o.request, o.exit_code, o.stdout) for o in outcomes])
    # Beyond-cliff requests mostly end at their deadline, so their time is
    # the deadline's; they count in the throughput and the overruns only.
    regular = [o for o in outcomes if not o.request.cliff]
    walls = [o.wall for o in regular]
    # A request killed at its deadline used as much as it reached by then,
    # which depends on timing; only completed requests count for resources.
    completed = [o for o in regular if o.exit_code is not None]
    tail_value, tail_pct, beyond = tracing.tail(walls)
    rss_by_label: dict[str, list[float]] = {}
    for o in completed:
        rss_by_label.setdefault(o.request.label, []).append(o.rss_mb)
    fits = sum(o.request.fits for o in outcomes)
    if fits:
        throughput = fits / sum(o.wall for o in outcomes if o.request.fits)
    else:
        throughput = len(outcomes) / elapsed
    metrics = {
        "setup_s": (statistics.median(imports), "s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail_value, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "cpu_per_request_s": (statistics.median(o.cpu for o in completed), "s"),
        # The heaviest command's median peak RSS.  The maximum over all
        # requests follows the seed's single heaviest DAG in dag-adjust
        # (62-79 MB across seeds); this does not.
        "peak_rss_mb": (max(statistics.median(v) for v in rss_by_label.values()), "MB"),
    }
    labels = sorted({o.request.label for o in outcomes})
    details = {
        "requests": len(outcomes),
        "request_time_s": elapsed,
        "throughput_unit": "repetition fits per second of simulate" if fits else "requests per second",
        "latency_tail": {"percentile": tail_pct, "samples": len(walls), "beyond": beyond},
        "error_rate": len(failures) / len(outcomes),
        "deadline_overruns": overruns,
        "beyond_cliff_requests": sum(o.request.cliff for o in outcomes),
        "cpu_wall_ratio": sum(o.cpu for o in completed) / sum(o.wall for o in completed),
        "rss_max_mb": max(o.rss_mb for o in outcomes if o.exit_code is not None),
        "by_label": {
            label: {
                "count": sum(o.request.label == label for o in outcomes),
                "p50_s": statistics.median(o.wall for o in outcomes if o.request.label == label),
            }
            for label in labels
        },
    }
    return metrics, details, failures


def traced(workload: Workload, seed: int, seconds: float, workdir: Path, env: dict,
           root: Path) -> tuple[dict, dict, list[str]]:
    sys.path.insert(0, str(root / "src"))
    spans_out = BENCH_DIR / "out" / f"spans-{workload.name}-{seed}.json"
    result = tracing.traced_run(workload, seed, seconds, workdir, env, spans_out)
    results = result["outcomes"]
    failures, overruns = check_outcomes(results)
    metrics = {
        name: (value, _unit(name)) for name, value in result["metrics"].items()
    }
    details = {"requests": len(results), "deadline_overruns": overruns, "spans_file": str(spans_out.relative_to(root))}
    return metrics, details, failures


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def self_check(name: str, seed: int, files: dict[str, str]) -> None:
    """Same seed, same bytes; another seed, other inputs."""
    again = WORKLOADS[name](seed).files
    if again != files:
        raise SystemExit("benchmark inputs are not deterministic for a fixed seed")
    other = WORKLOADS[name](seed + 1).files
    if name == "dag-adjust":
        other = {k: v for k, v in other.items() if k != "productivity.dag"}
        if any(other[k] == files[k] for k in other):
            raise SystemExit("a different seed produced an identical DAG")
    elif other == files:
        raise SystemExit("a different seed produced identical inputs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ovbkit" / "cli.py").is_file():
        print("error: run from the repository root: src/ovbkit/cli.py not found", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    self_check(args.workload, args.seed, workload.files)
    env = child_env(root)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR))
    load_before = os.getloadavg()
    try:
        for name, text in workload.files.items():
            (workdir / name).write_text(text)
        if args.trace:
            metrics, details, failures = traced(workload, args.seed, args.seconds, workdir, env, root)
        else:
            metrics, details, failures = end_to_end(workload, args.seconds, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "client": "closed loop, one client, one request at a time",
        "environment": environment(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        **details,
        "failures": failures[:10],
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": details["requests"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
