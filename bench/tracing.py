"""The traced run: per-layer timings from spans recorded by the benchmark.

Spans are recorded here, around calls into each layer's public functions,
on the inputs the workload generated; the package itself is not patched.
Each span keeps its name, start, end, the span that caused it and the
request it belongs to, in memory, and the run writes them out at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np

import checks
import inputs

INTERPRETER_RUNS = 5
IMPORTTIME_RUNS = 3
SMALL_N_CALLS = 300
LARGE_N_CALLS = 5
LARGE_N_CELL_REPS = 10
SMALL_N_CELL_REPS = 200
REPEATS = 5       # passes over the DAG texts for parse/d-separation spans
FAST_CALLS = 200  # hpdi, evalue_curve
CSV_CALLS = 3
REPORT_DAGS = 4   # regular DAGs (the smallest) given to edge_confounder_report
SWEEP_N = inputs.TABLE5_N + inputs.LARGE_N
PREDICTORS = ("T", "B", "K", "O", "S")  # the sweep configs' regression


class Recorder:
    """Spans and counts; a disabled recorder only runs the code."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name: str, request: str | int = "suite"):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, request)

    @contextlib.contextmanager
    def _span(self, name, request):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None, request])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value: int) -> None:
        if self.enabled:
            self.counts[name] += value

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, *_ in self.spans if n == name]


class Deadline(Exception):
    """Raised in the main thread when an in-process request overruns."""


def _raise_deadline(signum, frame):
    raise Deadline()


def call_with_deadline(fn, seconds: float):
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# --- fresh-interpreter probes ------------------------------------------------


def _importtime_shares(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of numpy and scipy inside ``import ovbkit.cli``.

    ``-X importtime`` prints children before parents, indented by depth; an
    entry counts for a package when no enclosing entry belongs to it.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cumulative), raw.strip()))
    totals = {"numpy": 0.0, "scipy": 0.0}
    stack: list[str] = []
    for depth, cumulative, name in reversed(entries):
        del stack[depth:]
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for a in stack):
            totals[top] += cumulative / 1e6
        stack.append(name)
    return totals


def interpreter_probes(env: dict) -> dict[str, float]:
    walls = []
    for _ in range(INTERPRETER_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        walls.append(time.perf_counter() - start)
    shares = []
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ovbkit.cli"],
            env=env, check=True, capture_output=True, text=True,
        )
        shares.append(_importtime_shares(done.stderr))
    return {
        "cli.interpreter_s": statistics.median(walls),
        "cli.import_numpy_s": statistics.median(s["numpy"] for s in shares),
        "cli.import_scipy_s": statistics.median(s["scipy"] for s in shares),
    }


# --- the layer suite -------------------------------------------------------------


def _one_cell_config(seed: int, n: int, reps: int) -> str:
    lines = [f"param.{k} = {v!r}" for k, v in inputs.FIXED_PARAMS.items()]
    lines += ["grid.t_e = 0.3", "grid.z_e = 0.5", "grid.z_t = 0.5", f"n = {n}",
              f"repetitions = {reps}", f"seed = {seed}", "outcome = E",
              "predictors = T, B, K, O, S"]
    return "\n".join(lines) + "\n"


def _separator_query(dag) -> tuple[str, str, frozenset[str]]:
    """(T, Y, observed ancestors of T and Y that are not descendants of T)."""
    graph = nx.DiGraph(list(dag.edges))
    anc = nx.ancestors(graph, dag.treatment) | nx.ancestors(graph, dag.outcome)
    given = anc - nx.descendants(graph, dag.treatment) - dag.latent - {dag.treatment, dag.outcome}
    return dag.treatment, dag.outcome, frozenset(given)


def layer_suite(seed: int, workdir: Path, rec: Recorder) -> None:
    """One fixed list of calls into every layer, on the seed's inputs."""
    import ovbkit as ok
    from ovbkit import stats
    from ovbkit.scm import parse_sweep_config

    rng = inputs.rng_for(seed, "trace-suite")
    regular = inputs.regular_dags(seed)
    dags = [inputs.productivity_dag(), *regular, *inputs.cliff_dags(seed)]

    # dag
    parsed = []
    for rep in range(REPEATS):
        for meta in dags:
            with rec.span("dag.parse_dag"):
                dag = ok.parse_dag(meta.text)
            if rep == 0:
                parsed.append(dag)
    queries = []
    for meta, dag in zip(dags, parsed):
        x, y, given = _separator_query(meta)
        queries += [(dag, ok.SeparationQuery(x, y, z)) for z in (frozenset(), given)]
    for _ in range(REPEATS):
        for dag, query in queries:
            with rec.span("dag.is_d_separated"):
                ok.is_d_separated(dag, query)

    # adjustment: every DAG below the cliff; the per-edge report on the
    # productivity DAG and the smallest regular DAGs only, since on the
    # larger ones a single report takes seconds to minutes today.
    below = [(meta, dag) for meta, dag in zip(dags, parsed) if len(meta.nodes) < inputs.CLIFF_NODES]
    for i, (meta, dag) in enumerate(below):
        query = ok.CausalQuery(dag, meta.treatment, meta.outcome)
        with rec.span("adjustment.backdoor_paths"):
            paths = ok.backdoor_paths(query)
        rec.count("adjustment.backdoor_paths", len(paths))
        for observed_only in (True, False):
            with rec.span("adjustment.minimal_adjustment_sets"):
                sets = ok.minimal_adjustment_sets(query, observed_only=observed_only)
            rec.count("adjustment.sets_found", len(sets))
        if i <= REPORT_DAGS:  # the productivity DAG, then the smallest regular ones
            with rec.span("adjustment.edge_confounder_report"):
                ok.edge_confounder_report(query)

    # stats
    csv_path = workdir / "trace-session.csv"
    csv_path.write_text(inputs.session_csv(seed))
    for _ in range(CSV_CALLS):
        with rec.span("stats.read_csv"):
            data = ok.read_csv(csv_path)
    for _ in range(CSV_CALLS):
        with rec.span("stats.ols_fit"):
            fit = ok.ols_fit(data, "y", ["t", "x1", "x2", "x3"])
    for _ in range(FAST_CALLS):
        values = rng.standard_normal(SMALL_N_CELL_REPS)
        with rec.span("stats.hpdi"):
            ok.hpdi(values, 0.95)

    # scm sampling and the OLS solve at every sweep sample size
    template = ok.team_effort_template()
    spec = template.bind({**inputs.FIXED_PARAMS, "t_e": 0.3, "z_e": 0.5, "z_t": 0.5})
    for n in SWEEP_N:
        calls = SMALL_N_CALLS if n < 1000 else LARGE_N_CALLS
        for k in range(calls):
            with rec.span(f"scm.sample_n{n}"):
                sample = ok.sample(spec, n, int(rng.integers(2**31)))
            if n <= len(PREDICTORS):
                continue  # n < p: the sweep takes the minimum-norm path instead
            design = np.column_stack([np.ones(n)] + [sample.column(c) for c in PREDICTORS])
            try:
                with rec.span(f"stats.solve_normal_equations_n{n}"):
                    stats.solve_normal_equations(design, sample.column("E"))
            except stats.RankDeficiencyError:
                rec.count("stats.rank_deficient_draws", 1)  # the sweep would redraw
    texts = [inputs.table5_config(seed), inputs.large_n_config(seed)]
    for _ in range(FAST_CALLS // 4):
        for text in texts:
            with rec.span("scm.parse_sweep_config"):
                parse_sweep_config(text)
    for n in SWEEP_N:
        reps = SMALL_N_CELL_REPS if n < 1000 else LARGE_N_CELL_REPS
        config = parse_sweep_config(_one_cell_config(seed, n, reps))
        with rec.span(f"scm.cell_n{n}"):
            result = ok.run_sweep(config)
        record_sweep_counts(rec, [(c.n, c.failures) for c in result.cells], len(PREDICTORS))

    # sensitivity
    est, se = fit.coefficients["t"], fit.std_errors["t"]
    deltas = np.linspace(0.1, 1.0, 10)
    for _ in range(FAST_CALLS):
        with rec.span("sensitivity.evalue_curve"):
            ok.evalue_curve([("t", est, se, fit.sigma)], deltas)


def record_sweep_counts(rec: Recorder, cells: list[tuple[int, int]], predictors: int) -> None:
    rec.count("scm.failed_repetitions", sum(f for _, f in cells))
    rec.count("scm.min_norm_cells", sum(1 for n, _ in cells if n < predictors + 1))


# --- the traced run -------------------------------------------------------------


def cli_main(argv: list[str], deadline_s: float, workdir: Path) -> tuple[int | None, bytes]:
    """``ovbkit.cli.main`` in-process; exit code None on a deadline overrun."""
    from ovbkit import cli

    out = io.StringIO()
    try:
        with contextlib.chdir(workdir), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = call_with_deadline(lambda: cli.main(argv), deadline_s)
    except Deadline:
        return None, b""
    return code, out.getvalue().encode()


def traced_run(workload, seed: int, seconds: float, workdir: Path, env: dict, spans_out: Path) -> dict:
    start = time.perf_counter()
    metrics = interpreter_probes(env)

    # The first pass pays first-call costs (BLAS thread start-up, lazy
    # loading); it is not timed, so traced and untraced passes compare warm.
    layer_suite(seed, workdir, Recorder(enabled=False))
    rec = Recorder()
    t0 = time.perf_counter()
    layer_suite(seed, workdir, rec)
    traced_total = time.perf_counter() - t0
    t0 = time.perf_counter()
    layer_suite(seed, workdir, Recorder(enabled=False))
    untraced_total = time.perf_counter() - t0

    outcomes = []
    cpu = wall = 0.0
    i = 0
    while True:
        req = workload.requests[i % len(workload.requests)]
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        with rec.span("cli.main", request=i):
            code, stdout = cli_main(req.argv, req.deadline_s, workdir)
        wall += time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        outcomes.append((req, code, stdout))
        if req.label == "simulate" and code is not None:
            record_sweep_counts(rec, checks.sweep_cells(stdout), len(PREDICTORS))
        i += 1
        if time.perf_counter() - start >= seconds:
            break

    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps(rec.spans))

    def timed(name: str) -> None:
        durations = rec.durations(name)
        metrics[f"{name}_s"] = statistics.median(durations)
        metrics[f"{name}_calls"] = len(durations)

    timed("cli.main")
    metrics["cli.cpu_wall_ratio"] = cpu / wall
    for name in ("dag.parse_dag", "dag.is_d_separated", "adjustment.minimal_adjustment_sets",
                 "adjustment.edge_confounder_report", "adjustment.backdoor_paths",
                 "stats.read_csv", "stats.ols_fit", "stats.hpdi", "scm.parse_sweep_config",
                 "sensitivity.evalue_curve"):
        timed(name)
    for n in SWEEP_N:
        timed(f"scm.sample_n{n}")
        timed(f"scm.cell_n{n}")
        if n > len(PREDICTORS):
            name = f"stats.solve_normal_equations_n{n}"
            timed(name)
            metrics[f"{name}_tail_s"] = tail(rec.durations(name))[0]
    for name in ("adjustment.backdoor_paths", "adjustment.sets_found",
                 "stats.rank_deficient_draws", "scm.failed_repetitions", "scm.min_norm_cells"):
        metrics[name] = rec.counts[name]
    metrics["trace.traced_total_s"] = traced_total
    metrics["trace.untraced_total_s"] = untraced_total
    metrics["trace.overhead_s"] = traced_total - untraced_total
    metrics["trace.spans"] = len(rec.spans)
    return {"metrics": metrics, "outcomes": outcomes}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile that
    leaves at least ten samples beyond it, but not below the median.

    With fewer than 22 samples that is the median itself (the upper middle
    one), so the value does not jump with the sample count.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1
