"""Output checks that rely on nothing from the package under test.

Adjustment sets are checked with networkx's d-separation on the proper
backdoor graph, sweep cells against the closed-form bias formula written
out below, fits against ``numpy.linalg.lstsq``, and tip/E-value answers
against their closed forms.  Each check returns ``None`` when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math

import networkx as nx
import numpy as np

SWEEP_TOLERANCE = 0.05
REL = 1e-6


def _close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-9)


# --- adjustment sets --------------------------------------------------------


class DagOracle:
    """Backdoor validity, minimality and existence on one (augmented) DAG."""

    def __init__(self, edges, latent, treatment: str, outcome: str, nodes=()):
        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        self.treatment, self.outcome = treatment, outcome
        self.latent = frozenset(latent)
        forbidden = nx.descendants(graph, treatment) | {treatment, outcome}
        self.pool = frozenset(graph.nodes) - forbidden
        # The proper backdoor graph: the DAG without the treatment's out-edges.
        self.backdoor = graph.copy()
        self.backdoor.remove_edges_from(list(graph.out_edges(treatment)))

    def allowed(self, observed_only: bool) -> frozenset[str]:
        return self.pool - self.latent if observed_only else self.pool

    def exists(self, observed_only: bool) -> bool:
        return nx.find_minimal_d_separator(
            self.backdoor, self.treatment, self.outcome,
            restricted=set(self.allowed(observed_only)),
        ) is not None

    def check_sets(self, sets, observed_only: bool) -> str | None:
        allowed = self.allowed(observed_only)
        if bool(sets) != self.exists(observed_only):
            return f"listed {len(sets)} set(s) but a valid set {'exists' if not sets else 'does not exist'}"
        seen = set()
        for raw in sets:
            z = frozenset(raw)
            if z in seen:
                return f"set {sorted(z)} listed twice"
            seen.add(z)
            if not z <= allowed:
                return f"set {sorted(z)} uses nodes outside the allowed pool"
            if not nx.is_minimal_d_separator(self.backdoor, self.treatment, self.outcome, set(z)):
                return f"set {sorted(z)} is not a valid minimal backdoor set"
        return None


def check_adjust(oracle: DagOracle, exit_code: int, stdout: bytes) -> str | None:
    payload = json.loads(stdout)
    for key, observed_only in (("observed_sets", True), ("sets_with_latents", False)):
        problem = oracle.check_sets(payload[key], observed_only)
        if problem:
            return f"adjust {key}: {problem}"
    expected = 0 if oracle.exists(observed_only=True) else 2
    if exit_code != expected:
        return f"adjust exited {exit_code}, expected {expected}"
    return None


def check_augment(dag, exit_code: int, stdout: bytes) -> str | None:
    """``dag`` carries ``edges``, ``latent``, ``treatment``, ``outcome``."""
    if exit_code != 0:
        return f"augment exited {exit_code}"
    payload = json.loads(stdout)
    rows = payload["edges"]
    if sorted((r["from"], r["to"]) for r in rows) != sorted(dag.edges):
        return "augment did not report every edge exactly once"
    for row in rows:
        a, b = row["from"], row["to"]
        z = f"Z_{a}_{b}"
        oracle = DagOracle(
            [*dag.edges, (z, a), (z, b)], dag.latent | {z}, dag.treatment, dag.outcome,
        )
        for key, observed_only in (("sets", False), ("observed_sets", True)):
            problem = oracle.check_sets(row[key], observed_only)
            if problem:
                return f"augment {a}->{b} {key}: {problem}"
        if row["unadjustable"] != (not oracle.exists(observed_only=True)):
            return f"augment {a}->{b}: wrong unadjustable flag"
    return None


# --- sweeps -----------------------------------------------------------------


def expected_estimate(t_e: float, z_e: float, z_t: float) -> float:
    """Large-sample coefficient of T when the confounder Z is omitted."""
    return t_e + z_e * z_t / (1.0 + z_t ** 2)


def check_sweep(stdout: bytes, cells: int, min_oracle_n: int) -> str | None:
    """Cell count, and every cell with n >= ``min_oracle_n`` near the formula."""
    rows = list(csv.DictReader(io.StringIO(stdout.decode())))
    if len(rows) != cells:
        return f"sweep printed {len(rows)} cells, expected {cells}"
    for row in rows:
        if int(row["n"]) < min_oracle_n:
            continue
        if row["mean"] == "":
            return f"sweep cell {row} failed"
        want = expected_estimate(float(row["t_e"]), float(row["z_e"]), float(row["z_t"]))
        if abs(float(row["mean"]) - want) > SWEEP_TOLERANCE:
            return f"sweep cell t_e={row['t_e']} z_e={row['z_e']} z_t={row['z_t']} n={row['n']}: mean {row['mean']} vs {want:.4f}"
    return None


def sweep_cells(stdout: bytes) -> list[tuple[int, int]]:
    """(n, failed repetitions) of every cell of a sweep CSV."""
    return [(int(r["n"]), int(r["failures"])) for r in csv.DictReader(io.StringIO(stdout.decode()))]


# --- regression and closed forms -------------------------------------------


class SessionOracle:
    """Reference answers for the analyst-session commands."""

    def __init__(self, csv_text: str, scalars: dict[str, float]):
        table = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=1)
        self.columns = dict(zip(("y", "t", "x1", "x2", "x3", "g"), table.T))
        self.s = scalars

    def ols(self, outcome: str, predictors: list[str]) -> dict:
        y = self.columns[outcome]
        x = np.column_stack([np.ones_like(y)] + [self.columns[p] for p in predictors])
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ coef
        n, p = x.shape
        sigma2 = float(resid @ resid) / (n - p)
        se = np.sqrt(sigma2 * np.diag(np.linalg.inv(x.T @ x)))
        return {
            "n": n, "intercept": float(coef[0]), "sigma": math.sqrt(sigma2),
            "coefficients": dict(zip(predictors, map(float, coef[1:]))),
            "std_errors": dict(zip(predictors, map(float, se[1:]))),
        }

    def smd(self, value: str, treat: float, ref: float) -> float:
        v, g = self.columns[value], self.columns["g"]

        def standardized(tag):
            group = v[g == tag]
            return float(group.mean()) / float(group.std(ddof=1))

        return standardized(treat) - standardized(ref)


def evalue(effect: float, delta: float, sigma: float) -> float:
    rr = math.exp(0.91 * abs(effect * delta / sigma))
    return rr + math.sqrt(rr * (rr - 1.0))


def ci_evalue(estimate: float, se: float, delta: float, sigma: float) -> float:
    low, high = estimate - 1.96 * se, estimate + 1.96 * se
    if low <= 0.0 <= high:
        return 1.0
    return evalue(low if estimate > 0 else high, delta, sigma)


def check_session(kind: str, oracle: SessionOracle, exit_code: int, stdout: bytes) -> str | None:
    if exit_code != 0:
        return f"{kind} exited {exit_code}"
    out = json.loads(stdout)
    s = oracle.s
    if kind == "tip-smd":
        want = {"value": s["observed"] / s["effect"]}
    elif kind == "tip-effect":
        want = {"value": s["observed"] / s["smd"]}
    elif kind == "tip-n":
        count = s["observed"] / (s["smd"] * s["effect"])
        want = {"value": count, "whole_confounders": math.ceil(count)}
    elif kind == "evalue-point":
        want = {"evalue": evalue(s["estimate"], s["delta"], s["sigma"]), "ci_evalue": None}
    elif kind == "evalue-se":
        want = {
            "evalue": evalue(s["estimate"], s["delta"], s["sigma"]),
            "ci_evalue": ci_evalue(s["estimate"], s["se"], s["delta"], s["sigma"]),
        }
    elif kind == "evalue-range":
        deltas = np.linspace(0.1, 1.0, 10)
        got = [row["evalue"] for row in out["curve"]]
        if len(got) != len(deltas):
            return f"evalue curve has {len(got)} points, expected {len(deltas)}"
        for d, e in zip(deltas, got):
            if not _close(e, evalue(s["estimate"], float(d), s["sigma"])):
                return f"evalue curve at delta={d:.2f}: {e}"
        return None
    elif kind == "fit":
        ref = oracle.ols("y", ["t", "x1", "x2", "x3"])
        if out["n"] != ref["n"]:
            return f"fit n={out['n']}, expected {ref['n']}"
        pairs = [(out["intercept"], ref["intercept"]), (out["sigma"], ref["sigma"])]
        for key in ("coefficients", "std_errors"):
            pairs += [(out[key][k], ref[key][k]) for k in ref[key]]
        if not all(_close(a, b) for a, b in pairs):
            return "fit disagrees with numpy.linalg.lstsq"
        return None
    elif kind == "smd":
        want = {"smd": oracle.smd("x1", 1.0, 0.0)}
    elif kind == "evalue-fit":
        ref = oracle.ols("y", ["t", "x1", "x2", "x3"])
        est, se = ref["coefficients"]["t"], ref["std_errors"]["t"]
        want = {
            "evalue": evalue(est, 1.0, ref["sigma"]),
            "ci_evalue": ci_evalue(est, se, 1.0, ref["sigma"]),
        }
    else:
        raise KeyError(kind)
    for key, value in want.items():
        got = out.get(key)
        if value is None or isinstance(value, int):
            if got != value:
                return f"{kind} {key}={got}, expected {value}"
        elif got is None or not _close(got, value):
            return f"{kind} {key}={got}, expected {value}"
    return None
