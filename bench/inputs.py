"""Deterministic benchmark inputs, generated from the workload seed.

Every input is a function of ``(seed, workload)`` only.  The program under
test sees nothing but the files written here, and none of them comes from
the package itself: the session CSV uses the benchmark's own numpy
Generator, and the sweep configs and the productivity DAG are copies kept
in this file, so a change to the package's fixtures or random streams
cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# The bundled productivity.dag (treatment T, outcome E), kept verbatim here.
PRODUCTIVITY_DAG = """\
treatment T
outcome E
B -> E
B -> H
B -> P
B -> S
D -> E
H -> E
H -> P
K -> E
K -> S
L -> E
O -> E
O -> L
O -> P
O -> T
P -> E
S -> E
S -> T
T -> E
"""

# The bundled table5.conf (324 cells x 200 repetitions) minus its seed line.
TABLE5_BODY = """\
param.b_e = 0.3
param.b_s = 0.3
param.k_e = 0.1
param.k_s = 0.1
param.o_e = 0.5
param.o_t = 0.5
param.s_e = -0.1
param.s_t = -0.1
grid.t_e = 0.1, 0.3, 0.5
grid.z_e = -0.5, -0.3, -0.1, 0.1, 0.3, 0.5
grid.z_t = -0.5, -0.3, -0.1, 0.1, 0.3, 0.5
n = 5, 10, 50
repetitions = 200
outcome = E
predictors = T, B, K, O, S
"""

FIXED_PARAMS = {
    "b_e": 0.3, "b_s": 0.3, "k_e": 0.1, "k_s": 0.1,
    "o_e": 0.5, "o_t": 0.5, "s_e": -0.1, "s_t": -0.1,
}
CONFOUNDER_WEIGHTS = (-0.5, -0.3, -0.1, 0.1, 0.3, 0.5)
TABLE5_N = (5, 10, 50)
LARGE_N = (20000, 100000)
LARGE_N_POINTS = 2
LARGE_N_REPS = 20
SESSION_ROWS = 20000

# dag-adjust: the regular class spans the sizes where enumeration cost climbs
# steeply; the beyond-cliff class is where today's enumeration does not end.
REGULAR_NODES = (10, 16)
REGULAR_EDGES_PER_NODE = (2.0, 2.5)
REGULAR_DAGS = 12
CLIFF_NODES = 20
CLIFF_EDGES = 60
CLIFF_DAGS = 2
LATENT_SHARE = 0.15


def rng_for(seed: int, salt: str) -> np.random.Generator:
    """A PCG64 stream per (seed, purpose), independent across purposes."""
    key = int.from_bytes(hashlib.sha256(salt.encode()).digest()[:4], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


def _config_seed(seed: int, salt: str) -> int:
    return int(rng_for(seed, salt).integers(0, 2**31))


def table5_config(seed: int) -> str:
    return f"# table5.conf with a benchmark-chosen seed\n{TABLE5_BODY}seed = {_config_seed(seed, 'table5')}\n"


def table5_slices(seed: int) -> list[str]:
    """The table5 grid cut into one config per z_t value, each with its own seed.

    Every slice holds all t_e, z_e and n values, so the slices cost about the
    same, and together they cover the 324 cells of table5 once.
    """
    grid_line = "grid.z_t = " + ", ".join(repr(v) for v in CONFOUNDER_WEIGHTS)
    assert grid_line in TABLE5_BODY
    return [
        f"# table5.conf, slice z_t = {z_t!r}, with a benchmark-chosen seed\n"
        + TABLE5_BODY.replace(grid_line, f"grid.z_t = {z_t!r}")
        + f"seed = {_config_seed(seed, f'table5-z_t{k}')}\n"
        for k, z_t in enumerate(CONFOUNDER_WEIGHTS)
    ]


def large_n_config(seed: int) -> str:
    """A few grid points of the effort model at n >= 20,000, few repetitions.

    The grid is one t_e value against ``LARGE_N_POINTS`` z_e values and one
    z_t value, so the cell count stays fixed while the weights vary by seed.
    """
    rng = rng_for(seed, "large-n")
    t_e = float(rng.choice((0.1, 0.3, 0.5)))
    z_e = sorted(float(v) for v in rng.choice(CONFOUNDER_WEIGHTS, LARGE_N_POINTS, replace=False))
    z_t = float(rng.choice(CONFOUNDER_WEIGHTS))
    lines = ["# large-n sweep: kernel time, not per-repetition overhead"]
    lines += [f"param.{k} = {v!r}" for k, v in FIXED_PARAMS.items()]
    lines += [
        f"grid.t_e = {t_e!r}",
        f"grid.z_e = {', '.join(repr(v) for v in z_e)}",
        f"grid.z_t = {z_t!r}",
        f"n = {', '.join(str(n) for n in LARGE_N)}",
        f"repetitions = {LARGE_N_REPS}",
        f"seed = {_config_seed(seed, 'large-n-seed')}",
        "outcome = E",
        "predictors = T, B, K, O, S",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RandomDag:
    text: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    latent: frozenset[str]
    treatment: str
    outcome: str


def _descendants(children: dict[str, list[str]], node: str) -> set[str]:
    seen: set[str] = set()
    stack = [node]
    while stack:
        for child in children[stack.pop()]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def random_dag(rng: np.random.Generator, n_nodes: int, n_edges: int) -> RandomDag:
    """A uniformly random DAG over a random topological order.

    The treatment comes from the middle third of the order (the first node
    would have no backdoor path at all) and the outcome is one of its
    descendants; about 15% of the other nodes are latent.
    """
    labels = rng.permutation(n_nodes)
    order = [f"V{int(i):02d}" for i in labels]
    pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    while True:
        picked = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
        edges = sorted((order[pairs[k][0]], order[pairs[k][1]]) for k in picked)
        children: dict[str, list[str]] = {v: [] for v in order}
        for tail, head in edges:
            children[tail].append(head)
        middle = [v for v in order[n_nodes // 3: 2 * n_nodes // 3] if children[v]]
        if middle:
            break
    treatment = str(rng.choice(middle))
    outcome = str(rng.choice(sorted(_descendants(children, treatment))))
    others = sorted(set(order) - {treatment, outcome})
    n_latent = int(round(LATENT_SHARE * n_nodes))
    latent = frozenset(str(v) for v in rng.choice(others, size=n_latent, replace=False))
    lines = [f"treatment {treatment}", f"outcome {outcome}"]
    lines += [f"latent {v}" for v in sorted(latent)]
    lines += [f"node {v}" for v in sorted(set(order) - latent)]
    lines += [f"{a} -> {b}" for a, b in edges]
    return RandomDag("\n".join(lines) + "\n", tuple(order), tuple(edges), latent, treatment, outcome)


def productivity_dag() -> RandomDag:
    edges = tuple(
        tuple(part.strip() for part in line.split("->"))
        for line in PRODUCTIVITY_DAG.splitlines() if "->" in line
    )
    nodes = tuple(sorted({n for e in edges for n in e}))
    return RandomDag(PRODUCTIVITY_DAG, nodes, edges, frozenset(), "T", "E")


def regular_dags(seed: int) -> list[RandomDag]:
    rng = rng_for(seed, "dag-regular")
    low, high = REGULAR_NODES
    out = []
    for k in range(REGULAR_DAGS):
        # Node counts are spread evenly over the range so every seed carries
        # the same mix of sizes; the structure is what the seed varies.
        n = low + (k * (high - low + 1)) // REGULAR_DAGS
        m = int(round(n * rng.uniform(*REGULAR_EDGES_PER_NODE)))
        out.append(random_dag(rng, n, m))
    return out


def cliff_dags(seed: int) -> list[RandomDag]:
    rng = rng_for(seed, "dag-cliff")
    return [random_dag(rng, CLIFF_NODES, CLIFF_EDGES) for _ in range(CLIFF_DAGS)]


def session_csv(seed: int) -> str:
    """~20k rows of a confounded linear model, one 0/1 group column.

    Columns: y outcome, t treatment, x1..x3 covariates, g group tag.
    """
    rng = rng_for(seed, "session-csv")
    n = SESSION_ROWS
    x = rng.standard_normal((n, 3))
    g = (rng.random(n) < 0.4).astype(int)
    t = 0.5 * x[:, 0] - 0.3 * x[:, 1] + 0.8 * g + rng.standard_normal(n)
    y = 0.4 * t + x @ np.array([0.6, -0.2, 0.3]) + 0.5 * g + rng.standard_normal(n)
    rows = ["y,t,x1,x2,x3,g"]
    for i in range(n):
        rows.append(
            f"{y[i]:.12g},{t[i]:.12g},{x[i, 0]:.12g},{x[i, 1]:.12g},{x[i, 2]:.12g},{g[i]}"
        )
    return "\n".join(rows) + "\n"


def session_scalars(seed: int) -> dict[str, float]:
    """Arguments of the short tip/evalue commands of the analyst session."""
    rng = rng_for(seed, "session-scalars")
    observed = float(np.round(rng.uniform(0.05, 0.9), 4))
    smd = float(np.round(rng.uniform(0.1, 1.5), 4))
    effect = float(np.round(rng.uniform(0.05, 0.8), 4))
    estimate = float(np.round(rng.uniform(-0.8, 0.8), 4))
    if abs(estimate) < 0.05:
        estimate = 0.05
    return {
        "observed": observed,
        "smd": smd,
        "effect": effect,
        "estimate": estimate,
        "sigma": float(np.round(rng.uniform(0.5, 2.0), 4)),
        "se": float(np.round(rng.uniform(0.01, 0.3), 4)),
        "delta": float(np.round(rng.uniform(0.2, 1.0), 4)),
    }
