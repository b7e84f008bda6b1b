"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately independent of the package's algorithms:
explicit path enumeration, naive transitive closures, and exhaustive subset
search.  Validity of an adjustment set is decided through the equivalent
formulation "d-separated in the graph with the treatment's outgoing edges
removed", which never touches the library's backdoor-path machinery.  Least
squares is checked against LAPACK's Cholesky and solver, one design at a time,
and against exact rational solutions, which need no library at all.
The sweep's Gram draws are checked against Grams of sampled noise rows, the
noise map against a node-by-node sampler, and every solvable sweep draw of
the effort model against the closed-form law of its treatment coefficient.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from ovbkit.dag import CausalDag
from ovbkit.scm import BernoulliExogenous, ScmSpec

_NAMES = list("ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def undirected_paths(dag: CausalDag, start: str, end: str) -> list[tuple[str, ...]]:
    neighbors: dict[str, set[str]] = {n: set() for n in dag.nodes}
    for tail, head in dag.edges:
        neighbors[tail].add(head)
        neighbors[head].add(tail)
    found: list[tuple[str, ...]] = []

    def walk(path: list[str]) -> None:
        if path[-1] == end:
            found.append(tuple(path))
            return
        for nxt in sorted(neighbors[path[-1]]):
            if nxt not in path:
                walk(path + [nxt])

    walk([start])
    return found


def directed_paths(dag: CausalDag, start: str, end: str) -> list[tuple[str, ...]]:
    children: dict[str, set[str]] = {n: set() for n in dag.nodes}
    for tail, head in dag.edges:
        children[tail].add(head)
    found: list[tuple[str, ...]] = []

    def walk(path: list[str]) -> None:
        if path[-1] == end:
            found.append(tuple(path))
            return
        for nxt in sorted(children[path[-1]]):
            if nxt not in path:
                walk(path + [nxt])

    walk([start])
    return found


def closure_below(dag: CausalDag, node: str) -> set[str]:
    """Descendants by repeated edge expansion (node itself excluded)."""
    below: set[str] = set()
    changed = True
    while changed:
        changed = False
        for tail, head in dag.edges:
            if (tail == node or tail in below) and head not in below:
                below.add(head)
                changed = True
    below.discard(node)
    return below


def path_blocked(dag: CausalDag, path: tuple[str, ...], given: frozenset[str]) -> bool:
    for i in range(1, len(path) - 1):
        before, mid, after = path[i - 1], path[i], path[i + 1]
        is_collider = (before, mid) in dag.edges and (after, mid) in dag.edges
        if is_collider:
            if mid not in given and not (closure_below(dag, mid) & given):
                return True
        elif mid in given:
            return True
    return False


def d_separated_oracle(dag: CausalDag, x: str, y: str, given: frozenset[str]) -> bool:
    return all(path_blocked(dag, p, given) for p in undirected_paths(dag, x, y))


def valid_adjustment_oracle(
    dag: CausalDag, treatment: str, outcome: str, adjustment: frozenset[str]
) -> bool:
    if adjustment & closure_below(dag, treatment):
        return False
    pruned = CausalDag(
        nodes=dag.nodes,
        edges=frozenset(e for e in dag.edges if e[0] != treatment),
        latent=dag.latent,
    )
    return d_separated_oracle(pruned, treatment, outcome, adjustment)


def minimal_sets_oracle(
    dag: CausalDag, treatment: str, outcome: str, observed_only: bool = False
) -> list[frozenset[str]]:
    pool = sorted(
        dag.nodes - {treatment, outcome} - (dag.latent if observed_only else set())
    )
    valid: list[frozenset[str]] = []
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            subset = frozenset(combo)
            if valid_adjustment_oracle(dag, treatment, outcome, subset):
                valid.append(subset)
    minimal = [s for s in valid if not any(other < s for other in valid)]
    return sorted(minimal, key=lambda s: (len(s), tuple(sorted(s))))


def random_dag(
    rng: random.Random, max_nodes: int = 6, edge_prob: float = 0.4, min_nodes: int = 2
) -> CausalDag:
    count = rng.randint(min_nodes, max_nodes)
    names = _NAMES[:count]
    order = names[:]
    rng.shuffle(order)
    edges = [
        (order[i], order[j])
        for i in range(count)
        for j in range(i + 1, count)
        if rng.random() < edge_prob
    ]
    latent = frozenset(n for n in names if rng.random() < 0.2)
    return CausalDag(frozenset(names), frozenset(edges), latent)


def lapack_normal_equations(design: np.ndarray, response: np.ndarray) -> np.ndarray | None:
    """OLS coefficients of one ``(n, p)`` design through LAPACK's Cholesky, or
    None when XtX is not positive definite or some pivot ``L_jj**2`` is at
    most 1e-10 times its own column's diagonal entry ``(XtX)_jj``."""
    gram = design.T @ design
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    if np.any(np.diag(lower) ** 2 <= 1e-10 * np.diag(gram)):
        return None
    return np.linalg.solve(lower.T, np.linalg.solve(lower, design.T @ response))


def exact_least_squares(
    design: np.ndarray, y: np.ndarray
) -> tuple[list[Fraction], list[Fraction], Fraction] | None:
    """Exact least squares of one ``(n, p)`` design and outcome, in rational
    arithmetic: the coefficients, the diagonal of (XtX)^-1 and the residual
    sum of squares, or None when the exact system is singular.  From p rows on
    the coefficients solve XtX b = Xty; below p they are the minimum-norm
    Xt (XXt)^-1 y, with no (XtX)^-1 (an empty diagonal) and no residual.

    Every float is an integer over a power of two, so one common power of two
    makes every value an integer and the products exact; the coefficients do
    not change under that scale, and the diagonal and the residual are scaled
    back exactly.
    """
    values = [v.as_integer_ratio() for v in np.concatenate([design.ravel(), y]).tolist()]
    scale = max(den for _, den in values)  # every denominator divides it
    ints = [num * (scale // den) for num, den in values]
    n, p = design.shape
    rows = [ints[i * p:(i + 1) * p] for i in range(n)]
    ys = ints[n * p:]
    if n >= p:
        columns = list(zip(*rows))
        gram = [[sum(a * b for a, b in zip(ci, cj)) for cj in columns] for ci in columns]
        moment = [sum(a * b for a, b in zip(c, ys)) for c in columns]
        identity = [[int(i == j) for i in range(p)] for j in range(p)]
        solution = _exact_solve(gram, [moment, *identity])
        if solution is None:
            return None
        coef, *inverse = solution
        # yty - bt Xty is the residual sum of squares, since XtX b = Xty.
        rss = sum(v * v for v in ys) - sum(b * m for b, m in zip(coef, moment))
        return coef, [inverse[j][j] * scale**2 for j in range(p)], Fraction(rss, scale**2)
    gram = [[sum(a * b for a, b in zip(ri, rj)) for rj in rows] for ri in rows]
    solution = _exact_solve(gram, [ys])
    if solution is None:
        return None
    return [sum(w * row[j] for w, row in zip(solution[0], rows)) for j in range(p)], [], Fraction(0)


def _exact_solve(matrix: list[list[int]], rhs: list[list[int]]) -> list[list[Fraction]] | None:
    """Solutions x of ``matrix x = b`` for each vector b of ``rhs``, by
    Gauss-Jordan elimination over Fractions, or None when ``matrix`` is singular."""
    size = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(b[i]) for b in rhs] for i, row in enumerate(matrix)]
    for c in range(size):
        pivot = next((r for r in range(c, size) if rows[r][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(size):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return [[rows[i][size + k] for i in range(size)] for k in range(len(rhs))]


def row_sampled_grams(
    p: np.ndarray, gaussians: int, n: int, r: int, rng: np.random.Generator
) -> np.ndarray:
    """``r`` Grams, each the sum of uuᵀ over ``n`` sampled noise rows
    u = [1, one Bernoulli(p_i) draw per entry of ``p``, ``gaussians``
    standard normal draws]; shape ``(r, d, d)``."""
    rows = np.concatenate([
        np.ones((r, 1, n)),
        (rng.random((r, p.size, n)) < p[:, None]).astype(float),
        rng.standard_normal((r, gaussians, n)),
    ], axis=1)
    return np.einsum("rin,rjn->rij", rows, rows)


def sample_columns(
    spec: ScmSpec, shape: int | tuple[int, ...], rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """One array of the given shape per node, drawn node by node in ``spec.order``."""
    columns: dict[str, np.ndarray] = {}
    for node in spec.order:
        mech = spec.mechanisms[node]
        if isinstance(mech, BernoulliExogenous):
            columns[node] = (rng.random(shape) < mech.p).astype(float)
        else:
            mean = np.full(shape, float(mech.intercept))
            for parent, weight in mech.weights.items():
                mean += weight * columns[parent]
            columns[node] = mean + mech.sd * rng.standard_normal(shape)
    return columns


def effort_law(t_e: float, z_e: float, z_t: float) -> tuple[float, float]:
    """The law of the effort model's outcome E given an intercept, T and the
    observed covariates B, K, O and S, with Z omitted: (beta, sigma).

    Z is Gaussian and independent of B, K, O and S, so given them and T it is
    normal with mean z_t * (T - o_t * O - s_t * S) / (1 + z_t**2) and variance
    1 / (1 + z_t**2).  So E is exactly normal given the regressors, with mean
    linear in them, T's coefficient being beta = t_e + z_e * z_t / (1 + z_t**2),
    and with variance sigma**2 = 1 + z_e**2 / (1 + z_t**2).
    """
    return t_e + z_e * z_t / (1.0 + z_t**2), math.sqrt(1.0 + z_e**2 / (1.0 + z_t**2))


def treatment_z_scores(
    gram: np.ndarray, coef: np.ndarray, beta: float, sigma: float
) -> np.ndarray:
    """z = (b_T - beta) / (sigma * sqrt([(XtX)^-1]_TT)) for each regression.

    ``gram`` holds the ``(r, p, p)`` matrices XtX, with T last as
    ``scm._lift`` places it, and ``coef`` the ``(r,)`` least-squares
    coefficients b_T.  When the outcome is N(X·b, sigma**2) given the design
    X, with T's entry of b equal to beta, z is exactly standard normal at
    every n >= p, whatever the law of the design.
    """
    return (coef - beta) / (sigma * np.sqrt(np.linalg.inv(gram)[:, -1, -1]))


def ks_against_standard_normal(z: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov statistic of ``z`` against N(0, 1)."""
    z = np.sort(z)
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
    steps = np.arange(z.size + 1) / z.size
    return float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))
