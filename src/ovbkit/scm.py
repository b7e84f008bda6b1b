"""Structural causal models: mechanisms, seeded sampling, and sensitivity sweeps.

Sampling is bit-reproducible for a given numpy version: the random source is
numpy's counter-based Philox generator, normal variates come from its
``standard_normal``, and nodes are always sampled in the DAG's topological
order.  Sweeps draw the repetitions of each sample size in blocks, each draw
attempt of a block from its own seed derived from the tuple (config seed,
sample-size index, index of the block's first repetition, attempt), and each
draw serves every grid point: a cell's result depends on no other cell.

Every model here is linear in its exogenous noise: one Bernoulli or standard
normal draw per node, and node v takes the value M[v]·u (see
:func:`_noise_map`).  :func:`sample` and a sweep cell with fewer samples than
regression parameters draw u row by row and map it through M.  A regression
on n >= p samples sees the noise only through its Gram matrix, so every other
sweep cell draws that matrix directly, exactly in law and at a cost that
does not grow with n.
"""

from __future__ import annotations

import itertools
import math
import numbers
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .dag import CausalDag, _decode
from .stats import Dataset, Interval, _tracked_coefficients, hpdi

__all__ = [
    "BernoulliExogenous",
    "LinearGaussian",
    "Mechanism",
    "ScmError",
    "ScmSpec",
    "SweepCell",
    "SweepConfig",
    "SweepResult",
    "added_cause_scm",
    "confounded_scm",
    "direct_effect_scm",
    "expected_treatment_estimate",
    "load_sweep_config",
    "parse_sweep_config",
    "run_sweep",
    "sample",
    "team_effort_template",
]

_MAX_DRAW_ATTEMPTS = 4  # one draw plus up to three redraws per repetition
# A sweep block holds as many repetitions as fit in this many values per node
# (at least one), which bounds a draw's memory at any n.  A repetition counts
# min(n, 2**k_b + k_g) values, a measure of its draw's size rather than an
# exact count: below p parameters it draws n noise rows, else a Gram from the
# 2**k_b pattern rows and k_g Bartlett rows.  The block size decides which
# repetitions share a random stream, so changing it changes every simulate CSV.
# A solve takes all k outcome rows of one design on as many repetitions (at
# least one) as keep k x repetitions x values per repetition in the same bound.
_BLOCK_VALUES = 2**17
_MAX_SAMPLE_SIZE = 2**63 - 1  # numpy draws pattern counts as 64-bit integers
_CELL_COLUMNS = ("n", "mean", "l50", "u50", "l95", "u95", "failures")


class ScmError(ValueError):
    """Invalid structural model, sweep configuration, or sampling request."""


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require_real(what: str, value, kind: str = "a real number") -> None:
    if not _is_real(value):
        raise ScmError(f"{what} must be {kind}, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also an int too large for a float
        raise ScmError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True)
class BernoulliExogenous:
    """A parentless 0/1 node taking value 1 with probability ``p``."""

    p: float

    def __post_init__(self):
        _require_real("Bernoulli probability", self.p)
        if not 0.0 <= self.p <= 1.0:
            raise ScmError(f"Bernoulli probability must be in [0, 1], got {self.p}")


@dataclass(frozen=True, eq=False)
class LinearGaussian:
    """A Gaussian node whose mean is linear in its parents.

    ``weights`` maps each parent to its edge coefficient, kept sorted by
    parent, the order in which sampling sums them.  A weight may instead be a
    string naming a free parameter of the model.
    """

    intercept: float
    weights: Mapping[str, float | str]
    sd: float

    def __post_init__(self):
        if not (isinstance(self.weights, Mapping)
                and all(isinstance(parent, str) for parent in self.weights)):
            raise ScmError(f"weights must be a mapping from parent name to weight, "
                           f"got {self.weights!r}")
        object.__setattr__(self, "weights", dict(sorted(self.weights.items())))
        _require_real("intercept", self.intercept)
        for parent, weight in self.weights.items():
            if not isinstance(weight, str):
                _require_real(f"weight for parent {parent!r}", weight,
                              "a real number or a parameter name")
        _require_real("standard deviation", self.sd)
        if not self.sd > 0:
            raise ScmError(f"standard deviation must be positive, got {self.sd}")


Mechanism = Union[BernoulliExogenous, LinearGaussian]


@dataclass(frozen=True, eq=False)
class ScmSpec:
    """A DAG plus one mechanism per node, sampled in ``order``.

    Construction checks the mechanisms against the DAG.  Edge weights named
    by a string are free ``parameters``: :meth:`bind` fills them in, and
    :func:`sample` refuses a model that still has any.
    """

    dag: CausalDag
    mechanisms: Mapping[str, Mechanism]

    def __post_init__(self):
        object.__setattr__(self, "mechanisms", dict(self.mechanisms))
        missing = self.dag.nodes - set(self.mechanisms)
        if missing:
            raise ScmError(f"missing mechanism for node(s): {sorted(missing)}")
        extra = set(self.mechanisms) - self.dag.nodes
        if extra:
            raise ScmError(f"mechanism for undeclared node(s): {sorted(extra)}")
        for node, mech in self.mechanisms.items():
            parents = set(self.dag.parents(node))
            if not isinstance(mech, (BernoulliExogenous, LinearGaussian)):
                raise ScmError(f"mechanism for {node!r} must be a BernoulliExogenous "
                               f"or a LinearGaussian, got {mech!r}")
            if isinstance(mech, BernoulliExogenous):
                if parents:
                    raise ScmError(f"Bernoulli node {node!r} cannot have parents")
            elif set(mech.weights) != parents:
                raise ScmError(
                    f"weights for {node!r} must cover exactly its parents "
                    f"{sorted(parents)}, got {sorted(mech.weights)}"
                )

    @property
    def order(self) -> tuple[str, ...]:
        return self.dag._order

    @property
    def parameters(self) -> tuple[str, ...]:
        names = {
            w
            for mech in self.mechanisms.values()
            if isinstance(mech, LinearGaussian)
            for w in mech.weights.values()
            if isinstance(w, str)
        }
        return tuple(sorted(names))

    def bind(self, values: Mapping[str, float]) -> ScmSpec:
        """The same model with each free parameter set to its value."""
        free = set(self.parameters)
        unknown = set(values) - free
        if unknown:
            raise ScmError(f"unknown parameter(s): {sorted(unknown)}")
        missing = free - set(values)
        if missing:
            raise ScmError(f"unbound parameter(s): {sorted(missing)}")
        concrete: dict[str, Mechanism] = {}
        for node, mech in self.mechanisms.items():
            if isinstance(mech, LinearGaussian):
                weights = {
                    parent: float(values[w]) if isinstance(w, str) else w
                    for parent, w in mech.weights.items()
                }
                mech = LinearGaussian(mech.intercept, weights, mech.sd)
            concrete[node] = mech
        return ScmSpec(self.dag, concrete)


def _rng_from(entropy: int | tuple[int, ...]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def sample(spec: ScmSpec, n: int, seed: int) -> Dataset:
    """Draw ``n`` joint samples; identical (spec, n, seed) give identical bytes.

    The returned dataset has one column per node, latent nodes included, in
    the model's topological order.  Extreme edge weights can overflow a
    value, and :class:`~ovbkit.stats.Dataset` refuses a non-finite one.
    """
    if n < 1:
        raise ScmError("sample count must be at least 1")
    if seed < 0:
        raise ScmError("seed must be a non-negative integer")
    if spec.parameters:
        raise ScmError(f"unbound parameter(s): {list(spec.parameters)}")
    rows, _, _ = _noise_map(spec)
    noise = _draw_noise(spec, (n,), _rng_from(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        values = noise @ np.stack([rows[v] for v in spec.order]).T
    return Dataset(spec.order, values)


# --- bundled models ----------------------------------------------------------


def direct_effect_scm(x_y: float = 0.4) -> ScmSpec:
    """X -> Y with standard-normal X and unit measurement noise on Y."""
    dag = CausalDag.from_edges([("X", "Y")])
    return ScmSpec(dag, {
        "X": LinearGaussian(0.0, {}, 1.0),
        "Y": LinearGaussian(0.0, {"X": x_y}, 1.0),
    })


def added_cause_scm(x_y: float = 0.4, z_y: float = 0.7) -> ScmSpec:
    """X -> Y <- Z with independent standard-normal causes."""
    dag = CausalDag.from_edges([("X", "Y"), ("Z", "Y")])
    return ScmSpec(dag, {
        "X": LinearGaussian(0.0, {}, 1.0),
        "Z": LinearGaussian(0.0, {}, 1.0),
        "Y": LinearGaussian(0.0, {"X": x_y, "Z": z_y}, 1.0),
    })


def confounded_scm(x_y: float = 0.4, z_y: float = 0.7, z_x: float = 0.2) -> ScmSpec:
    """X -> Y with Z a common cause of both (the confounding triangle)."""
    dag = CausalDag.from_edges([("X", "Y"), ("Z", "X"), ("Z", "Y")])
    return ScmSpec(dag, {
        "Z": LinearGaussian(0.0, {}, 1.0),
        "X": LinearGaussian(0.0, {"Z": z_x}, 1.0),
        "Y": LinearGaussian(0.0, {"X": x_y, "Z": z_y}, 1.0),
    })


def team_effort_template() -> ScmSpec:
    """The bundled project-effort model: effort E driven by team size T,
    context variables B, K, O, S, and an unmeasured confounder Z of T and E.

    Binary context variables are fair Bernoulli draws; continuous nodes are
    unit-variance Gaussians around a linear mean.  Every edge weight is a free
    parameter named ``<from>_<to>`` in lowercase (for example ``s_t`` for the
    S -> T edge; ``z_e`` and ``z_t`` belong to the unmeasured confounder).
    """
    dag = CausalDag.from_edges(
        [
            ("B", "S"), ("K", "S"),
            ("O", "T"), ("S", "T"), ("Z", "T"),
            ("B", "E"), ("K", "E"), ("O", "E"), ("S", "E"), ("T", "E"), ("Z", "E"),
        ],
        latent=["Z"],
        treatment="T",
        outcome="E",
    )
    mechanisms: dict[str, Mechanism] = {
        "B": BernoulliExogenous(0.5),
        "K": BernoulliExogenous(0.5),
        "O": BernoulliExogenous(0.5),
        "Z": LinearGaussian(0.0, {}, 1.0),
        "S": LinearGaussian(0.0, {"B": "b_s", "K": "k_s"}, 1.0),
        "T": LinearGaussian(0.0, {"O": "o_t", "S": "s_t", "Z": "z_t"}, 1.0),
        "E": LinearGaussian(
            0.0,
            {"B": "b_e", "K": "k_e", "O": "o_e", "S": "s_e", "T": "t_e", "Z": "z_e"},
            1.0,
        ),
    }
    return ScmSpec(dag, mechanisms)


# --- sweeps ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """A parameter sweep: grid values for some template parameters, fixed
    values for the rest, sample sizes, repetitions, and the regression run on
    each draw.  The first predictor is the treatment whose coefficient is
    tracked.  Sample-size order matters: sweep seeds are derived from the
    positional index of the sample size, and every grid point shares them."""

    template: ScmSpec
    grid: Mapping[str, tuple[float, ...]]
    fixed: Mapping[str, float]
    sample_sizes: tuple[int, ...]
    repetitions: int
    outcome: str
    predictors: tuple[str, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "grid", {k: tuple(v) for k, v in self.grid.items()})
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if not self.grid or any(not vals for vals in self.grid.values()):
            raise ScmError("grid must name at least one parameter with values")
        for name, values in self.grid.items():
            if len(set(values)) < len(values):
                raise ScmError(f"duplicate values for grid parameter {name!r}")
        if self.repetitions < 1:
            raise ScmError("repetitions must be at least 1")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise ScmError("sample sizes must be positive")
        too_large = [n for n in self.sample_sizes if n > _MAX_SAMPLE_SIZE]
        if too_large:
            raise ScmError(f"sample sizes must be at most {_MAX_SAMPLE_SIZE}, got {too_large[0]}")
        if len(set(self.sample_sizes)) < len(self.sample_sizes):
            raise ScmError("duplicate sample sizes in n")
        if self.seed < 0:
            raise ScmError("seed must be a non-negative integer")
        overlap = set(self.grid) & set(self.fixed)
        if overlap:
            raise ScmError(f"parameter(s) both fixed and on the grid: {sorted(overlap)}")
        # bind judges the parameter names; run_sweep binds every grid point.
        self.template.bind({**self.fixed, **{k: v[0] for k, v in self.grid.items()}})
        dag = self.template.dag
        for name in (self.outcome, *self.predictors):
            if name not in dag.nodes:
                raise ScmError(f"unknown node {name!r}")
        if self.outcome in dag.latent:
            raise ScmError(f"latent node cannot be the regression outcome: {self.outcome!r}")
        bad = set(self.predictors) & dag.latent
        if bad:
            raise ScmError(f"latent node(s) cannot be regression predictors: {sorted(bad)}")
        if self.outcome in self.predictors or not self.predictors:
            raise ScmError("predictors must be nonempty and exclude the outcome")
        if len(set(self.predictors)) < len(self.predictors):
            raise ScmError("duplicate predictor names")

    @property
    def grid_names(self) -> tuple[str, ...]:
        return tuple(self.grid)

    def grid_points(self) -> list[tuple[float, ...]]:
        return list(itertools.product(*self.grid.values()))


@dataclass(frozen=True, eq=False)
class SweepCell:
    """Summary of one (grid point, sample size) combination.

    ``mean``/``hpdi50``/``hpdi95`` are None when the cell failed, i.e. more
    than 10% of its repetitions could not produce an estimate, or the mean of
    the estimates overflows."""

    params: Mapping[str, float]
    n: int
    mean: float | None
    hpdi50: Interval | None
    hpdi95: Interval | None
    failures: int

    @property
    def failed(self) -> bool:
        return self.mean is None


@dataclass(frozen=True, eq=False)
class SweepResult:
    grid_names: tuple[str, ...]
    cells: tuple[SweepCell, ...]

    def cell(self, n: int, **params: float) -> SweepCell:
        for cell in self.cells:
            if cell.n == n and all(cell.params[k] == v for k, v in params.items()):
                return cell
        raise KeyError(f"no cell with n={n} and {params}")

    def _rows(self) -> list[tuple]:
        """Per cell: the grid values, then ``_CELL_COLUMNS`` (None where a
        failed cell has no estimate)."""
        rows = []
        for cell in self.cells:
            estimates = (None,) * 5 if cell.failed else (
                cell.mean, cell.hpdi50.low, cell.hpdi50.high, cell.hpdi95.low, cell.hpdi95.high
            )
            grid = (cell.params[name] for name in self.grid_names)
            rows.append((*grid, cell.n, *estimates, cell.failures))
        return rows

    def to_json_dict(self) -> dict:
        k = len(self.grid_names)
        return {"cells": [
            {"params": dict(zip(self.grid_names, row[:k])), **dict(zip(_CELL_COLUMNS, row[k:]))}
            for row in self._rows()
        ]}

    def to_csv(self) -> str:
        lines = [",".join([*self.grid_names, *_CELL_COLUMNS])]
        lines += [",".join("" if v is None else repr(v) for v in row) for row in self._rows()]
        return "\n".join(lines) + "\n"


def _grid_estimates(
    spec: ScmSpec,
    lifts: np.ndarray,
    n: int,
    repetitions: int,
    entropy: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Every grid point's tracked coefficient from each repetition at sample
    size ``n``, shape ``(grid points, repetitions)``, and which were solved.

    ``lifts`` stacks each grid point's :func:`_lift`, the tracked predictor
    placed last; ``spec``, any grid point's model, gives the noise layout
    they share.  Repetitions are drawn a block at a time, and each draw
    serves every grid point (common random numbers).  A block with n at
    least the number p of regression parameters draws each repetition's Gram
    matrix of the noise (see :func:`_draw_grams`); one with n < p draws its
    n noise rows (see :func:`_draw_noise`) for the minimum-norm solve.  Grid
    points whose predictor rows are equal share a design, and
    :func:`~ovbkit.stats._tracked_coefficients` solves each design once per
    draw and pending repetition for all of their outcome rows, in runs of
    repetitions whose outcome values fit ``_BLOCK_VALUES`` as a block's draw does.
    Attempt a of a block draws the whole block from the seed
    ``(*entropy, block start, a)``, and a repetition keeps its index in the
    block as its slot in every draw.  The (grid point, repetition) pairs left
    unsolved are solved again on the next attempt's draw, and stay unsolved
    after three retries.  So a cell depends only on the seed, its sample size
    and that size's index, the repetitions and its own model.
    """
    _, p, gaussians = _noise_map(spec)
    parameters = lifts.shape[1] - 1  # the intercept and the predictors
    designs: dict[bytes, list[int]] = {}  # grid points by their predictor rows, first seen first
    for point, lift in enumerate(lifts):
        designs.setdefault(lift[:-1].tobytes(), []).append(point)
    width = min(n, 2**p.size + gaussians)
    block = max(1, _BLOCK_VALUES // width)
    estimates = np.zeros((len(lifts), repetitions))
    solved = np.zeros((len(lifts), repetitions), dtype=bool)
    for start in range(0, repetitions, block):
        size = min(block, repetitions - start)
        for attempt in range(_MAX_DRAW_ATTEMPTS):
            pending = ~solved[:, start:start + size]
            if not pending.any():
                break
            rng = _rng_from((*entropy, start, attempt))
            if n < parameters:
                draw = _draw_noise(spec, (size, n), rng)
            else:
                draw = _draw_grams(p, gaussians, n, size, rng)
            for points in designs.values():
                pending_reps = np.flatnonzero(pending[points].any(axis=0))
                run = max(1, block // len(points))  # repetitions solved at once
                for first in range(0, pending_reps.size, run):
                    reps = pending_reps[first:first + run]
                    coef, ok = _tracked_coefficients(lifts[points[0], :-1], lifts[points, -1], draw[reps])
                    cells = np.ix_(points, start + reps)
                    ok = ok.T & pending[np.ix_(points, reps)]
                    estimates[cells] = np.where(ok, coef.T, estimates[cells])
                    solved[cells] |= ok
            del draw  # freed before the next attempt makes its own
    return estimates, solved


def _noise_columns(spec: ScmSpec) -> dict[str, int]:
    """Each node's column in one sample's noise u = [1, the Bernoulli draws,
    the standard normal draws], each group in ``spec.order``."""
    bernoulli = [v for v in spec.order if isinstance(spec.mechanisms[v], BernoulliExogenous)]
    gaussian = [v for v in spec.order if isinstance(spec.mechanisms[v], LinearGaussian)]
    return {v: i for i, v in enumerate(bernoulli + gaussian, start=1)}


def _draw_noise(
    spec: ScmSpec, shape: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """The noise u of one sample per index of ``shape``, as an array of shape
    ``(*shape, d)`` laid out by :func:`_noise_columns`.

    The draws are taken node by node in ``spec.order``, one array of
    ``shape`` each: a uniform compared with ``p`` for a Bernoulli node, a
    standard normal for any other.
    """
    column = _noise_columns(spec)
    noise = np.empty((*shape, len(column) + 1))
    noise[..., 0] = 1.0
    for node in spec.order:
        mech = spec.mechanisms[node]
        if isinstance(mech, BernoulliExogenous):
            noise[..., column[node]] = rng.random(shape) < mech.p
        else:
            noise[..., column[node]] = rng.standard_normal(shape)
    return noise


def _noise_map(spec: ScmSpec) -> tuple[dict[str, np.ndarray], np.ndarray, int]:
    """The model as a linear map M of its exogenous noise.

    One sample's noise u is laid out by :func:`_noise_columns`, and node v
    takes the value M[v]·u.  Returns the rows M[v], the Bernoulli
    probabilities and the number of normal draws.  Extreme edge weights can
    overflow a row; the solver leaves every regression on it unsolved.
    """
    column = _noise_columns(spec)
    rows: dict[str, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for node in spec.order:
            mech = spec.mechanisms[node]
            row = np.zeros(len(column) + 1)
            if isinstance(mech, LinearGaussian):
                row[0] = mech.intercept
                for parent, weight in mech.weights.items():
                    row += weight * rows[parent]
                row[column[node]] = mech.sd
            else:
                row[column[node]] = 1.0
            rows[node] = row
    p = [spec.mechanisms[v].p for v in column if isinstance(spec.mechanisms[v], BernoulliExogenous)]
    return rows, np.array(p), len(column) - len(p)


def _lift(rows: dict[str, np.ndarray], outcome: str, predictors: tuple[str, ...]) -> np.ndarray:
    """The rows of M for the intercept, the other predictors, the tracked predictor
    ``predictors[0]``, placed last only here, and the outcome: a sample's values are lift·u."""
    intercept = np.zeros(rows[outcome].size)
    intercept[0] = 1.0
    return np.stack([intercept, *(rows[v] for v in (*predictors[1:], predictors[0], outcome))])


def _draw_grams(
    p: np.ndarray, gaussians: int, n: int, r: int, rng: np.random.Generator
) -> np.ndarray:
    """``r`` draws of the Gram matrix G = sum of uuᵀ over ``n`` noise
    samples u (see :func:`_noise_map`), exact in law, at a cost that does not
    grow with ``n``.

    With k_b = ``p.size`` Bernoulli and k_g = ``gaussians`` normal draws per
    sample, the samples fall into 2**k_b patterns c of the Bernoulli draws.
    Each stack-wide step takes its draws in turn:

    1. the pattern counts n_c, one multinomial draw;
    2. the sum s_c of pattern c's normal draws, N(0, n_c·I), drawn as
       sqrt(n_c)·t_c with t_c standard normal;
    3. the scatter of the normal draws about their pattern means, summed
       over the m non-empty patterns: W ~ Wishart(n - m, I), drawn as AAᵀ
       by Bartlett's decomposition, with A lower triangular,
       A_ii² ~ chi²(n - m - i) for i = 0, 1, ... and standard normals below
       the diagonal, taken column by column.  When n - m < k_g, W is
       singular, and the same factor with its columns i >= n - m set to zero
       draws it (Uhlig, *On singular Wishart and singular multivariate beta
       distributions*, Ann. Stat. 22, 1994);
    4. G from the pattern counts and sums: its Bernoulli block is
       sum over c of n_c·[1, c][1, c]ᵀ, its cross block the sum of
       [1, c]·s_cᵀ, and its normal block W plus the sum of s_c·s_cᵀ / n_c
       over the non-empty patterns.

    Returns the stack of Grams, shape ``(r, d, d)`` with d = 1 + k_b + k_g.
    """
    k_b, c = p.size, 2**p.size
    lead = np.hstack([np.ones((c, 1)), list(itertools.product((0.0, 1.0), repeat=k_b))])
    pattern_p = np.prod(np.where(lead[:, 1:] == 1.0, p, 1.0 - p), axis=1)
    counts = rng.multinomial(n, pattern_p, size=r)
    means = rng.standard_normal((r, c, gaussians))  # t_c
    filled = counts > 0
    # The rows of ``scatter`` hold t_c for each non-empty pattern, then the
    # columns of A, so that its Gram is the normal block of G.
    scatter = np.zeros((r, c + gaussians, gaussians))
    scatter[:, :c] = np.where(filled[..., None], means, 0.0)
    bartlett = scatter[:, c:]  # Aᵀ
    diagonal = np.arange(gaussians)
    dof = n - filled.sum(axis=1)
    chi2 = rng.chisquare(np.maximum(dof[:, None] - diagonal, 1))  # k_g draws for every Gram
    bartlett[:, diagonal, diagonal] = np.sqrt(chi2)
    above = np.triu_indices(gaussians, 1)
    bartlett[:, above[0], above[1]] = rng.standard_normal((r, above[0].size))
    bartlett[diagonal >= dof[:, None]] = 0.0  # A's columns i >= n - m

    # Stacks of small products: each matmul is one BLAS call per Gram, too
    # small for BLAS to start a thread.
    b = 1 + k_b  # G's rows and columns: the Bernoulli block [:b], the normal block [b:]
    grams = np.empty((r, b + gaussians, b + gaussians))
    outer = (lead[:, :, None] * lead[:, None, :]).reshape(c, b * b)
    grams[:, :b, :b] = (counts[:, None, :] @ outer).reshape(r, b, b)
    grams[:, :b, b:] = lead.T @ (np.sqrt(counts)[..., None] * means)
    grams[:, b:, :b] = grams[:, :b, b:].transpose(0, 2, 1)
    grams[:, b:, b:] = scatter.transpose(0, 2, 1) @ scatter
    return grams


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full simulation sweep described by ``config``.

    For every grid point and sample size the model is sampled and refit
    ``config.repetitions`` times; the tracked coefficient's mean and its 50%
    and 95% HPD intervals are summarized per cell.  Every grid point is refit
    on the same draws (see :func:`_grid_estimates`): each cell's law is that
    of independent draws, but cells are correlated across grid points, and
    the difference of two positively correlated cells has less Monte Carlo
    variance.  Results are bit-identical across runs of the same config.
    """
    points = [dict(zip(config.grid_names, point)) for point in config.grid_points()]
    specs = [config.template.bind({**config.fixed, **params}) for params in points]
    lifts = np.stack([
        _lift(_noise_map(spec)[0], config.outcome, config.predictors) for spec in specs
    ])

    def summaries(n: int, estimates: np.ndarray, solved: np.ndarray) -> list[SweepCell]:
        cells = []
        for params, values, ok in zip(points, estimates, solved):
            failures = config.repetitions - int(ok.sum())
            values = values[ok]
            with np.errstate(over="ignore"):  # finite estimates near 1e308 can sum to inf
                mean = math.nan if failures > 0.1 * config.repetitions else float(np.mean(values))
            if math.isfinite(mean):
                cells.append(SweepCell(params, n, mean, hpdi(values, 0.50), hpdi(values, 0.95), failures))
            else:
                cells.append(SweepCell(params, n, None, None, None, failures))
        return cells

    # Each size is summarised before the next is drawn, so one size's arrays are alive at a time.
    by_size = [
        summaries(n, *_grid_estimates(specs[0], lifts, n, config.repetitions, (config.seed, si)))
        for si, n in enumerate(config.sample_sizes)
    ]
    return SweepResult(config.grid_names, tuple(cell for row in zip(*by_size) for cell in row))


def expected_treatment_estimate(t_e: float, z_e: float, z_t: float) -> float:
    """Large-sample value of the tracked coefficient in the effort model.

    Partialling the included covariates out of T leaves z_t * Z plus unit
    noise, so omitting Z biases the coefficient by
    z_e * z_t / (1 + z_t**2); the other edge weights cancel because Z is
    independent of every included covariate.
    """
    return t_e + z_e * z_t / (1.0 + z_t**2)


# --- config files ------------------------------------------------------------

_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the key-value sweep config format.

    One ``key = value`` pair per line, ``#`` comments.  Keys: ``grid.<param>``
    (comma-separated values swept over), ``param.<param>`` (fixed value),
    ``n`` (comma-separated sample sizes), ``repetitions``, ``seed``,
    ``outcome``, and ``predictors`` (comma-separated; first is the treatment).
    No entry of a list may be empty.  The config binds the bundled team-effort model.
    """
    grid: dict[str, tuple[float, ...]] = {}
    fixed: dict[str, float] = {}
    scalars: dict[str, str | list[str] | int | tuple[int, ...]] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key or not _KEY_RE.match(key):
            raise ScmError(f"config line {lineno}: expected 'key = value'")
        if key in seen:
            raise ScmError(f"config line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key.startswith("grid.") or key in ("n", "predictors"):
            value = [entry.strip() for entry in value.split(",")]
            if not all(value):
                raise ScmError(f"config line {lineno}: empty entry in {key!r}")
        if key.startswith("grid."):
            grid[key.split(".", 1)[1]] = tuple(_float(v, lineno) for v in value)
        elif key.startswith("param."):
            fixed[key.split(".", 1)[1]] = _float(value, lineno)
        elif key == "n":
            scalars[key] = tuple(_int(v, lineno, key) for v in value)
        elif key in ("repetitions", "seed"):
            scalars[key] = _int(value, lineno, key)
        elif key in ("outcome", "predictors"):
            scalars[key] = value
        else:
            raise ScmError(f"config line {lineno}: unknown key {key!r}")
    missing = {"n", "repetitions", "seed", "outcome", "predictors"} - set(scalars)
    if missing:
        raise ScmError(f"missing config key(s): {sorted(missing)}")
    return SweepConfig(
        template=team_effort_template(),
        grid=grid,
        fixed=fixed,
        sample_sizes=scalars["n"],
        repetitions=scalars["repetitions"],
        outcome=scalars["outcome"],
        predictors=tuple(scalars["predictors"]),
        seed=scalars["seed"],
    )


def _float(value: str, lineno: int) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ScmError(f"config line {lineno}: not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ScmError(f"config line {lineno}: values must be finite")
    return out


def _int(value: str, lineno: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScmError(f"config line {lineno}: not an integer in {key!r}: {value!r}") from None


def load_sweep_config(path: str | Path) -> SweepConfig:
    return parse_sweep_config(_decode(Path(path).read_bytes(), ScmError))
