"""Structural causal models: mechanisms, seeded sampling, and sensitivity sweeps.

Sampling is bit-reproducible for a given numpy version: the random source is
numpy's counter-based Philox generator, normal variates come from its
``standard_normal``, and nodes are always sampled in the DAG's topological
order.  Sweeps draw the repetitions of a cell in blocks, each draw attempt of
a block from its own seed derived from the tuple (config seed, grid-point
index, sample-size index, index of the block's first repetition, attempt),
so a cell's result never depends on which other cells are run.

A model with k_b Bernoulli and k_g Gaussian nodes is linear in its
exogenous noise, and a regression on n samples sees the noise only through
its Gram matrix.  A sweep cell with n >= 2**k_b + k_g draws that matrix
directly, exactly in law and at a cost that does not grow with n; a smaller
cell samples its n rows node by node, as :func:`sample` does.
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

from .dag import CausalDag
from .stats import Dataset, Interval, _solve_normal_stack, _stacked_least_squares, hpdi

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
# (at least one), which bounds a block's memory at any n.  A repetition counts
# min(n, 2**k_b + k_g) values: n sampled rows, or the 2**k_b pattern rows and
# k_g Bartlett rows of its Gram draw.  The block size decides which
# repetitions share a random stream, so changing it changes every simulate CSV.
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


def _sample_columns(
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


def sample(spec: ScmSpec, n: int, seed: int) -> Dataset:
    """Draw ``n`` joint samples; identical (spec, n, seed) give identical bytes.

    The returned dataset has one column per node, latent nodes included, in
    the model's topological order.
    """
    if n < 1:
        raise ScmError("sample count must be at least 1")
    if seed < 0:
        raise ScmError("seed must be a non-negative integer")
    if spec.parameters:
        raise ScmError(f"unbound parameter(s): {list(spec.parameters)}")
    columns = _sample_columns(spec, n, _rng_from(seed))
    return Dataset(spec.order, np.column_stack([columns[c] for c in spec.order]))


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
    tracked.  Grid order matters: sweep seeds are derived from the
    positional indices of grid point and sample size."""

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
            dag.require(name)
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


def _cell_estimates(
    spec: ScmSpec,
    n: int,
    outcome: str,
    predictors: tuple[str, ...],
    repetitions: int,
    entropy: tuple[int, int, int],
) -> tuple[np.ndarray, int]:
    """One sweep cell: the first predictor's coefficient from each repetition
    that produced one, in repetition order, and the number that did not.

    Repetitions are drawn and regressed a block at a time.  With k_b
    Bernoulli and k_g normal noise draws per sample, a cell with
    n >= 2**k_b + k_g draws each repetition's Gram matrix (see
    :func:`_draw_grams`); a smaller one samples its n rows.  A repetition
    that :func:`~ovbkit.stats._solve_normal_stack` leaves unsolved is
    redrawn, together with the block's other failures, from the next
    attempt's seed, and counts as failed after three retries.
    """
    rows, p, gaussians = _noise_map(spec)
    threshold = 2**p.size + gaussians
    block = max(1, _BLOCK_VALUES // min(n, threshold))
    estimates = np.empty(repetitions)
    done = np.zeros(repetitions, dtype=bool)
    for start in range(0, repetitions, block):
        pending = np.arange(start, min(start + block, repetitions))
        for attempt in range(_MAX_DRAW_ATTEMPTS):
            rng = _rng_from((*entropy, start, attempt))
            if n >= threshold:
                grams = _draw_grams(p, gaussians, n, pending.size, rng)
                coef, solved = _gram_estimates(rows, grams, outcome, predictors)
            else:
                coef, solved = _draw_estimates(spec, (pending.size, n), outcome, predictors, rng)
            estimates[pending[solved]] = coef[solved]
            done[pending[solved]] = True
            pending = pending[~solved]
            if not pending.size:
                break
    return estimates[done], repetitions - int(done.sum())


def _draw_estimates(
    spec: ScmSpec,
    shape: tuple[int, int],
    outcome: str,
    predictors: tuple[str, ...],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``shape = (r, n)``: r repetitions of n samples, then regress each.

    Returns the first predictor's coefficient per repetition and which
    repetitions :func:`_stacked_least_squares` solved.  Extreme edge weights
    can overflow a draw; the solver leaves such a repetition unsolved.
    The draws are freed on return, before the caller makes the next one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        columns = _sample_columns(spec, shape, rng)
    design = np.empty((shape[0], len(predictors) + 1, shape[1]))
    design[:, 0] = 1.0
    for i, name in enumerate(predictors, start=1):
        design[:, i] = columns[name]
    coef, solved = _stacked_least_squares(design, columns[outcome])
    return coef[:, 1], solved


def _noise_map(spec: ScmSpec) -> tuple[dict[str, np.ndarray], np.ndarray, int]:
    """The model as a linear map M of its exogenous noise.

    One sample's noise is u = [1, the Bernoulli draws, the standard normal
    draws], each group in ``spec.order``, and node v takes the value M[v]·u.
    Returns the rows M[v], the Bernoulli probabilities and the number of
    normal draws.  Extreme edge weights can overflow a row; the solver
    leaves every regression on it unsolved.
    """
    bernoulli = [v for v in spec.order if isinstance(spec.mechanisms[v], BernoulliExogenous)]
    gaussian = [v for v in spec.order if isinstance(spec.mechanisms[v], LinearGaussian)]
    column = {v: i for i, v in enumerate(bernoulli + gaussian, start=1)}
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
    return rows, np.array([spec.mechanisms[v].p for v in bernoulli]), len(gaussian)


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
       the diagonal, taken column by column;
    4. G from the pattern counts and sums: its Bernoulli block is
       sum over c of n_c·[1, c][1, c]ᵀ, its cross block the sum of
       [1, c]·s_cᵀ, and its normal block W plus the sum of s_c·s_cᵀ / n_c
       over the non-empty patterns.

    Bartlett's decomposition needs n - m >= k_g, which n >= 2**k_b + k_g
    guarantees.  Returns the stack of Grams, shape ``(r, d, d)`` with
    d = 1 + k_b + k_g.
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
    bartlett[:, diagonal, diagonal] = np.sqrt(rng.chisquare(dof[:, None] - diagonal))
    above = np.triu_indices(gaussians, 1)
    bartlett[:, above[0], above[1]] = rng.standard_normal((r, above[0].size))

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


def _gram_estimates(
    rows: dict[str, np.ndarray],
    grams: np.ndarray,
    outcome: str,
    predictors: tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """The first predictor's coefficient from each Gram, and which were solved.

    With D the rows of M for the intercept and the predictors, a regression's
    XᵀX is D·G·Dᵀ and its Xᵀy is D·G·M[outcome].
    """
    intercept = np.zeros(grams.shape[1])
    intercept[0] = 1.0
    lift = np.stack([intercept, *(rows[v] for v in predictors), rows[outcome]])
    with np.errstate(over="ignore", invalid="ignore"):
        moments = lift @ grams @ lift.T
    p = len(predictors) + 1
    coef, solved = _solve_normal_stack(moments[:, :p, :p], moments[:, :p, p])
    return coef[:, 1], solved


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full simulation sweep described by ``config``.

    For every grid point and sample size the model is sampled and refit
    ``config.repetitions`` times; the tracked coefficient's mean and its 50%
    and 95% HPD intervals are summarized per cell.  Results are bit-identical
    across runs of the same config.
    """
    cells = []
    for gi, point in enumerate(config.grid_points()):
        params = dict(zip(config.grid_names, point))
        spec = config.template.bind({**config.fixed, **params})
        for si, n in enumerate(config.sample_sizes):
            estimates, failures = _cell_estimates(
                spec, n, config.outcome, config.predictors, config.repetitions,
                (config.seed, gi, si),
            )
            failed = failures > 0.1 * config.repetitions
            with np.errstate(over="ignore"):  # finite estimates near 1e308 can sum to inf
                mean = math.nan if failed else float(np.mean(estimates))
            if math.isfinite(mean):
                cells.append(SweepCell(
                    params, n, mean, hpdi(estimates, 0.50), hpdi(estimates, 0.95), failures
                ))
            else:
                cells.append(SweepCell(params, n, None, None, None, failures))
    return SweepResult(config.grid_names, tuple(cells))


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
    The config binds the bundled team-effort model.
    """
    grid: dict[str, tuple[float, ...]] = {}
    fixed: dict[str, float] = {}
    scalars: dict[str, str] = {}
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
        if key.startswith("grid."):
            grid[key.split(".", 1)[1]] = _floats(value, lineno)
        elif key.startswith("param."):
            fixed[key.split(".", 1)[1]] = _float(value, lineno)
        else:
            scalars[key] = value
    known = {"n", "repetitions", "seed", "outcome", "predictors"}
    unknown = set(scalars) - known
    if unknown:
        raise ScmError(f"unknown config key(s): {sorted(unknown)}")
    missing = known - set(scalars)
    if missing:
        raise ScmError(f"missing config key(s): {sorted(missing)}")
    try:
        sizes = tuple(int(v) for v in scalars["n"].split(","))
        repetitions = int(scalars["repetitions"])
        seed = int(scalars["seed"])
    except ValueError as exc:
        raise ScmError(f"bad integer in config: {exc}") from None
    return SweepConfig(
        template=team_effort_template(),
        grid=grid,
        fixed=fixed,
        sample_sizes=sizes,
        repetitions=repetitions,
        outcome=scalars["outcome"],
        predictors=tuple(p.strip() for p in scalars["predictors"].split(",")),
        seed=seed,
    )


def _float(value: str, lineno: int) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ScmError(f"config line {lineno}: not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ScmError(f"config line {lineno}: values must be finite")
    return out


def _floats(value: str, lineno: int) -> tuple[float, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ScmError(f"config line {lineno}: empty value list")
    return tuple(_float(p, lineno) for p in parts)


def load_sweep_config(path: str | Path) -> SweepConfig:
    return parse_sweep_config(Path(path).read_bytes().decode("utf-8-sig"))
