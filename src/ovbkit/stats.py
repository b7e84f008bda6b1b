"""Tabular datasets, least-squares fits, HPD intervals, and group differences.

The regression here is plain ordinary least squares with analytic standard
errors.  Every normal-equations solve, a single ``fit`` or a sweep's whole
stack of small regressions, goes through one vectorised Cholesky
factorization; a pivot ``diag(L)**2`` at or below 1e-10 times the largest
diagonal entry of XtX counts as rank deficiency.  A sweep solves only the
last coefficient of each regression, and solves every outcome of one design
off one tall factor per draw: of XtX over the rows ytX, or, with fewer rows
than parameters, of XXt over that column's xt and the rows yt at a cutoff of
1e-5, for the minimum-norm solution.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Dataset",
    "FitResult",
    "Interval",
    "RankDeficiencyError",
    "StatsError",
    "hpdi",
    "ols_fit",
    "parse_csv_bytes",
    "parse_value_groups",
    "read_csv",
    "scaled_mean_diff",
    "solve_normal_equations",
]

_PIVOT_RTOL = 1e-10
# The dual solve at n < p factors XXt, whose condition number is that of X
# squared, so it needs a stricter cutoff than XtX.  At this one an accepted
# solution agrees with ``lstsq`` to 1e-9 relative to its norm.  At 1e-10,
# effort-model draws at n = 5 differed by up to 2.8e-2; at 1e-6, draws of
# small random models by up to 2.4e-9.
_DUAL_PIVOT_RTOL = 1e-5
_TOO_LARGE = "values too large to fit"


class StatsError(ValueError):
    """Invalid data or request for a statistical operation."""


class RankDeficiencyError(StatsError):
    """The regression design matrix has (numerically) collinear columns."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """A named-column table of finite floats, immutable after construction."""

    columns: tuple[str, ...]
    values: np.ndarray  # shape (n_rows, n_columns)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.columns):
            raise StatsError(
                f"values must be a 2-d array with {len(self.columns)} columns"
            )
        if len(set(self.columns)) != len(self.columns):
            raise StatsError("duplicate column names")
        if not np.isfinite(values).all():
            raise StatsError("dataset values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, _column_index(self.columns, name)]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.values:
            writer.writerow([repr(float(v)) for v in row])
        return buf.getvalue()


def read_csv(source: str | Path) -> Dataset:
    """Load an RFC-4180 CSV file with a header row into a :class:`Dataset`.

    Every body cell must parse as a finite number; NaN and infinity tokens
    are rejected.
    """
    return parse_csv_bytes(Path(source).read_bytes())


def parse_csv_bytes(data: bytes) -> Dataset:
    """:func:`read_csv` on the bytes of a CSV file already in memory."""
    columns, rows = _csv_table(data)
    cells = (
        _finite(lineno, name, cell)
        for lineno, row in rows
        for name, cell in zip(columns, row)
    )
    return Dataset(columns, np.fromiter(cells, dtype=float).reshape(-1, len(columns)))


def _csv_table(data: bytes) -> tuple[tuple[str, ...], Iterator[tuple[int, list[str]]]]:
    """The header names of CSV ``data`` and an iterator of its ``(line, fields)`` rows.

    These are the format rules of every CSV input: the first non-blank line
    is a header of stripped, unique names, blank lines are skipped, and every
    row has one field per name.  The bytes are decoded as UTF-8, dropping a
    leading byte-order mark, while the rows are read; an ``io.StringIO`` over
    the decoded text would first copy it at four bytes per character.
    """
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    reader = csv.reader(text)

    def numbered() -> Iterator[tuple[int, list[str]]]:
        # ``line_num`` is the physical line a record ends on, which is the
        # line to report: a quoted field may span several lines.
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise StatsError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            # The decoder counts positions within its current chunk: decode
            # the whole file to find the bad byte's offset and line.
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = len((data[:exc.start] + b"x").splitlines())
                raise StatsError(f"line {line}: {exc}") from None
            raise

    records = numbered()
    header = next((row for _, row in records if row), None)
    if header is None:
        raise StatsError("empty CSV: missing header row")
    columns = tuple(name.strip() for name in header)
    if len(set(columns)) != len(columns):
        raise StatsError("duplicate column names")
    width = len(columns)

    def rows() -> Iterator[tuple[int, list[str]]]:
        for lineno, row in records:
            if len(row) != width:
                if not row:
                    continue
                raise StatsError(f"line {lineno}: expected {width} fields, found {len(row)}")
            yield lineno, row

    return columns, rows()


def _finite(lineno: int, name: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise StatsError(f"line {lineno}: non-numeric value {cell!r} in {name!r}") from None
    if not math.isfinite(value):
        raise StatsError(f"line {lineno}: non-finite value {cell!r} in {name!r}")
    return value


def _column_index(columns: tuple[str, ...], name: str) -> int:
    try:
        return columns.index(name)
    except ValueError:
        raise StatsError(f"unknown column {name!r}") from None


@dataclass(frozen=True)
class Interval:
    """A closed interval holding a given fraction of probability mass."""

    low: float
    high: float
    mass: float

    def __post_init__(self):
        if not self.low <= self.high:
            raise StatsError(f"interval bounds out of order: [{self.low}, {self.high}]")
        if not 0 < self.mass <= 1:
            raise StatsError("interval mass must be in (0, 1]")

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, other: "Interval | float") -> bool:
        if isinstance(other, Interval):
            return self.low <= other.low and other.high <= self.high
        return self.low <= other <= self.high


@dataclass(frozen=True)
class FitResult:
    """An OLS fit: intercept, per-predictor coefficients and standard errors,
    residual standard deviation ``sigma`` (RSS / (n - p) under the root), and
    the sample count."""

    intercept: float
    coefficients: Mapping[str, float]
    std_errors: Mapping[str, float]
    sigma: float
    n: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "intercept": self.intercept,
            "coefficients": {k: self.coefficients[k] for k in sorted(self.coefficients)},
            "std_errors": {k: self.std_errors[k] for k in sorted(self.std_errors)},
            "sigma": self.sigma,
        }


def solve_normal_equations(design: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients and the lower Cholesky factor L of XtX = L Lt.

    Raises :class:`StatsError` when XtX or Xty overflows, and
    :class:`RankDeficiencyError` when a pivot ``diag(L)**2`` is not above
    1e-10 times the largest diagonal entry of XtX.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram, moment = design.T @ design, design.T @ response
    if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
        raise StatsError(_TOO_LARGE)
    lower, solved = _cholesky_factor(gram[None])
    if not solved[0]:
        raise RankDeficiencyError("design matrix is rank deficient (collinear predictors)")
    return _cholesky_substitute(lower, moment[None])[0], lower[0]


def _tracked_coefficients(
    design: np.ndarray, outcomes: np.ndarray, draw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The last coefficient of one design's regression of each of k outcomes on each of r draws,
    shape ``(r, k)``, and which were solved.

    ``design`` holds the p predictor rows, the tracked one last, and ``outcomes`` the k outcome
    rows, ``(p, d)`` and ``(k, d)``; each row maps a sample's noise u to a value.  ``draw`` stacks
    r noise Grams G ``(r, d, d)``, or r sets of n < p noise rows U ``(r, n, d)``.  The k outcomes
    share each draw's one tall factor, as many right-hand sides share one Cholesky factor (Golub
    & Van Loan, *Matrix Computations*, 4th ed., §4.2).  From a Gram, [D; Y]·G·Dᵀ is XᵀX over the
    rows y_iᵀX, whose factor is L over the rows z_iᵀ, and b_i = z_i,T / L_TT.  From rows, X = U·Dᵀ
    and the minimum-norm b_i = (L⁻¹x_T)·(L⁻¹y_i) come off the factor of XXᵀ over x_Tᵀ and the y_iᵀ
    at the stricter dual cutoff; a draw failing it takes the last row of X's ``pinv``, at
    ``lstsq``'s singular-value cutoff, for all k.  A draw whose design's sum of squares overflows
    leaves all k unsolved, and one whose design and outcome together overflow leaves that outcome
    unsolved.  A Gram failing the pivot rule, or a coefficient that is not finite, is unsolved.
    """
    p = len(design)
    with np.errstate(over="ignore", invalid="ignore"):
        if draw.shape[1] >= p:  # Grams
            lower, solved = _cholesky_factor(np.concatenate([design, outcomes]) @ draw @ design.T)
            coef = lower[:, p:, -1] / lower[:, p - 1, -1, None]
            return coef, solved[:, None] & np.isfinite(coef)
        # Each outcome is lifted under its own copy of the design, so every product has
        # p + 1 rows whatever k is: at every n < p, not only at n = 1 (a BLAS matrix-vector
        # call), how a stacked matmul rounds a row depends on its number of rows.
        lifts = np.concatenate([np.broadcast_to(design, (len(outcomes), *design.shape)),
                                outcomes[:, None]], axis=1)
        values = lifts[:, None] @ draw.transpose(0, 2, 1)  # (k, r, p + 1, n): the rows' transpose
        x, y = values[0, :, :p], values[:, :, p].swapaxes(0, 1)  # Xt (r, p, n), the y_it (r, k, n)
        design_squares = np.einsum("rin,rin->r", x, x)
        solved = np.isfinite(design_squares[:, None] + np.einsum("rkn,rkn->rk", y, y))
        # LAPACK's SVD may never return on inf or NaN, so such values are
        # zeroed before any solve; a zeroed XXt then fails every pivot.
        x = np.where(np.isfinite(design_squares)[:, None, None], x, 0.0)
        y = np.where(solved[..., None], y, 0.0)
        n = draw.shape[1]
        tall = np.concatenate([x.transpose(0, 2, 1) @ x, x[:, -1:], y], axis=1)
        lower, dual = _cholesky_factor(tall, _DUAL_PIVOT_RTOL)
        coef = np.einsum("rkn,rn->rk", lower[:, n + 1:], lower[:, n])
        fallback = np.isfinite(design_squares) & ~dual
        if fallback.any():
            pinv = np.linalg.pinv(x[fallback], rcond=max(p, n) * np.finfo(float).eps)
            coef[fallback] = np.einsum("rn,rkn->rk", pinv[:, :, -1], y[fallback])
    return coef, solved & np.isfinite(coef)


def _cholesky_factor(gram: np.ndarray, rtol: float = _PIVOT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of symmetric matrices, and which passed.

    The factor is built one column at a time across the whole stack.  A
    matrix fails when a pivot ``diag(L)**2`` is not above ``rtol`` times its
    largest diagonal entry (or is not a number); from its first failed pivot
    on, its factor continues as the identity so that the other matrices'
    arithmetic stays finite.  LAPACK's Cholesky cannot be used here: one
    failed matrix makes it raise for the whole stack.  A tall ``(r, p + k, p)``
    stack, A with k rows Bt below, comes back as A's factor L with (L^-1 B)t below.
    """
    r, _, p = gram.shape
    floor = rtol * np.max(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    lower = np.zeros_like(gram)
    solved = np.ones(r, dtype=bool)
    for j in range(p):
        row = lower[:, j, :j]
        root = np.sqrt(np.maximum(gram[:, j, j] - np.einsum("ri,ri->r", row, row), 0.0))
        solved &= root**2 > floor
        pivot = np.where(solved, root, 1.0)
        lower[:, j, j] = pivot
        below = gram[:, j + 1:, j] - np.einsum("rij,rj->ri", lower[:, j + 1:, :j], row)
        lower[:, j + 1:, j] = np.where(solved[:, None], below / pivot[:, None], 0.0)
    return lower, solved


def _cholesky_substitute(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L Lt b = rhs`` for stacks of lower factors ``L`` and vectors ``rhs``."""
    coef = np.empty_like(rhs)
    for j in range(rhs.shape[1]):  # L z = rhs
        coef[:, j] = (rhs[:, j] - np.einsum("ri,ri->r", lower[:, j, :j], coef[:, :j])) / lower[:, j, j]
    for j in reversed(range(rhs.shape[1])):  # Lt b = z
        coef[:, j] = (coef[:, j] - np.einsum("ri,ri->r", lower[:, j + 1:, j], coef[:, j + 1:])) / lower[:, j, j]
    return coef


def ols_fit(data: Dataset, outcome: str, predictors: Sequence[str]) -> FitResult:
    """Fit ``outcome ~ 1 + predictors`` by ordinary least squares.

    Raises :class:`RankDeficiencyError` for collinear predictors and
    :class:`StatsError` for unknown columns, too few rows, or values so large
    that a sum of squares overflows.
    """
    predictors = list(predictors)
    if len(set(predictors)) != len(predictors):
        raise StatsError("duplicate predictor names")
    if outcome in predictors:
        raise StatsError("outcome cannot also be a predictor")
    y = data.column(outcome)
    n = data.n
    p = len(predictors) + 1
    if n <= p:
        raise StatsError(f"need more than {p} rows to fit {p} parameters, have {n}")
    design = np.empty((n, p))
    design[:, 0] = 1.0
    for i, name in enumerate(predictors, start=1):
        design[:, i] = data.column(name)
    coef, lower = solve_normal_equations(design, y)
    # Column k of (XtX)^-1 solves XtX b = e_k against the same factor.
    inv = _cholesky_substitute(np.broadcast_to(lower, (p, p, p)), np.eye(p))
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = y - design @ coef
        sigma2 = float(residuals @ residuals) / (n - p)
        variances = sigma2 * np.diag(inv)
    if not np.isfinite(variances).all():
        raise StatsError(_TOO_LARGE)
    sigma = math.sqrt(sigma2)
    errors = np.sqrt(variances)
    return FitResult(
        intercept=float(coef[0]),
        coefficients={name: float(c) for name, c in zip(predictors, coef[1:])},
        std_errors={name: float(e) for name, e in zip(predictors, errors[1:])},
        sigma=sigma,
        n=n,
    )


def hpdi(samples: Sequence[float], mass: float) -> Interval:
    """Narrowest window over the sorted samples containing ``ceil(mass * n)``
    of them; ties resolved in favor of the earliest window."""
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if n == 0:
        raise StatsError("hpdi requires at least one sample")
    if not 0 < mass <= 1:
        raise StatsError("mass must be in (0, 1]")
    # The small slack absorbs float error in mass * n (e.g. 0.6 * 5 -> 3.0000000000000004).
    k = max(1, math.ceil(mass * n - 1e-9))
    with np.errstate(over="ignore"):
        widths = arr[k - 1:] - arr[: n - k + 1]
    if np.isinf(widths).any():
        # Finite samples near +-1e308 can span more than the largest float.
        # Halving both ends keeps every width finite and, above the
        # subnormal range, ranks the windows exactly as the full widths do.
        widths = arr[k - 1:] / 2 - arr[: n - k + 1] / 2
    start = int(np.argmin(widths))
    return Interval(float(arr[start]), float(arr[start + k - 1]), mass)


def scaled_mean_diff(
    values: Sequence[float],
    labels: Sequence[object],
    treat: object,
    reference: object,
) -> float:
    """Difference of standardized group means, treatment minus reference.

    Each group's mean is scaled by its own sample standard deviation
    (n - 1 denominator).  Groups need at least two members and nonzero spread,
    and ``treat`` and ``reference`` must name different groups.
    """
    if treat == reference:
        raise StatsError(f"treat and reference are the same group {treat!r}")
    values = np.asarray(list(values), dtype=float)
    labels = list(labels)
    if len(labels) != values.size:
        raise StatsError("values and labels must have equal length")

    def standardized_mean(tag: object) -> float:
        group = values[[lab == tag for lab in labels]]
        if group.size == 0:
            raise StatsError(f"unknown group tag {tag!r}")
        if group.size < 2:
            raise StatsError(f"group {tag!r} needs at least two members")
        # The ratio does not depend on the group's scale, so the group is
        # divided by a power of two near its largest magnitude: that is exact,
        # and keeps huge values from overflowing and tiny ones from underflowing.
        group = np.ldexp(group, -np.frexp(np.max(np.abs(group)))[1])
        spread = float(np.std(group, ddof=1))
        if spread == 0.0:
            raise StatsError(f"group {tag!r} has zero spread")
        return float(np.mean(group)) / spread

    return standardized_mean(treat) - standardized_mean(reference)


def parse_value_groups(data: bytes, value: str, group: str) -> tuple[list[float], list[str]]:
    """The ``value`` column and the ``group`` tags of CSV ``data``.

    The file follows the rules of :func:`parse_csv_bytes`, but only the
    ``value`` cells must be finite numbers: group tags are free text.
    """
    columns, rows = _csv_table(data)
    vi, gi = _column_index(columns, value), _column_index(columns, group)
    values, labels = [], []
    for lineno, row in rows:
        values.append(_finite(lineno, value, row[vi]))
        labels.append(row[gi])
    return values, labels
