"""Tipping-point and E-value sensitivity analyses for unmeasured confounding.

The tipping model treats a hypothetical confounder as a standardized normal
variable whose link to the treatment is a scaled-mean difference (SMD) and
whose link to the outcome is a linear effect; ``count`` identical confounders
shift the observed effect by ``count * smd * outcome_effect``.  Setting the
adjusted effect to zero and solving for one unknown gives the tipping value.

E-values for a continuous outcome use the standard approximation: the fitted
effect is converted to a standardized difference d = estimate * delta / sigma,
mapped to an approximate risk ratio RR = exp(0.91 * d) (inverted below 1), and
E = RR + sqrt(RR * (RR - 1)).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "EValueInput",
    "EValueResult",
    "SensitivityError",
    "TipInput",
    "TipResult",
    "adjusted_effect",
    "evalue_curve",
    "evalue_curve_csv",
    "evalue_ols",
    "tip_n_confounders",
    "tip_outcome_effect",
    "tip_smd",
    "tipping_grid",
    "tipping_report",
]


class SensitivityError(ValueError):
    """Degenerate or inconsistent sensitivity-analysis inputs."""


@dataclass(frozen=True)
class TipResult:
    """One tipping-analysis answer; ``kind`` names the solved-for quantity."""

    kind: str  # smd_needed | outcome_effect_needed | n_confounders_needed | adjusted_effect
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise SensitivityError("tipping result is not finite")

    @property
    def whole_confounders(self) -> int:
        """For a confounder count, the fewest whole confounders that strictly
        flip the effect: the smallest whole number above ``value``.  A count
        that is already whole only drives the effect to zero."""
        return math.floor(self.value) + 1


@dataclass(frozen=True)
class TipInput:
    """Inputs for the tipping scenarios; the optional fields required depend
    on which quantity is being solved for."""

    observed_effect: float
    confounder_outcome_effect: float | None = None
    confounder_smd: float | None = None

    def __post_init__(self):
        if self.confounder_outcome_effect is None and self.confounder_smd is None:
            raise SensitivityError(
                "provide at least one of the confounder effect or its SMD"
            )


def adjusted_effect(
    observed: float, smd: float, outcome_effect: float, n_confounders: int = 1
) -> TipResult:
    """Observed effect corrected for ``n_confounders`` identical confounders."""
    if n_confounders < 1:
        raise SensitivityError("confounder count must be at least 1")
    value = observed - n_confounders * smd * outcome_effect
    return TipResult("adjusted_effect", value)


def tip_smd(observed: float, outcome_effect: float) -> TipResult:
    """SMD toward the treatment that would drive the adjusted effect to zero."""
    if outcome_effect == 0:
        raise SensitivityError("outcome effect must be nonzero to solve for the SMD")
    return TipResult("smd_needed", observed / outcome_effect)


def tip_outcome_effect(observed: float, smd: float) -> TipResult:
    """Confounder-outcome effect that would drive the adjusted effect to zero."""
    if smd == 0:
        raise SensitivityError("SMD must be nonzero to solve for the outcome effect")
    return TipResult("outcome_effect_needed", observed / smd)


def tip_n_confounders(observed: float, smd: float, outcome_effect: float) -> TipResult:
    """How many identical confounders of the given strength cancel the effect.

    Returned as a real number; :attr:`TipResult.whole_confounders` is its
    whole-confounder reading.
    """
    if observed == 0:
        raise SensitivityError("the observed effect is zero; there is no sign to flip")
    if smd == 0 or outcome_effect == 0:
        raise SensitivityError("smd * outcome_effect must be nonzero")
    # observed / (smd * outcome_effect) on the mantissas, then the exponents:
    # the same bits wherever the product and the count are normal floats, and
    # out of range only where the count itself is (the product alone may
    # underflow to 0 or overflow while the count is finite).
    (m_obs, e_obs), (m_smd, e_smd), (m_eff, e_eff) = map(
        math.frexp, (observed, smd, outcome_effect)
    )
    scaled = m_obs / (m_smd * m_eff)
    if scaled < 0:
        raise SensitivityError(
            "confounding of this sign pushes the effect away from zero; no count can tip it"
        )
    try:
        count = math.ldexp(scaled, e_obs - e_smd - e_eff)
    except OverflowError:
        count = math.inf  # TipResult refuses it as not finite
    return TipResult("n_confounders_needed", count)


def tipping_report(tip: TipInput) -> dict:
    """Three-scenario summary: solve for the SMD given the outcome effect, for
    the outcome effect given the SMD, and for the confounder count given both."""
    scenarios = []
    if tip.confounder_outcome_effect is not None:
        scenarios.append({
            "given": {"outcome_effect": tip.confounder_outcome_effect},
            "kind": "smd_needed",
            "value": tip_smd(tip.observed_effect, tip.confounder_outcome_effect).value,
        })
    if tip.confounder_smd is not None:
        scenarios.append({
            "given": {"smd": tip.confounder_smd},
            "kind": "outcome_effect_needed",
            "value": tip_outcome_effect(tip.observed_effect, tip.confounder_smd).value,
        })
    if tip.confounder_outcome_effect is not None and tip.confounder_smd is not None:
        count = tip_n_confounders(
            tip.observed_effect, tip.confounder_smd, tip.confounder_outcome_effect
        )
        scenarios.append({
            "given": {
                "smd": tip.confounder_smd,
                "outcome_effect": tip.confounder_outcome_effect,
            },
            "kind": "n_confounders_needed",
            "value": count.value,
            "whole_confounders": count.whole_confounders,
        })
    return {"observed_effect": tip.observed_effect, "scenarios": scenarios}


@dataclass(frozen=True)
class TippingPoint:
    """One point on a tipping locus: smd * outcome_effect equals the observed effect."""

    observed: float
    smd: float
    outcome_effect: float


def tipping_grid(
    observed_effects: Sequence[float],
    smd_range: Sequence[float],
    effect_range: Sequence[float],
) -> list[TippingPoint]:
    """Plot-ready tipping curves, one locus per observed effect.

    Each locus is traced twice, parametrized by the SMD values and by the
    outcome-effect values; zero entries are skipped as divisors.
    """
    if not observed_effects or not smd_range or not effect_range:
        raise SensitivityError("observed effects and both ranges must be nonempty")
    rows = []
    for observed in observed_effects:
        for smd in smd_range:
            if smd != 0:
                rows.append(TippingPoint(observed, smd, observed / smd))
        for effect in effect_range:
            if effect != 0:
                rows.append(TippingPoint(observed, observed / effect, effect))
    return rows


@dataclass(frozen=True)
class EValueInput:
    """A fitted treatment effect plus the scale quantities the E-value needs:
    the coefficient's standard error, the residual standard deviation, and
    the treatment change of interest ``delta``."""

    estimate: float
    std_error: float
    residual_sd: float
    delta: float

    def __post_init__(self):
        if self.std_error < 0:
            raise SensitivityError("standard error must be nonnegative")
        if not self.residual_sd > 0:
            raise SensitivityError("residual standard deviation must be positive")
        if not self.delta > 0:
            raise SensitivityError("delta must be positive")


@dataclass(frozen=True)
class EValueResult:
    """Point E-value, plus the confidence-limit E-value when requested."""

    point: float
    ci_bound: float | None = None


def _evalue_from_effect(effect: float, delta: float, residual_sd: float) -> float:
    d = effect * delta / residual_sd
    if not math.isfinite(d):
        raise SensitivityError("E-value overflow: standardized effect too large")
    # Effects below the null invert the risk ratio, so computing from |d|
    # is equivalent and keeps the sign symmetry exact in floating point.
    try:
        rr = math.exp(0.91 * abs(d))
    except OverflowError:
        raise SensitivityError("E-value overflow: standardized effect too large") from None
    return rr + math.sqrt(rr * (rr - 1.0))


def evalue_ols(params: EValueInput, use_ci: bool = False) -> EValueResult:
    """E-value of a fitted effect; optionally also for the 95% limit closer to
    the null (clamped to 1 when the confidence interval crosses zero)."""
    point = _evalue_from_effect(params.estimate, params.delta, params.residual_sd)
    ci_bound = None
    if use_ci:
        low = params.estimate - 1.96 * params.std_error
        high = params.estimate + 1.96 * params.std_error
        if low <= 0.0 <= high:
            ci_bound = 1.0
        else:
            near_null = low if params.estimate > 0 else high
            ci_bound = _evalue_from_effect(near_null, params.delta, params.residual_sd)
    return EValueResult(point, ci_bound)


@dataclass(frozen=True)
class EValuePoint:
    label: str
    delta: float
    evalue: float


def evalue_curve(
    fits: Sequence[tuple[str, float, float, float]],
    deltas: Sequence[float],
) -> list[EValuePoint]:
    """Point E-values over a delta sweep for several fits.

    ``fits`` holds (label, estimate, std_error, residual_sd) tuples; deltas
    must lie in (0, 1].
    """
    if not fits or not len(deltas):
        raise SensitivityError("need at least one fit and one delta")
    deltas = [float(d) for d in deltas]
    if any(not 0 < d <= 1 for d in deltas):
        raise SensitivityError("deltas must lie in (0, 1]")
    rows = []
    for label, estimate, std_error, residual_sd in fits:
        for delta in deltas:
            result = evalue_ols(EValueInput(estimate, std_error, residual_sd, delta))
            rows.append(EValuePoint(str(label), delta, result.point))
    return rows


def evalue_curve_csv(rows: Iterable[EValuePoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("label", "delta", "evalue"))
    for row in rows:
        writer.writerow((row.label, repr(row.delta), repr(row.evalue)))
    return buf.getvalue()
