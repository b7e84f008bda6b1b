import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovbkit.sensitivity import (
    EValueInput,
    SensitivityError,
    TipInput,
    adjusted_effect,
    evalue_curve,
    evalue_curve_csv,
    evalue_ols,
    tip_n_confounders,
    tip_outcome_effect,
    tip_smd,
    tipping_grid,
    tipping_report,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-6)


class TestAdjustedEffect:
    def test_null_confounder_changes_nothing(self):
        assert adjusted_effect(-0.052, 0.0, 0.835).value == -0.052

    def test_tip_boundary(self):
        result = adjusted_effect(-0.052, -0.062, 0.835)
        assert abs(result.value) < 0.001

    def test_two_confounders_nearly_cancel(self):
        result = adjusted_effect(-0.052, -0.15, 0.17, n_confounders=2)
        assert result.value == pytest.approx(-0.001, abs=1e-12)

    def test_bad_count(self):
        with pytest.raises(SensitivityError):
            adjusted_effect(1.0, 0.1, 0.1, n_confounders=0)


class TestTippingSolvers:
    def test_reference_scenarios(self):
        assert tip_smd(-0.052, 0.835).value == pytest.approx(-0.062, abs=0.0005)
        assert tip_outcome_effect(-0.052, -1.545).value == pytest.approx(0.034, abs=0.0005)
        assert tip_n_confounders(-0.052, -0.15, 0.17).value == pytest.approx(2.04, abs=0.02)

    def test_zero_observed_effect(self):
        assert tip_smd(0.0, 0.5).value == 0.0
        assert tip_outcome_effect(0.0, -2.0).value == 0.0

    @pytest.mark.parametrize("observed", [0.0, -0.0])
    def test_zero_observed_effect_has_no_count(self, observed):
        # Confounding of either sign would be said to push the effect away
        # from zero; the true reason is that there is no sign to flip.
        for smd in (0.5, -0.5):
            with pytest.raises(SensitivityError, match="^the observed effect is zero; "
                                                      "there is no sign to flip$"):
                tip_n_confounders(observed, smd, 0.4)

    def test_count_is_out_of_range_only_when_the_count_is(self):
        # smd * effect underflows to 0 although neither factor is 0; the count,
        # 3e399, is beyond the largest float.
        with pytest.raises(SensitivityError, match="^tipping result is not finite$"):
            tip_n_confounders(0.3, 1e-200, 1e-200)
        # smd * effect overflows while the count is an ordinary float.
        assert tip_n_confounders(1e-300, 1e200, 1e200).value == 0.0
        assert tip_n_confounders(1e300, 1e-300, 1e300).value == 1e300
        # The sign test survives an underflowing count.
        with pytest.raises(SensitivityError, match="^confounding of this sign"):
            tip_n_confounders(-1e-300, 1e200, 1e200)

    @settings(max_examples=500)
    @given(nonzero, nonzero, nonzero)
    def test_count_has_the_bits_of_one_division_by_the_product(self, observed, smd, effect):
        count = observed / (smd * effect)
        if count > 0:
            assert tip_n_confounders(observed, smd, effect).value == count

    def test_hand_arithmetic(self):
        assert tip_smd(0.10, 0.50).value == pytest.approx(0.20)
        assert tip_outcome_effect(0.10, 0.20).value == pytest.approx(0.50)
        assert tip_n_confounders(0.30, 0.10, 0.30).value == pytest.approx(10.0)
        assert tip_n_confounders(-0.052, -0.052, 1.0).value == pytest.approx(1.0)

    def test_degenerate_inputs(self):
        with pytest.raises(SensitivityError):
            tip_smd(0.1, 0.0)
        with pytest.raises(SensitivityError):
            tip_outcome_effect(0.1, 0.0)
        with pytest.raises(SensitivityError):
            tip_n_confounders(0.1, 0.0, 0.5)
        # confounding pointing away from zero can never tip
        with pytest.raises(SensitivityError):
            tip_n_confounders(-0.052, 0.15, 0.17)

    @settings(max_examples=200)
    @given(nonzero, nonzero)
    def test_smd_round_trip(self, observed, effect):
        smd = tip_smd(observed, effect).value
        assert abs(adjusted_effect(observed, smd, effect).value) <= 1e-12 * max(1.0, abs(observed))

    @settings(max_examples=200)
    @given(nonzero, nonzero)
    def test_outcome_effect_round_trip(self, observed, smd):
        effect = tip_outcome_effect(observed, smd).value
        assert abs(adjusted_effect(observed, smd, effect).value) <= 1e-12 * max(1.0, abs(observed))

    @settings(max_examples=200)
    @given(nonzero, st.floats(min_value=0.1, max_value=10.0))
    def test_scale_property(self, observed, scale):
        base = tip_smd(observed, 0.5).value
        assert tip_smd(scale * observed, 0.5).value == pytest.approx(scale * base, rel=1e-12)


class TestTippingReport:
    def test_three_scenario_layout(self):
        report = tipping_report(
            TipInput(-0.052, confounder_outcome_effect=0.17, confounder_smd=-0.15)
        )
        kinds = [s["kind"] for s in report["scenarios"]]
        assert kinds == ["smd_needed", "outcome_effect_needed", "n_confounders_needed"]
        assert report["scenarios"][2]["whole_confounders"] == 3

    def test_a_whole_count_needs_one_more_confounder_to_flip(self):
        # One confounder only cancels the effect; a second flips it.
        assert adjusted_effect(0.2, 0.5, 0.4, 1).value == 0.0
        assert tip_n_confounders(0.2, 0.5, 0.4).value == 1.0
        report = tipping_report(TipInput(0.2, confounder_outcome_effect=0.4, confounder_smd=0.5))
        assert report["scenarios"][2]["whole_confounders"] == 2
        assert adjusted_effect(0.2, 0.5, 0.4, 2).value < 0.0

    def test_requires_at_least_one_estimate(self):
        with pytest.raises(SensitivityError):
            TipInput(-0.052)

    def test_one_estimate_gives_its_one_scenario(self):
        effect_only = tipping_report(TipInput(-0.052, confounder_outcome_effect=0.17))
        smd_only = tipping_report(TipInput(-0.052, confounder_smd=-0.15))
        assert [s["kind"] for s in effect_only["scenarios"]] == ["smd_needed"]
        assert [s["kind"] for s in smd_only["scenarios"]] == ["outcome_effect_needed"]


class TestTippingGrid:
    def test_curve_passes_through_reference_points(self):
        rows = tipping_grid([-0.052], smd_range=[-1.545, -0.062], effect_range=[0.5])
        by_smd = {round(r.smd, 3): r.outcome_effect for r in rows if r.smd in (-1.545, -0.062)}
        assert by_smd[-1.545] == pytest.approx(0.034, abs=0.0005)
        assert by_smd[-0.062] == pytest.approx(0.835, abs=0.005)

    def test_degenerate_zero_effect(self):
        rows = tipping_grid([0.0], smd_range=[-1.0, 1.0], effect_range=[0.5])
        assert all(r.smd * r.outcome_effect == 0.0 for r in rows)

    def test_self_consistency(self):
        smds = [x / 10 for x in range(-20, 21) if x]
        effects = [x / 10 for x in range(1, 15)]
        rows = tipping_grid([-0.052, 0.1, 0.3], smds, effects)
        for row in rows:
            residual = adjusted_effect(row.observed, row.smd, row.outcome_effect).value
            assert abs(residual) <= 1e-9

    def test_empty_ranges_rejected(self):
        with pytest.raises(SensitivityError):
            tipping_grid([], [1.0], [1.0])
        with pytest.raises(SensitivityError):
            tipping_grid([0.1], [], [1.0])


class TestEValues:
    @pytest.mark.parametrize(
        "estimate,delta,expected,tol",
        [
            (0.1, 0.1, 1.10, 0.02),
            (0.3, 0.1, 1.20, 0.02),
            (0.5, 0.1, 1.26, 0.02),
            (0.1, 0.3, 1.19, 0.03),
            (0.3, 0.3, 1.39, 0.03),
            (0.5, 0.3, 1.54, 0.03),
            (0.1, 0.5, 1.26, 0.03),
            (0.3, 0.5, 1.55, 0.03),
            (0.5, 0.5, 1.80, 0.03),
        ],
    )
    def test_reference_grid(self, estimate, delta, expected, tol):
        result = evalue_ols(EValueInput(estimate, 0.0, 1.0, delta))
        assert result.point == pytest.approx(expected, abs=tol)

    def test_null_effect_needs_no_confounding(self):
        assert evalue_ols(EValueInput(0.0, 0.0, 1.0, 0.5)).point == 1.0

    @settings(max_examples=200)
    @given(st.floats(-50.0, 50.0), st.floats(0.01, 1.0), st.floats(0.5, 10.0))
    def test_sign_symmetry_and_floor(self, estimate, delta, sigma):
        plus = evalue_ols(EValueInput(estimate, 0.0, sigma, delta)).point
        minus = evalue_ols(EValueInput(-estimate, 0.0, sigma, delta)).point
        assert plus == pytest.approx(minus, rel=1e-12)
        assert plus >= 1.0

    def test_strictly_increasing_in_standardized_effect(self):
        values = [
            evalue_ols(EValueInput(b, 0.0, 1.0, 0.2)).point
            for b in [0.0, 0.1, 0.5, 1.0, 3.0]
        ]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_product_symmetry_with_common_sigma(self):
        lhs = evalue_ols(EValueInput(0.3, 0.0, 1.0, 0.5)).point
        rhs = evalue_ols(EValueInput(0.5, 0.0, 1.0, 0.3)).point
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_ci_bound(self):
        wide = evalue_ols(EValueInput(0.3, 0.2, 1.0, 0.3), use_ci=True)
        assert wide.ci_bound == 1.0  # interval crosses the null
        tight = evalue_ols(EValueInput(0.3, 0.05, 1.0, 0.3), use_ci=True)
        assert 1.0 < tight.ci_bound < tight.point
        exact = evalue_ols(EValueInput(0.3, 0.0, 1.0, 0.3), use_ci=True)
        assert exact.ci_bound == pytest.approx(exact.point)

    def test_negative_estimate_ci_uses_upper_limit(self):
        result = evalue_ols(EValueInput(-0.3, 0.05, 1.0, 0.3), use_ci=True)
        assert 1.0 < result.ci_bound < result.point

    def test_input_validation(self):
        with pytest.raises(SensitivityError):
            EValueInput(0.1, -0.1, 1.0, 0.1)
        with pytest.raises(SensitivityError):
            EValueInput(0.1, 0.0, 0.0, 0.1)
        with pytest.raises(SensitivityError):
            EValueInput(0.1, 0.0, 1.0, 0.0)

    def test_overflow_reported(self):
        with pytest.raises(SensitivityError):
            evalue_ols(EValueInput(1e306, 0.0, 1e-3, 1.0))


class TestEValueCurve:
    def test_ordered_across_effects_and_monotone_in_delta(self):
        deltas = [d / 100 for d in range(1, 51)]
        fits = [("small", 0.1, 0.0, 1.0), ("medium", 0.3, 0.0, 1.0), ("large", 0.5, 0.0, 1.0)]
        rows = evalue_curve(fits, deltas)
        assert len(rows) == 150
        curves = {label: [r.evalue for r in rows if r.label == label]
                  for label in ("small", "medium", "large")}
        for series in curves.values():
            assert series == sorted(series)
        for lo, hi in zip(curves["small"], curves["medium"]):
            assert lo < hi
        for lo, hi in zip(curves["medium"], curves["large"]):
            assert lo < hi

    def test_single_point_matches_evalue_ols(self):
        rows = evalue_curve([("t", 0.3, 0.0, 1.0)], [0.3])
        assert len(rows) == 1
        assert rows[0].evalue == pytest.approx(
            evalue_ols(EValueInput(0.3, 0.0, 1.0, 0.3)).point
        )
        assert rows[0].evalue == pytest.approx(1.39, abs=0.02)

    def test_delta_domain_enforced(self):
        # Both ends are refused by the curve's own check, before any E-value.
        with pytest.raises(SensitivityError, match=r"^deltas must lie in \(0, 1\]$"):
            evalue_curve([("t", 0.3, 0.0, 1.0)], [0.0])
        with pytest.raises(SensitivityError, match=r"^deltas must lie in \(0, 1\]$"):
            evalue_curve([("t", 0.3, 0.0, 1.0)], [1.2])
        with pytest.raises(SensitivityError):
            evalue_curve([], [0.1])

    def test_csv_header(self):
        text = evalue_curve_csv(evalue_curve([("t", 0.3, 0.0, 1.0)], [0.1]))
        assert text.splitlines()[0] == "label,delta,evalue"
