import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import lapack_normal_equations
from ovbkit.stats import (
    Dataset,
    Interval,
    RankDeficiencyError,
    StatsError,
    _stacked_least_squares,
    hpdi,
    ols_fit,
    parse_csv_bytes,
    parse_value_groups,
    read_csv,
    scaled_mean_diff,
    solve_normal_equations,
)


def make_dataset(**columns):
    names = tuple(columns)
    return Dataset(names, np.column_stack([np.asarray(columns[n], float) for n in names]))


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(StatsError):
            make_dataset(x=[1.0, float("nan")])

    def test_rejects_duplicate_columns(self):
        with pytest.raises(StatsError):
            Dataset(("a", "a"), np.zeros((2, 2)))

    def test_values_are_immutable(self):
        data = make_dataset(x=[1.0, 2.0])
        with pytest.raises(ValueError):
            data.values[0, 0] = 9.0

    def test_unknown_column(self):
        with pytest.raises(StatsError):
            make_dataset(x=[1.0]).column("y")


class TestCsv:
    def test_round_trip(self, tmp_path):
        data = make_dataset(x=[1.0, 2.5], y=[-3.0, 0.125])
        path = tmp_path / "t.csv"
        path.write_text(data.to_csv())
        loaded = read_csv(path)
        assert loaded.columns == data.columns
        assert (loaded.values == data.values).all()

    def test_quoted_fields(self):
        data = parse_csv_bytes('"x","y"\n"1","2"\n'.encode())
        assert data.columns == ("x", "y")
        assert data.values.tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_tokens_rejected(self, token):
        with pytest.raises(StatsError):
            parse_csv_bytes(f"x\n{token}\n".encode())

    def test_errors_carry_line_numbers(self):
        with pytest.raises(StatsError, match="line 3"):
            parse_csv_bytes("x,y\n1,2\n3\n".encode())
        with pytest.raises(StatsError, match="line 2"):
            parse_csv_bytes("x\nhello\n".encode())
        with pytest.raises(StatsError, match="header"):
            parse_csv_bytes("".encode())

    def test_line_numbers_are_physical_lines(self):
        # The quoted field spans lines 2-3, so the short row is on line 4.
        with pytest.raises(StatsError, match="^line 4: expected 2 fields, found 1$"):
            parse_csv_bytes(b'x,y\n"1\n",2\n3\n')
        with pytest.raises(StatsError, match="^line 4: non-numeric value 'a' in 'y'$"):
            parse_csv_bytes(b'x,y\n"1\n",2\n3,a\n')

    def test_oversized_field_names_its_line(self):
        text = "x,y\n1,2\n1," + "9" * 200_000 + "\n"
        with pytest.raises(StatsError) as caught:
            parse_csv_bytes(text.encode())
        assert str(caught.value) == "line 3: field larger than field limit (131072)"

    def test_leading_byte_order_mark_is_dropped(self):
        # Excel's "CSV UTF-8" starts with a BOM.
        data = parse_csv_bytes(b"\xef\xbb\xbfx,y\r\n1,2\r\n")
        assert data.columns == ("x", "y")
        assert data.column("x").tolist() == [1.0]

    def test_blank_lines_are_skipped(self):
        data = parse_csv_bytes(b"\nx , y\n\n1,2\n\n3,4\n")
        assert data.columns == ("x", "y")
        assert data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_duplicate_header_names_rejected(self):
        with pytest.raises(StatsError, match="duplicate column names"):
            parse_csv_bytes(b"x, x\n1,2\n")

    def test_empty_body(self):
        data = parse_csv_bytes(b"x,y\n")
        assert data.columns == ("x", "y")
        assert data.values.shape == (0, 2)


class TestValueGroups:
    def test_reads_values_and_tags(self):
        values, labels = parse_value_groups(b"g,v,w\na,1,x\n\nb,2.5,y\n", "v", "g")
        assert values == [1.0, 2.5]
        assert labels == ["a", "b"]

    @pytest.mark.parametrize("text, message", [
        ("v,g\n1,a\n2,a,extra\n", "line 3: expected 2 fields, found 3"),
        ("v,v\n1,a\n", "duplicate column names"),
        ("v,g\n1,a\nnan,b\n", "line 3: non-finite value 'nan' in 'v'"),
        ("v,g\nhello,a\n", "line 2: non-numeric value 'hello' in 'v'"),
        ("v,h\n1,a\n", "unknown column 'g'"),
        ("", "missing header row"),
    ])
    def test_same_rules_as_datasets(self, text, message):
        with pytest.raises(StatsError, match=message):
            parse_value_groups(text.encode(), "v", "g")


class TestOls:
    def test_exact_line(self):
        data = make_dataset(x=[0.0, 1.0, 2.0], y=[1.0, 3.0, 5.0])
        fit = ols_fit(data, "y", ["x"])
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-12)
        assert fit.sigma == pytest.approx(0.0, abs=1e-12)
        assert fit.n == 3

    def test_zero_noise_plane_recovered_to_1e9(self):
        rng = np.random.default_rng(5)
        x1, x2 = rng.normal(size=400), rng.normal(size=400)
        y = 2.0 + 3.0 * x1 - 1.5 * x2
        fit = ols_fit(make_dataset(x1=x1, x2=x2, y=y), "y", ["x1", "x2"])
        assert fit.intercept == pytest.approx(2.0, abs=1e-9)
        assert fit.coefficients["x1"] == pytest.approx(3.0, abs=1e-9)
        assert fit.coefficients["x2"] == pytest.approx(-1.5, abs=1e-9)
        assert fit.sigma < 1e-9

    def test_predictor_order_does_not_matter(self):
        rng = np.random.default_rng(6)
        data = make_dataset(
            a=rng.normal(size=200),
            b=rng.normal(size=200),
            y=rng.normal(size=200),
        )
        forward = ols_fit(data, "y", ["a", "b"])
        backward = ols_fit(data, "y", ["b", "a"])
        for name in ("a", "b"):
            assert forward.coefficients[name] == pytest.approx(backward.coefficients[name])
            assert forward.std_errors[name] == pytest.approx(backward.std_errors[name])
        assert json.dumps(forward.to_json_dict(), indent=2) == json.dumps(
            backward.to_json_dict(), indent=2
        )

    def test_agrees_with_statsmodels(self):
        sm = pytest.importorskip("statsmodels.api")
        rng = np.random.default_rng(7)
        x1, x2 = rng.normal(size=300), rng.normal(size=300)
        y = 0.5 + 1.2 * x1 - 0.4 * x2 + rng.normal(size=300)
        fit = ols_fit(make_dataset(x1=x1, x2=x2, y=y), "y", ["x1", "x2"])
        reference = sm.OLS(y, sm.add_constant(np.column_stack([x1, x2]))).fit()
        assert fit.intercept == pytest.approx(reference.params[0], abs=1e-10)
        assert fit.coefficients["x1"] == pytest.approx(reference.params[1], abs=1e-10)
        assert fit.coefficients["x2"] == pytest.approx(reference.params[2], abs=1e-10)
        assert fit.std_errors["x1"] == pytest.approx(reference.bse[1], abs=1e-10)
        assert fit.std_errors["x2"] == pytest.approx(reference.bse[2], abs=1e-10)
        assert fit.sigma == pytest.approx(np.sqrt(reference.mse_resid), abs=1e-10)

    def test_agrees_with_numpy_lstsq(self):
        rng = np.random.default_rng(8)
        x1, x2 = rng.normal(size=300), rng.normal(size=300)
        y = 0.5 + 1.2 * x1 - 0.4 * x2 + rng.normal(size=300)
        fit = ols_fit(make_dataset(x1=x1, x2=x2, y=y), "y", ["x1", "x2"])
        design = np.column_stack([np.ones(300), x1, x2])
        coef, rss, _, _ = np.linalg.lstsq(design, y, rcond=None)
        sigma2 = rss[0] / (300 - 3)
        # (XtX)^-1 = pinv(X) pinv(X)t, so the SVD path gives independent errors.
        errors = np.sqrt(sigma2 * np.sum(np.linalg.pinv(design) ** 2, axis=1))
        assert fit.intercept == pytest.approx(coef[0], abs=1e-10)
        assert fit.coefficients["x1"] == pytest.approx(coef[1], abs=1e-10)
        assert fit.coefficients["x2"] == pytest.approx(coef[2], abs=1e-10)
        assert fit.std_errors["x1"] == pytest.approx(errors[1], abs=1e-10)
        assert fit.std_errors["x2"] == pytest.approx(errors[2], abs=1e-10)
        assert fit.sigma == pytest.approx(np.sqrt(sigma2), abs=1e-10)

    @pytest.mark.parametrize("noise, collinear", [(1e-9, True), (1e-3, False)])
    def test_relative_pivot_rule_on_near_collinear_columns(self, noise, collinear):
        # The second column's pivot is about n * noise**2 against a largest
        # diagonal of about n, so 1e-9 falls under the 1e-10 rule and 1e-3 does not.
        rng = np.random.default_rng(9)
        x = rng.normal(size=200)
        data = make_dataset(x=x, x2=x + noise * rng.normal(size=200), y=x + rng.normal(size=200))
        if collinear:
            with pytest.raises(RankDeficiencyError):
                ols_fit(data, "y", ["x", "x2"])
        else:
            fit = ols_fit(data, "y", ["x", "x2"])
            assert np.isfinite(fit.std_errors["x2"])

    def test_rank_deficiency_detected(self):
        x = np.arange(10.0)
        data = make_dataset(x=x, x2=2 * x, y=x + 1)
        with pytest.raises(RankDeficiencyError):
            ols_fit(data, "y", ["x", "x2"])

    def test_insufficient_rows(self):
        data = make_dataset(x=[1.0, 2.0], y=[1.0, 2.0])
        with pytest.raises(StatsError):
            ols_fit(data, "y", ["x"])

    def test_unknown_column_and_duplicates(self):
        data = make_dataset(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0])
        with pytest.raises(StatsError):
            ols_fit(data, "y", ["q"])
        with pytest.raises(StatsError):
            ols_fit(data, "y", ["x", "x"])
        with pytest.raises(StatsError):
            ols_fit(data, "y", ["x", "y"])

    def test_json_key_order_is_stable(self):
        data = make_dataset(
            b=[1.0, 2.0, 4.0, 0.5], a=[0.0, 1.0, -1.0, 2.0], y=[1.0, 0.0, 2.0, 1.5]
        )
        payload = json.loads(json.dumps(ols_fit(data, "y", ["b", "a"]).to_json_dict(), indent=2))
        assert list(payload["coefficients"]) == ["a", "b"]
        assert list(payload) == ["n", "intercept", "coefficients", "std_errors", "sigma"]


def _near_collinear_design(rng, n: int, p: int) -> np.ndarray:
    """A transposed (p, n) design: an intercept row and normal rows, where
    about 70% of designs copy one row onto another plus noise of 1e-12 to 1e-1."""
    design = np.vstack([np.ones(n), rng.standard_normal((p - 1, n))])
    if rng.random() < 0.7:
        src, dst = rng.choice(p, 2, replace=False)
        if dst == 0:
            src, dst = dst, src  # keep the intercept row
        design[dst] = design[src] + 10.0 ** rng.uniform(-12, -1) * rng.standard_normal(n)
    return design


def _near_collinear_stacks(rng) -> dict[tuple[int, int], np.ndarray]:
    """10,000 transposed designs of n 6-59 and p 2-6, stacked by shape."""
    stacks: dict[tuple[int, int], list[np.ndarray]] = {}
    for _ in range(10_000):
        n, p = int(rng.integers(6, 60)), int(rng.integers(2, 7))
        stacks.setdefault((n, p), []).append(_near_collinear_design(rng, n, p))
    return {shape: np.stack(designs) for shape, designs in stacks.items()}


class TestSolveNormalEquations:
    def test_same_decision_and_coefficients_as_lapack(self):
        rng = np.random.default_rng(10)
        outcomes = {True: 0, False: 0}
        for (n, p), designs in _near_collinear_stacks(rng).items():
            for design in designs:
                response = rng.standard_normal(n)
                expected = lapack_normal_equations(design.T, response)
                outcomes[expected is not None] += 1
                if expected is None:
                    with pytest.raises(RankDeficiencyError, match="rank deficient"):
                        solve_normal_equations(design.T, response)
                    continue
                coef, lower = solve_normal_equations(design.T, response)
                gram = design @ design.T
                assert np.array_equal(lower, np.tril(lower))
                assert np.abs(lower @ lower.T - gram).max() <= 1e-12 * np.abs(gram).max()
                # Both solvers are backward stable, so they may differ by about
                # eps times the condition number of XtX, which reaches 1e10
                # just inside the pivot rule.
                bound = 1e-14 * np.linalg.cond(gram) * np.linalg.norm(expected)
                assert np.linalg.norm(coef - expected) <= bound, (n, p)
        assert min(outcomes.values()) > 2_000


class TestStackedLeastSquares:
    def test_same_decision_as_solve_normal_equations(self):
        rng = np.random.default_rng(11)
        outcomes = {True: 0, False: 0}
        for (n, p), design in _near_collinear_stacks(rng).items():
            response = rng.standard_normal((len(design), n))
            coef, solved = _stacked_least_squares(design, response)
            for k in range(len(design)):
                expected = lapack_normal_equations(design[k].T, response[k]) is not None
                assert solved[k] == expected, (n, p, k)
                outcomes[expected] += 1
            assert np.isfinite(coef[solved]).all()
        # Both decisions occur often, so agreement is not trivial.
        assert min(outcomes.values()) > 2_000

    def test_coefficients_match_on_well_conditioned_designs(self):
        rng = np.random.default_rng(12)
        for n, p in [(6, 2), (12, 6), (50, 6), (59, 4), (2_000, 3)]:
            design = np.concatenate(
                [np.ones((40, 1, n)), rng.standard_normal((40, p - 1, n))], axis=1
            )
            response = rng.standard_normal((40, n)) + design[:, 1]
            coef, solved = _stacked_least_squares(design, response)
            assert solved.all()
            for k in range(40):
                expected = lapack_normal_equations(design[k].T, response[k])
                assert np.linalg.norm(coef[k] - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_fewer_rows_than_parameters_is_minimum_norm_lstsq(self):
        rng = np.random.default_rng(13)
        for n, p in [(1, 2), (3, 6), (5, 6), (2, 4)]:
            design = np.concatenate(
                [np.ones((30, 1, n)), rng.standard_normal((30, p - 1, n))], axis=1
            )
            design[0, -1] = design[0, 1]  # the first design repeats a row when p > 2
            response = rng.standard_normal((30, n))
            coef, solved = _stacked_least_squares(design, response)
            assert solved.all()
            for k in range(30):
                expected = np.linalg.lstsq(design[k].T, response[k], rcond=None)[0]
                assert np.linalg.norm(coef[k] - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_fewer_rows_than_parameters_keeps_lstsq_cutoff(self):
        # A nearly repeated sample leaves a singular value near 1e-10 of the
        # largest.  lstsq keeps it, so the solution is huge; a larger cutoff
        # would drop it and give an O(1) solution.  With a condition number
        # near 1e10 the two solvers agree to about 1e-6, not 1e-10.
        rng = np.random.default_rng(14)
        design = np.concatenate([np.ones((20, 1, 3)), rng.standard_normal((20, 5, 3))], axis=1)
        design[:, 1:, 1] = design[:, 1:, 0] + 1e-9 * rng.standard_normal((20, 5))
        response = rng.standard_normal((20, 3))
        coef, _ = _stacked_least_squares(design, response)
        for k in range(20):
            expected = np.linalg.lstsq(design[k].T, response[k], rcond=None)[0]
            assert np.linalg.norm(expected) > 1e6
            assert np.linalg.norm(coef[k] - expected) <= 1e-4 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [5, 10, 50], ids=["n<p", "n=10", "n=50"])
    def test_non_finite_designs_are_unsolved(self, monkeypatch, n):
        # The sweep's shape: an intercept and five predictors.  Regressions
        # 0-3 get one inf, NaN, 1e200 or 1e308 entry.  Regression 4 gets two
        # columns at 1.3e154 in one row: each column's sum of squares is
        # finite, the design's total is not.  Regression 5 has a finite
        # design but an infinite outcome, so its coefficients are not finite.
        rng = np.random.default_rng(15)
        clean = np.concatenate([np.ones((12, 1, n)), rng.standard_normal((12, 5, n))], axis=1)
        response = rng.standard_normal((12, n))
        design = clean.copy()
        for k, value in enumerate([np.inf, np.nan, 1e200, 1e308]):
            design[k, k + 1, 0] = value
        design[4, 1:3, 1] = 1.3e154
        outcome = response.copy()
        outcome[5, 2] = np.inf
        pinv, designs = np.linalg.pinv, []

        def finite_only(a, *args, **kwargs):
            assert np.isfinite(a).all()
            designs.append(len(a))
            return pinv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", finite_only)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected, expected_solved = _stacked_least_squares(clean, response)
            coef, solved = _stacked_least_squares(design, outcome)
        assert designs == ([12, 12] if n < 6 else [])
        assert not solved[:6].any()
        assert expected_solved.all()
        assert solved[6:].all()
        assert coef[6:].tobytes() == expected[6:].tobytes()
        assert np.isfinite(coef[solved]).all()


class TestHpdi:
    def test_all_equal(self):
        assert hpdi([7.0] * 5, 0.5) == Interval(7.0, 7.0, 0.5)

    def test_earliest_narrowest_window(self):
        assert hpdi([1, 2, 3, 4, 100], 0.6) == Interval(1.0, 3.0, 0.6)

    def test_tie_breaks_to_earliest(self):
        assert hpdi(range(10), 0.5) == Interval(0.0, 4.0, 0.5)

    def test_full_mass_is_min_max(self):
        assert hpdi([3.0, -1.0, 10.0], 1.0) == Interval(-1.0, 10.0, 1.0)

    def test_windows_wider_than_the_largest_float(self):
        # Both windows span more than 1.8e308; the later one is narrower.
        samples = [-1.7e308, -0.9e308, 0.5e308, 0.95e308]
        with np.errstate(all="raise"):
            assert hpdi(samples, 0.75) == Interval(-0.9e308, 0.95e308, 0.75)
            assert hpdi([9.9e307, -1.1e308], 0.95) == Interval(-1.1e308, 9.9e307, 0.95)

    def test_errors(self):
        with pytest.raises(StatsError):
            hpdi([], 0.5)
        with pytest.raises(StatsError):
            hpdi([1.0], 0.0)
        with pytest.raises(StatsError):
            hpdi([1.0], 1.5)

    @settings(max_examples=100)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40), st.floats(0.05, 1.0))
    def test_permutation_invariant(self, samples, mass):
        assert hpdi(samples, mass) == hpdi(list(reversed(samples)), mass)

    @settings(max_examples=100)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40), st.floats(0.05, 1.0))
    def test_window_really_is_narrowest(self, samples, mass):
        import math

        interval = hpdi(samples, mass)
        arr = sorted(samples)
        k = max(1, math.ceil(mass * len(arr) - 1e-9))
        best = min(arr[i + k - 1] - arr[i] for i in range(len(arr) - k + 1))
        assert interval.width == pytest.approx(best)


class TestScaledMeanDiff:
    def test_identical_groups(self):
        values = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        labels = ["a"] * 3 + ["b"] * 3
        assert scaled_mean_diff(values, labels, "a", "b") == 0.0

    def test_hand_computed(self):
        values = [2.0, 3.0, 4.0, 0.0, 1.0, 2.0]
        labels = ["t"] * 3 + ["r"] * 3
        assert scaled_mean_diff(values, labels, "t", "r") == pytest.approx(2.0)
        assert scaled_mean_diff(values, labels, "r", "t") == pytest.approx(-2.0)

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=30)
        labels = ["x"] * 15 + ["y"] * 15
        forward = scaled_mean_diff(values, labels, "x", "y")
        assert scaled_mean_diff(values, labels, "y", "x") == pytest.approx(-forward)

    @pytest.mark.parametrize("exponent", [-900, -500, 500, 1000])
    def test_power_of_two_scale_keeps_the_bits(self, exponent):
        # At 2**1000 the squared deviations overflow; at 2**-900 they underflow.
        rng = np.random.default_rng(9)
        values = rng.normal(size=40) + 0.3
        labels = ["t", "r"] * 20
        expected = scaled_mean_diff(values, labels, "t", "r")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = scaled_mean_diff(np.ldexp(values, exponent), labels, "t", "r")
        assert scaled == expected

    def test_degenerate_groups(self):
        with pytest.raises(StatsError):
            scaled_mean_diff([1.0, 2.0, 3.0], ["a", "a", "b"], "a", "b")
        with pytest.raises(StatsError):
            scaled_mean_diff([1.0, 1.0, 2.0, 3.0], ["a", "a", "b", "b"], "a", "b")
        with pytest.raises(StatsError):
            scaled_mean_diff([1.0, 2.0], ["a", "a"], "a", "zzz")

    def test_same_group_twice_is_refused(self):
        values, labels = [1.0, 2.0, 3.0, 5.0], ["a", "a", "b", "b"]
        with pytest.raises(StatsError, match="treat and reference are the same group 'a'"):
            scaled_mean_diff(values, labels, "a", "a")


class TestInterval:
    def test_invariants(self):
        with pytest.raises(StatsError):
            Interval(2.0, 1.0, 0.5)
        with pytest.raises(StatsError):
            Interval(0.0, 1.0, 0.0)

    def test_containment(self):
        outer = Interval(0.0, 10.0, 0.95)
        assert outer.contains(Interval(1.0, 9.0, 0.5))
        assert outer.contains(5.0)
        assert not outer.contains(Interval(-1.0, 5.0, 0.5))
