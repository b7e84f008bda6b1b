import itertools
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from _oracles import row_sampled_grams
from ovbkit import scm
from ovbkit.dag import CausalDag
from ovbkit.scm import (
    BernoulliExogenous,
    LinearGaussian,
    ScmError,
    ScmSpec,
    SweepConfig,
    confounded_scm,
    direct_effect_scm,
    expected_treatment_estimate,
    parse_sweep_config,
    run_sweep,
    sample,
    team_effort_template,
)
from ovbkit.scm import _draw_grams, _gram_estimates, _noise_map, _rng_from, _sample_columns

SMALL_CONFIG = """
param.b_e = 0.3
param.b_s = 0.3
param.k_e = 0.1
param.k_s = 0.1
param.o_e = 0.5
param.o_t = 0.5
param.s_e = -0.1
param.s_t = -0.1
grid.t_e = 0.3
grid.z_e = 0.1, 0.5
grid.z_t = 0.1
n = 5, 20
repetitions = 40
seed = 99
outcome = E
predictors = T, B, K, O, S
"""


class TestBuildScm:
    def test_direct_effect_model(self):
        spec = direct_effect_scm()
        assert set(spec.mechanisms) == {"X", "Y"}
        assert spec.order == ("X", "Y")

    def test_team_effort_template_binds(self):
        template = team_effort_template()
        assert len(template.parameters) == 11
        values = dict.fromkeys(template.parameters, 0.1)
        spec = template.bind(values)
        assert set(spec.mechanisms) == {"B", "K", "O", "Z", "S", "T", "E"}
        assert spec.dag.latent == {"Z"}

    def test_bind_rejects_bad_parameter_sets(self):
        template = team_effort_template()
        with pytest.raises(ScmError):
            template.bind({})
        values = dict.fromkeys(template.parameters, 0.1)
        with pytest.raises(ScmError):
            template.bind({**values, "bogus": 1.0})

    def test_mechanism_validation(self):
        dag = CausalDag.from_edges([("X", "Y")])
        with pytest.raises(ScmError):
            ScmSpec(dag, {"X": LinearGaussian(0, {}, 1)})  # missing Y
        with pytest.raises(ScmError):
            ScmSpec(dag, {
                "X": LinearGaussian(0, {}, 1),
                "Y": LinearGaussian(0, {}, 1),  # missing parent weight
            })
        with pytest.raises(ScmError):
            ScmSpec(dag, {
                "X": LinearGaussian(0, {"Y": 1.0}, 1),  # weight for non-parent
                "Y": LinearGaussian(0, {"X": 1.0}, 1),
            })
        with pytest.raises(ScmError):
            ScmSpec(dag, {
                "X": LinearGaussian(0, {}, 1),
                "Y": BernoulliExogenous(0.5),  # Bernoulli with a parent
            })
        with pytest.raises(ScmError):
            LinearGaussian(0, {}, 0.0)
        with pytest.raises(ScmError):
            BernoulliExogenous(1.5)

    def test_unbound_template_parameter_rejected_by_build(self):
        dag = CausalDag.from_edges([("X", "Y")])
        spec = ScmSpec(dag, {
            "X": LinearGaussian(0, {}, 1),
            "Y": LinearGaussian(0, {"X": "slope"}, 1),
        })
        with pytest.raises(ScmError):
            sample(spec, 10, seed=1)

    @pytest.mark.parametrize("mechanisms, message", [
        ({}, r"missing mechanism for node\(s\): \['X', 'Y'\]"),
        ({"X": LinearGaussian(0, {}, 1), "Y": LinearGaussian(0, {}, 1)},
         r"weights for 'Y' must cover exactly its parents \['X'\], got \[\]"),
        ({"X": LinearGaussian(0, {"Y": 1.0}, 1), "Y": LinearGaussian(0, {"X": 1.0}, 1)},
         r"weights for 'X' must cover exactly its parents \[\], got \['Y'\]"),
        ({"X": LinearGaussian(0, {}, 1), "Y": BernoulliExogenous(0.5)},
         r"Bernoulli node 'Y' cannot have parents"),
    ], ids=["no-mechanisms", "missing-parent-weight", "non-parent-weight",
            "bernoulli-with-parent"])
    def test_a_model_that_contradicts_its_dag_cannot_be_built(self, mechanisms, message):
        with pytest.raises(ScmError, match=f"^{message}$"):
            ScmSpec(CausalDag.from_edges([("X", "Y")]), mechanisms)

    @pytest.mark.parametrize("build, message", [
        (lambda: ScmSpec(CausalDag.from_edges([("X", "Y")]),
                         {"X": 1.0, "Y": LinearGaussian(0, {"X": 1.0}, 1)}),
         "mechanism for 'X' must be a BernoulliExogenous or a LinearGaussian, got 1.0"),
        (lambda: LinearGaussian(0, {"X": None}, 1),
         "weight for parent 'X' must be a real number or a parameter name, got None"),
        (lambda: BernoulliExogenous("0.5"),
         "Bernoulli probability must be a real number, got '0.5'"),
        (lambda: LinearGaussian(0, {}, "1"),
         "standard deviation must be a real number, got '1'"),
        (lambda: LinearGaussian(True, {}, 1),
         "intercept must be a real number, got True"),
        (lambda: LinearGaussian(math.nan, {}, 1), "intercept must be finite, got nan"),
        (lambda: LinearGaussian(0, {}, math.inf), "standard deviation must be finite, got inf"),
        (lambda: LinearGaussian(0, {}, 10**400),
         f"standard deviation must be finite, got {10**400!r}"),
        (lambda: LinearGaussian(0, {"X": -math.inf}, 1),
         "weight for parent 'X' must be finite, got -inf"),
        (lambda: BernoulliExogenous(math.nan), "Bernoulli probability must be finite, got nan"),
        (lambda: LinearGaussian(0, [("X", 1.0)], 1),
         "weights must be a mapping from parent name to weight, got [('X', 1.0)]"),
        (lambda: LinearGaussian(0, {1: 1.0, "X": 2.0}, 1),
         "weights must be a mapping from parent name to weight, got {1: 1.0, 'X': 2.0}"),
    ], ids=["float-mechanism", "none-weight", "string-probability", "string-sd",
            "bool-intercept", "nan-intercept", "infinite-sd", "int-sd-beyond-float",
            "infinite-weight", "nan-probability", "list-weights", "int-parent"])
    def test_values_of_the_wrong_type_are_refused(self, build, message):
        with pytest.raises(ScmError, match=f"^{re.escape(message)}$"):
            build()

    def test_sample_refuses_free_parameters(self):
        template = team_effort_template()
        with pytest.raises(ScmError, match=r"^unbound parameter\(s\): \['b_e', 'b_s', "):
            sample(template, 10, seed=1)
        bound = template.bind(dict.fromkeys(template.parameters, 0.1))
        assert sample(bound, 10, seed=1).values.shape == (10, 7)

    def test_weights_are_kept_in_parent_order(self):
        mech = LinearGaussian(0.0, {"Z": 1.0, "A": "a", "M": 2.0}, 1.0)
        assert list(mech.weights) == ["A", "M", "Z"]


class TestSampling:
    def test_same_seed_bit_identical(self):
        spec = confounded_scm()
        first = sample(spec, 500, seed=11)
        second = sample(spec, 500, seed=11)
        assert (first.values == second.values).all()
        third = sample(spec, 500, seed=12)
        assert not (first.values == third.values).all()

    def test_standardized_exogenous_moments(self):
        data = sample(direct_effect_scm(), 200_000, seed=21)
        x = data.column("X")
        assert abs(x.mean()) < 0.01
        assert abs(data.column("Y").mean()) < 0.01
        assert abs(x.std(ddof=1) - 1.0) < 0.01

    def test_bernoulli_values_and_effort_model_mean(self):
        template = team_effort_template()
        spec = template.bind({
            "b_e": 0.3, "b_s": 0.3, "k_e": 0.1, "k_s": 0.1,
            "o_e": 0.5, "o_t": 0.5, "s_e": -0.1, "s_t": -0.1,
            "t_e": 0.3, "z_e": 0.1, "z_t": 0.1,
        })
        data = sample(spec, 200_000, seed=31)
        for name in "BKO":
            assert set(np.unique(data.column(name))) <= {0.0, 1.0}
        # law of total expectation: E[T] = o_t * 0.5 + s_t * E[S], E[S] = 0.2
        assert data.column("T").mean() == pytest.approx(0.25 - 0.02, abs=0.02)
        assert data.columns == tuple(spec.order)

    def test_latents_included_in_output(self):
        spec = team_effort_template().bind(
            dict.fromkeys(team_effort_template().parameters, 0.2)
        )
        assert "Z" in sample(spec, 10, seed=1).columns

    def test_bad_requests(self):
        spec = direct_effect_scm()
        with pytest.raises(ScmError):
            sample(spec, 0, seed=1)
        with pytest.raises(ScmError):
            sample(spec, 10, seed=-4)


class TestConfigParsing:
    def test_bundled_table5(self):
        from ovbkit.fixtures import fixture_text

        config = parse_sweep_config(fixture_text("table5.conf"))
        assert config.grid_names == ("t_e", "z_e", "z_t")
        assert [len(v) for v in config.grid.values()] == [3, 6, 6]
        assert config.sample_sizes == (5, 10, 50)
        assert config.repetitions == 200
        assert config.outcome == "E"
        assert config.predictors == ("T", "B", "K", "O", "S")
        assert len(config.grid_points()) == 108

    def test_small_config(self):
        config = parse_sweep_config(SMALL_CONFIG)
        assert config.grid == {"t_e": (0.3,), "z_e": (0.1, 0.5), "z_t": (0.1,)}
        assert config.fixed["s_t"] == -0.1
        assert config.seed == 99

    @pytest.mark.parametrize(
        "mutation",
        [
            ("n = 5, 20", "bogus_key = 1"),           # unknown key
            ("grid.t_e = 0.3", "grid.t_e ="),         # empty list
            ("seed = 99", "seed = soon"),             # bad int
            ("grid.t_e = 0.3", "grid.nope = 0.3",     # unknown parameter
             r"unknown parameter\(s\): \['nope'\]"),
            ("param.s_t = -0.1", "", r"unbound parameter\(s\): \['s_t'\]"),  # not covered
            ("predictors = T, B, K, O, S", "predictors = T, Z"),  # latent predictor
            ("repetitions = 40", "repetitions = 0"),
            ("grid.z_t = 0.1", "param.z_t = 0.1\ngrid.z_t = 0.1"),  # both
            ("predictors = T, B, K, O, S", "predictors = T, B, T"),  # duplicate
            ("outcome = E", "outcome = Z",                # latent outcome
             "latent node cannot be the regression outcome: 'Z'"),
            ("n = 5, 20", f"n = 5, {2**63}",              # beyond numpy's counts
             f"sample sizes must be at most {2**63 - 1}, got {2**63}"),
        ],
    )
    def test_invalid_configs(self, mutation):
        old, new, *message = mutation  # an exact message where one is given
        with pytest.raises(ScmError, match=f"^{message[0]}$" if message else None):
            parse_sweep_config(SMALL_CONFIG.replace(old, new))

    def test_duplicate_key(self):
        lineno = SMALL_CONFIG.count("\n") + 2
        for key in ("seed", "grid.t_e", "param.s_t"):
            with pytest.raises(ScmError, match=f"^config line {lineno}: duplicate key '{key}'$"):
                parse_sweep_config(f"{SMALL_CONFIG}\n{key} = 0.5")

    def test_config_file_is_utf8_in_any_locale(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_bytes(("# effort model, café sample\n" + SMALL_CONFIG).encode("utf-8"))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        script = (
            "import sys; from ovbkit.scm import load_sweep_config; "
            "print(load_sweep_config(sys.argv[1]).seed)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "99"


class TestSweep:
    def test_deterministic_across_reruns(self):
        config = parse_sweep_config(SMALL_CONFIG)
        first = run_sweep(config)
        second = run_sweep(config)
        third = run_sweep(config)
        assert first.to_csv() == second.to_csv()
        assert first.to_csv() == third.to_csv()

    def test_cell_independent_of_later_grid_points(self):
        base = parse_sweep_config(SMALL_CONFIG)
        wider = parse_sweep_config(SMALL_CONFIG.replace("grid.z_t = 0.1", "grid.z_t = 0.1, 0.5"))
        lhs = run_sweep(base).cells[0]
        rhs = run_sweep(wider).cells[0]
        assert lhs.params == rhs.params and lhs.n == rhs.n
        assert lhs.mean == rhs.mean
        assert lhs.hpdi50 == rhs.hpdi50 and lhs.hpdi95 == rhs.hpdi95

    def test_interval_structure(self):
        result = run_sweep(parse_sweep_config(SMALL_CONFIG))
        assert len(result.cells) == 4
        for cell in result.cells:
            assert cell.hpdi95.contains(cell.hpdi50)
            if cell.n >= 10:
                assert cell.hpdi95.contains(cell.mean)
        for cell in result.cells:
            if cell.n == 5:
                partner = result.cell(20, **cell.params)
                assert cell.hpdi95.width > partner.hpdi95.width

    def test_csv_layout(self):
        result = run_sweep(parse_sweep_config(SMALL_CONFIG))
        lines = result.to_csv().splitlines()
        assert lines[0] == "t_e,z_e,z_t,n,mean,l50,u50,l95,u95,failures"
        assert len(lines) == 5
        assert all(line.count(",") == 9 for line in lines)

    def test_non_finite_draws_never_reach_the_solver(self, monkeypatch):
        # With z_t = 1e308 the treatment overflows to inf in some samples.
        # The n < p path takes an SVD, which may never return on inf, so
        # such draws must count as failed without reaching it.
        pinv = np.linalg.pinv
        fits = []

        def finite_only(design, *args, **kwargs):
            assert np.isfinite(design).all()
            fits.append(len(design))
            return pinv(design, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", finite_only)
        text = SMALL_CONFIG.replace("grid.z_t = 0.1", "grid.z_t = 1e308")
        result = run_sweep(parse_sweep_config(text.replace("n = 5, 20", "n = 5")))
        assert sum(fits) > 2 * 40  # the overflowed repetitions were redrawn
        assert all(cell.failed or np.isfinite(cell.mean) for cell in result.cells)

    def test_all_degenerate_draws_fail_the_cell(self):
        # A constant exogenous flag is always collinear with the intercept,
        # so every repetition exhausts its retries.
        dag = CausalDag.from_edges([("C", "Y"), ("X", "Y")])
        template = ScmSpec(dag, {
            "C": BernoulliExogenous(1.0),
            "X": LinearGaussian(0.0, {}, 1.0),
            "Y": LinearGaussian(0.0, {"C": 0.5, "X": "t"}, 1.0),
        })
        config = SweepConfig(
            template=template,
            grid={"t": (0.4,)},
            fixed={},
            sample_sizes=(25,),
            repetitions=20,
            outcome="Y",
            predictors=("X", "C"),
            seed=3,
        )
        result = run_sweep(config)
        (cell,) = result.cells
        assert cell.failed
        assert cell.failures == 20
        csv_line = result.to_csv().splitlines()[1]
        assert csv_line == "0.4,25,,,,,,20"
        assert result.to_json_dict() == {"cells": [{
            "params": {"t": 0.4}, "n": 25, "mean": None, "l50": None, "u50": None,
            "l95": None, "u95": None, "failures": 20,
        }]}

    def test_occasional_failures_are_counted_not_fatal(self):
        # p = 0.89 at n = 7 degenerates often enough that some repetitions
        # exhaust their three retries without sinking the whole cell.
        dag = CausalDag.from_edges([("C", "Y"), ("X", "Y")])
        template = ScmSpec(dag, {
            "C": BernoulliExogenous(0.89),
            "X": LinearGaussian(0.0, {}, 1.0),
            "Y": LinearGaussian(0.0, {"C": 0.5, "X": "t"}, 1.0),
        })
        config = SweepConfig(
            template=template,
            grid={"t": (0.4,)},
            fixed={},
            sample_sizes=(7,),
            repetitions=400,
            outcome="Y",
            predictors=("X", "C"),
            seed=5,
        )
        (cell,) = run_sweep(config).cells
        assert 0 < cell.failures <= 40
        assert not cell.failed

    def test_config_validation(self):
        template = team_effort_template()
        values = dict.fromkeys(template.parameters, 0.1)
        with pytest.raises(ScmError):
            SweepConfig(template, {}, values, (10,), 5, "E", ("T",), 1)
        fixed = {k: v for k, v in values.items() if k != "t_e"}
        with pytest.raises(ScmError):
            SweepConfig(template, {"t_e": (0.1,)}, fixed, (10,), 5, "E", ("E",), 1)
        with pytest.raises(ScmError):
            SweepConfig(template, {"t_e": (0.1,)}, fixed, (10,), 5, "E", ("T",), -1)

    @pytest.mark.parametrize("grid, sizes, message", [
        ({"t_e": (0.1, 0.3, 0.1)}, (10,), "duplicate values for grid parameter 't_e'"),
        ({"t_e": (0.3, 0.30)}, (10,), "duplicate values for grid parameter 't_e'"),
        ({"t_e": (0.1,), "z_e": (0.0, -0.0)}, (10,),
         "duplicate values for grid parameter 'z_e'"),
        ({"t_e": (0.1, 0.3)}, (10, 5, 10), "duplicate sample sizes in n"),
    ])
    def test_repeated_grid_values_and_sample_sizes_are_refused(self, grid, sizes, message):
        # Their cells would share grid values and n, so no CSV row could be
        # told from its copy.
        values = dict.fromkeys(team_effort_template().parameters, 0.1)
        fixed = {k: v for k, v in values.items() if k not in grid}
        with pytest.raises(ScmError, match=f"^{message}$"):
            SweepConfig(team_effort_template(), grid, fixed, sizes, 5, "E", ("T",), 1)


EFFORT_PREDICTORS = ("T", "B", "K", "O", "S")


def effort_spec() -> ScmSpec:
    config = parse_sweep_config(SMALL_CONFIG)
    return config.template.bind({**config.fixed, "t_e": 0.3, "z_e": 0.5, "z_t": 0.5})


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    two empirical distribution functions."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, at, side="right") / a.size
    cdf_b = np.searchsorted(b, at, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(m: int, n: int, alpha: float) -> float:
    """The asymptotic critical value of :func:`ks_statistic` at level ``alpha``."""
    return math.sqrt(-math.log(alpha / 2) / 2 * (m + n) / (m * n))


class TestGramDraws:
    def test_noise_map_reproduces_row_sampling(self):
        # The row sampler's own draws, stacked as u = [1, Bernoulli draws,
        # normal draws], give every node's values through its row of M.
        dag = CausalDag.from_edges([("C", "X"), ("C", "Y"), ("W", "Y"), ("X", "Y")])
        skewed = ScmSpec(dag, {
            "C": BernoulliExogenous(0.3),
            "W": BernoulliExogenous(0.8),
            "X": LinearGaussian(0.7, {"C": -1.5}, 2.0),
            "Y": LinearGaussian(-0.2, {"C": 0.4, "W": 1.1, "X": 0.6}, 0.5),
        })
        shape = (3, 40)
        for spec in (effort_spec(), skewed):
            rows, p, gaussians = _noise_map(spec)
            columns = _sample_columns(spec, shape, _rng_from(11))
            rng, noise = _rng_from(11), {}
            for node in spec.order:
                mech = spec.mechanisms[node]
                if isinstance(mech, BernoulliExogenous):
                    noise[node] = (rng.random(shape) < mech.p).astype(float)
                else:
                    noise[node] = rng.standard_normal(shape)
            bernoulli = [v for v in spec.order
                         if isinstance(spec.mechanisms[v], BernoulliExogenous)]
            normal = [v for v in spec.order if v not in bernoulli]
            assert p.tolist() == [spec.mechanisms[v].p for v in bernoulli]
            assert gaussians == len(normal)
            u = np.stack([np.ones(shape), *(noise[v] for v in bernoulli + normal)])
            for node in spec.order:
                np.testing.assert_allclose(
                    np.tensordot(rows[node], u, axes=1), columns[node], rtol=1e-12, atol=1e-12
                )

    @pytest.mark.parametrize("n, reps", [(12, 4000), (50, 4000), (20_000, 400)])
    def test_tracked_coefficient_has_the_row_samplers_law(self, n, reps):
        rows, p, gaussians = _noise_map(effort_spec())
        grams = _draw_grams(p, gaussians, n, reps, _rng_from((3, n)))
        drawn, drawn_ok = _gram_estimates(rows, grams, "E", EFFORT_PREDICTORS)
        rng = np.random.default_rng(n)
        chunk = max(1, 2**18 // n)  # sampled rows of a large n fit in memory a chunk at a time
        sampled = np.concatenate([
            row_sampled_grams(p, gaussians, n, min(chunk, reps - start), rng)
            for start in range(0, reps, chunk)
        ])
        oracle, oracle_ok = _gram_estimates(rows, sampled, "E", EFFORT_PREDICTORS)
        a, b = drawn[drawn_ok], oracle[oracle_ok]
        assert ks_statistic(a, b) < ks_critical(a.size, b.size, 0.001)

    @pytest.mark.parametrize("n", [12, 50, 10**9])
    def test_mean_gram_is_n_times_the_noise_moment(self, n):
        p, gaussians, reps = np.array([0.2, 0.5, 0.9]), 3, 20_000
        grams = _draw_grams(p, gaussians, n, reps, _rng_from((5, n)))
        mean_u = np.concatenate([[1.0], p, np.zeros(gaussians)])
        # u's entries are independent, so E[uuᵀ] is the outer product of
        # their means off the diagonal, with E[b²] = p and E[g²] = 1 on it.
        moment = np.outer(mean_u, mean_u)
        moment[np.diag_indices(mean_u.size)] = np.concatenate([[1.0], p, np.ones(gaussians)])
        assert (grams[:, 0, 0] == n).all()
        mean = grams.mean(axis=0)
        error = grams.std(axis=0, ddof=1) / math.sqrt(reps)
        assert (np.abs(mean - n * moment) <= 5 * error).all()

    def test_failure_rate_at_the_threshold_is_the_exact_one(self):
        # At n = 12 a draw is rank deficient exactly when the Bernoulli
        # patterns [1, B, K, O] it holds span fewer than 4 dimensions.  The
        # chance that the occupied patterns are exactly the set S is found
        # by inclusion-exclusion over the subsets of S.
        n, patterns = 12, np.array(list(itertools.product((0, 1), repeat=3)))
        lead = np.hstack([np.ones((8, 1)), patterns])
        exact = 0.0
        for size in range(1, 9):
            for occupied in itertools.combinations(range(8), size):
                if np.linalg.matrix_rank(lead[list(occupied)]) == 4:
                    continue
                exact += sum((-1) ** (size - k) * math.comb(size, k) * (k / 8) ** n
                             for k in range(size + 1))
        assert exact == pytest.approx(0.0029875, abs=1e-7)
        rows, p, gaussians = _noise_map(effort_spec())
        reps, failed = 0, 0
        for seed in range(10):
            grams = _draw_grams(p, gaussians, n, 20_000, _rng_from((7, seed)))
            _, solved = _gram_estimates(rows, grams, "E", EFFORT_PREDICTORS)
            reps, failed = reps + solved.size, failed + int((~solved).sum())
        assert abs(failed / reps - exact) <= 4 * math.sqrt(exact * (1 - exact) / reps)

    def test_cells_from_2_to_the_k_b_plus_k_g_draw_grams(self, monkeypatch):
        # The effort model has 3 Bernoulli and 4 normal draws per sample, so
        # Grams are drawn from n = 12 on, in blocks of 2**17 // 12 repetitions.
        sizes = []

        def recorded(p, gaussians, n, r, rng):
            sizes.append((n, r))
            return draw_grams(p, gaussians, n, r, rng)

        draw_grams = scm._draw_grams
        monkeypatch.setattr(scm, "_draw_grams", recorded)
        text = SMALL_CONFIG.replace("grid.z_e = 0.1, 0.5", "grid.z_e = 0.1") \
                           .replace("n = 5, 20", "n = 11, 12") \
                           .replace("repetitions = 40", "repetitions = 11000")
        run_sweep(parse_sweep_config(text))
        assert {n for n, _ in sizes} == {12}
        assert sizes[0] == (12, 2**17 // 12)
        assert (12, 11000 - 2**17 // 12) in sizes


class TestClosedFormOracle:
    def test_no_confounding_returns_main_effect(self):
        assert expected_treatment_estimate(0.3, 0.0, 0.7) == 0.3
        assert expected_treatment_estimate(0.3, 0.7, 0.0) == 0.3

    def test_sweep_means_within_monte_carlo_error_of_oracle(self):
        # |cell mean - closed form| should stay below 4 standard errors of the
        # mean, with the spread recomputed from the per-repetition estimates.
        from ovbkit.scm import _cell_estimates

        text = SMALL_CONFIG.replace("grid.z_e = 0.1, 0.5", "grid.z_e = -0.5, 0.3") \
                           .replace("grid.z_t = 0.1", "grid.z_t = 0.4") \
                           .replace("n = 5, 20", "n = 50") \
                           .replace("repetitions = 40", "repetitions = 150")
        config = parse_sweep_config(text)
        result = run_sweep(config)
        for gi, point in enumerate(config.grid_points()):
            spec = config.template.bind({**config.fixed, **dict(zip(config.grid_names, point))})
            estimates, failures = _cell_estimates(
                spec, 50, config.outcome, config.predictors, config.repetitions,
                (config.seed, gi, 0),
            )
            assert failures == 0
            spread = float(np.std(estimates, ddof=1))
            cell = result.cells[gi]
            params = dict(zip(config.grid_names, point))
            assert cell.params == params and cell.n == 50
            assert cell.mean == float(np.mean(estimates))
            oracle = expected_treatment_estimate(
                params["t_e"], params["z_e"], params["z_t"]
            )
            assert abs(cell.mean - oracle) <= 4 * spread / np.sqrt(config.repetitions)

    def test_hand_computed_values(self):
        assert expected_treatment_estimate(0.1, 0.3, 0.3) == pytest.approx(0.18256, abs=1e-4)
        assert expected_treatment_estimate(0.5, -0.5, 0.5) == pytest.approx(0.30)

    def test_reference_windows_at_n50(self):
        # Three bias regimes at n=50, 200 repetitions: near-oracle when the
        # confounder is weak, inflated under same-sign confounding, deflated
        # under mixed signs.
        text = SMALL_CONFIG.replace("grid.z_e = 0.1, 0.5", "grid.z_e = 0.1, 0.5") \
                           .replace("grid.z_t = 0.1", "grid.z_t = 0.1, 0.5, -0.5") \
                           .replace("n = 5, 20", "n = 50") \
                           .replace("repetitions = 40", "repetitions = 200") \
                           .replace("seed = 99", "seed = 7")
        result = run_sweep(parse_sweep_config(text))
        assert 0.27 <= result.cell(50, z_e=0.1, z_t=0.1).mean <= 0.35
        assert 0.45 <= result.cell(50, z_e=0.5, z_t=0.5).mean <= 0.55
        assert 0.05 <= result.cell(50, z_e=0.5, z_t=-0.5).mean <= 0.15

    def test_matches_large_sample_sweep(self):
        # Cross-check the closed form against one huge draw.
        config_text = SMALL_CONFIG.replace("grid.z_e = 0.1, 0.5", "grid.z_e = 0.4") \
                                  .replace("grid.z_t = 0.1", "grid.z_t = -0.3") \
                                  .replace("n = 5, 20", "n = 100000") \
                                  .replace("repetitions = 40", "repetitions = 1")
        (cell,) = run_sweep(parse_sweep_config(config_text)).cells
        oracle = expected_treatment_estimate(0.3, 0.4, -0.3)
        assert cell.mean == pytest.approx(oracle, abs=0.01)
