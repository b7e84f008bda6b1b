import itertools
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    effort_law,
    ks_against_standard_normal,
    row_sampled_grams,
    sample_columns,
    treatment_z_scores,
)
from ovbkit import scm, stats
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
from ovbkit.scm import (
    _draw_grams,
    _draw_noise,
    _grid_estimates,
    _lift,
    _noise_map,
    _rng_from,
)
from ovbkit.stats import StatsError, _tracked_coefficients

GOLDEN = Path(__file__).resolve().parent / "golden"

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

    def test_the_smallest_request_gives_one_finite_row(self):
        data = sample(direct_effect_scm(), 1, seed=0)
        assert data.values.shape == (1, 2)
        assert np.isfinite(data.values).all()

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_a_certain_bernoulli_node_takes_one_value(self, p):
        dag = CausalDag.from_edges([("C", "Y")])
        spec = ScmSpec(dag, {"C": BernoulliExogenous(p),
                             "Y": LinearGaussian(0.0, {"C": 1.0}, 1.0)})
        assert (sample(spec, 1000, seed=2).column("C") == p).all()

    def test_overflowing_values_are_refused(self):
        # Y's row of the noise map overflows to inf, and the Bernoulli
        # draws of 0 make inf * 0 = nan in some samples; numpy stays quiet.
        dag = CausalDag.from_edges([("C", "X"), ("X", "Y")])
        spec = ScmSpec(dag, {
            "C": BernoulliExogenous(0.5),
            "X": LinearGaussian(0.0, {"C": 1e200}, 1.0),
            "Y": LinearGaussian(0.0, {"X": 1e200}, 1.0),
        })
        with pytest.raises(StatsError, match="^dataset values must be finite$"):
            sample(spec, 10, seed=1)


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
            ("seed = 99", "seed = soon", "config line 15: not an integer in 'seed': 'soon'"),
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
            # An empty entry of any list, inside or after its last comma.
            ("grid.t_e = 0.3", "grid.t_e = 0.1,,0.5", "config line 10: empty entry in 'grid.t_e'"),
            ("grid.z_e = 0.1, 0.5", "grid.z_e = 0.1, 0.5,",
             "config line 11: empty entry in 'grid.z_e'"),
            ("n = 5, 20", "n = 5, 10,", "config line 13: empty entry in 'n'"),
            ("predictors = T, B, K, O, S", "predictors = T, B,",
             "config line 17: empty entry in 'predictors'"),
            ("seed = 99", "seed 99", "config line 15: expected 'key = value'"),
            ("outcome = E", "outcome = Q", "unknown node 'Q'"),
            ("predictors = T, B, K, O, S", "predictors = T, Q", "unknown node 'Q'"),
            ("n = 5, 20", "n = 5, x", "config line 13: not an integer in 'n': 'x'"),
            ("repetitions = 40", "repetitions = 2.5",
             "config line 14: not an integer in 'repetitions': '2.5'"),
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

    def test_one_sample_size_is_held_at_a_time(self, monkeypatch):
        # Each size is summarised before the next is drawn: no array that
        # _grid_estimates returned for an earlier size is alive.
        from ovbkit.fixtures import fixture_text

        grid_estimates, earlier, alive = scm._grid_estimates, [], []

        def recorded(*args):
            alive.append(sum(ref() is not None for ref in earlier))
            arrays = grid_estimates(*args)
            earlier.extend(weakref.ref(array) for array in arrays)
            return arrays

        monkeypatch.setattr(scm, "_grid_estimates", recorded)
        run_sweep(parse_sweep_config(fixture_text("table5.conf")))
        assert alive == [0, 0, 0]

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
        # The n < p path factors XXt, then takes an SVD of the designs that
        # fail its pivot rule, and the SVD may never return on inf.  So such
        # draws must count as failed without reaching either.
        pinv, factor, rng_from = np.linalg.pinv, stats._cholesky_factor, scm._rng_from
        duals, seeds = [], []

        def finite_only(design, *args, **kwargs):
            assert np.isfinite(design).all()
            return pinv(design, *args, **kwargs)

        def finite_dual(gram, *args):
            assert np.isfinite(gram).all()
            duals.append(len(gram))
            return factor(gram, *args)

        def recorded(entropy):
            seeds.append(entropy)
            return rng_from(entropy)

        monkeypatch.setattr(np.linalg, "pinv", finite_only)
        monkeypatch.setattr(stats, "_cholesky_factor", finite_dual)
        monkeypatch.setattr(scm, "_rng_from", recorded)
        text = SMALL_CONFIG.replace("grid.z_t = 0.1", "grid.z_t = 1e308")
        result = run_sweep(parse_sweep_config(text.replace("n = 5, 20", "n = 5")))
        assert duals
        assert any(attempt > 0 for *_, attempt in seeds)  # the overflowed repetitions were redrawn
        assert all(cell.failed or np.isfinite(cell.mean) for cell in result.cells)

    def test_table5_takes_the_pinv_fallbacks_the_readme_quotes(self, monkeypatch):
        # Each n = 5 draw of one of table5.conf's 6 designs is one dual solve
        # for the 18 grid points that share the design.  A draw whose XXt
        # fails the dual pivot rule is one pinv row, which serves all 18.
        from ovbkit.fixtures import fixture_text

        pinv, kernel, designs, served = np.linalg.pinv, scm._tracked_coefficients, [], []

        def recorded(design, *args, **kwargs):
            designs.append(len(design))
            return pinv(design, *args, **kwargs)

        def solve(design, outcomes, draw):
            before = sum(designs)
            coef, solved = kernel(design, outcomes, draw)
            served.append((sum(designs) - before) * len(outcomes))
            return coef, solved

        monkeypatch.setattr(np.linalg, "pinv", recorded)
        monkeypatch.setattr(scm, "_tracked_coefficients", solve)
        config = parse_sweep_config(fixture_text("table5.conf"))
        result = run_sweep(config)
        assert all(cell.failures == 0 for cell in result.cells)
        assert (sum(designs), len(designs)) == (42, 6)
        draws = len(config.grid_points()) * config.repetitions
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        quoted = re.search(r"([\d,]+) of the ([\d,]+) n = 5 regressions of `table5\.conf`",
                           re.sub(r"\s+", " ", readme))
        assert quoted is not None
        assert (f"{sum(served):,}", f"{draws:,}") == quoted.groups() == ("756", "21,600")

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

    @pytest.mark.parametrize("unsolved, failed", [(4, False), (5, True)])
    def test_a_cell_fails_past_a_tenth_of_its_repetitions(self, monkeypatch, unsolved, failed):
        # Of 40 repetitions, 4 unsolved leave the cell its estimates; 5 fail it.
        grid_estimates = scm._grid_estimates

        def some_unsolved(*args):
            estimates, solved = grid_estimates(*args)
            solved[:, :unsolved] = False
            return estimates, solved

        monkeypatch.setattr(scm, "_grid_estimates", some_unsolved)
        cells = run_sweep(parse_sweep_config(SMALL_CONFIG)).cells
        assert {cell.failures for cell in cells} == {unsolved}
        assert {cell.failed for cell in cells} == {failed}
        assert all((cell.mean is None) == failed for cell in cells)

    @pytest.mark.parametrize("n", [50, 10])
    def test_a_cell_spanning_blocks_has_the_closed_form_mean(self, monkeypatch, n):
        # With 15,000 values per block, the 2,000 repetitions are drawn in
        # two blocks of unequal size (1,250 and 750 at n = 50, 1,500 and 500
        # at n = 10), and every repetition's estimate must land in its own
        # slot whichever block drew it.  At (t_e, z_e, z_t) = (0.3, 0.5, 0.5)
        # the closed form is 0.5.
        starts, rng_from = set(), scm._rng_from

        def recorded(entropy):
            starts.add(entropy[2])
            return rng_from(entropy)

        monkeypatch.setattr(scm, "_BLOCK_VALUES", 15_000)
        monkeypatch.setattr(scm, "_rng_from", recorded)
        text = (GOLDEN / "small.conf").read_text() \
            .replace("grid.z_e = -0.5, 0.5", "grid.z_e = 0.5") \
            .replace("n = 5, 20", f"n = {n}") \
            .replace("repetitions = 30", "repetitions = 2000")
        config = parse_sweep_config(text)
        (cell,) = run_sweep(config).cells
        spec = config.template.bind({**config.fixed, "t_e": 0.3, "z_e": 0.5, "z_t": 0.5})
        estimates, failures = cell_estimates(
            spec, n, config.outcome, config.predictors, config.repetitions, (config.seed, 0)
        )
        assert len(starts) == 2
        assert failures == cell.failures < 20
        assert cell.mean == float(np.mean(estimates))
        error = float(np.std(estimates, ddof=1)) / math.sqrt(estimates.size)
        assert abs(cell.mean - expected_treatment_estimate(0.3, 0.5, 0.5)) <= 4 * error

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


def cell_estimates(spec, n, outcome, predictors, repetitions, entropy):
    """One grid point's cell, run alone through the sweep engine: the tracked
    coefficient of each solved repetition, in order, and the number unsolved."""
    lift = _lift(_noise_map(spec)[0], outcome, predictors)
    estimates, solved = _grid_estimates(spec, lift[None], n, repetitions, entropy)
    return estimates[0, solved[0]], repetitions - int(solved.sum())


def gram_coefficients(lift: np.ndarray, grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One grid point's tracked coefficient on each noise Gram, and which were solved."""
    coef, solved = _tracked_coefficients(lift[:-1], lift[-1:], grams)
    return coef[:, 0], solved[:, 0]


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
        # The package's noise draw, mapped through M, gives every node the
        # values that sampling node by node from the same stream gives, and
        # so does sample().
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
            bernoulli = [v for v in spec.order
                         if isinstance(spec.mechanisms[v], BernoulliExogenous)]
            assert p.tolist() == [spec.mechanisms[v].p for v in bernoulli]
            assert gaussians == len(spec.order) - len(bernoulli)
            noise = _draw_noise(spec, shape, _rng_from(11))
            columns = sample_columns(spec, shape, _rng_from(11))
            for node in spec.order:
                np.testing.assert_allclose(
                    noise @ rows[node], columns[node], rtol=1e-12, atol=1e-12
                )
            data = sample(spec, 500, seed=11)
            columns = sample_columns(spec, 500, _rng_from(11))
            assert data.columns == spec.order
            for node in spec.order:
                np.testing.assert_allclose(
                    data.column(node), columns[node], rtol=1e-12, atol=1e-12
                )

    @pytest.mark.parametrize("n, reps", [(6, 4000), (7, 4000), (10, 4000), (11, 4000),
                                         (12, 4000), (50, 4000), (20_000, 400)])
    def test_tracked_coefficient_has_the_row_samplers_law(self, n, reps):
        rows, p, gaussians = _noise_map(effort_spec())
        lift = _lift(rows, "E", EFFORT_PREDICTORS)
        grams = _draw_grams(p, gaussians, n, reps, _rng_from((3, n)))
        drawn, drawn_ok = gram_coefficients(lift, grams)
        rng = np.random.default_rng(n)
        chunk = max(1, 2**18 // n)  # sampled rows of a large n fit in memory a chunk at a time
        sampled = np.concatenate([
            row_sampled_grams(p, gaussians, n, min(chunk, reps - start), rng)
            for start in range(0, reps, chunk)
        ])
        oracle, oracle_ok = gram_coefficients(lift, sampled)
        a, b = drawn[drawn_ok], oracle[oracle_ok]
        assert ks_statistic(a, b) < ks_critical(a.size, b.size, 0.001)

    @pytest.mark.parametrize("n", [1, 3, 6, 12, 50, 10**9])
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
        # At every n >= p = 6, a draw is rank deficient exactly when the
        # Bernoulli patterns [1, B, K, O] it holds span fewer than 4
        # dimensions: S and T add their two normal dimensions on any 6 rows.
        # The chance that the occupied patterns are exactly the set S is
        # found by inclusion-exclusion over the subsets of S.  At
        # n = 12 = 2**k_b + k_g it is 0.0029875.
        patterns = np.array(list(itertools.product((0, 1), repeat=3)))
        lead = np.hstack([np.ones((8, 1)), patterns])
        deficient = [
            occupied
            for size in range(1, 9)
            for occupied in itertools.combinations(range(8), size)
            if np.linalg.matrix_rank(lead[list(occupied)]) < 4
        ]
        rows, p, gaussians = _noise_map(effort_spec())
        lift = _lift(rows, "E", EFFORT_PREDICTORS)
        for n in (6, 10, 12):
            exact = sum((-1) ** (len(occupied) - k) * math.comb(len(occupied), k) * (k / 8) ** n
                        for occupied in deficient for k in range(len(occupied) + 1))
            if n == 12:
                assert exact == pytest.approx(0.0029875, abs=1e-7)
            reps, failed = 0, 0
            for seed in range(10):
                grams = _draw_grams(p, gaussians, n, 20_000, _rng_from((7, seed)))
                _, solved = gram_coefficients(lift, grams)
                reps, failed = reps + solved.size, failed + int((~solved).sum())
            assert abs(failed / reps - exact) <= 4 * math.sqrt(exact * (1 - exact) / reps)

    def test_cells_from_2_to_the_k_b_plus_k_g_draw_grams(self, monkeypatch):
        # The effort model has 3 Bernoulli and 4 normal draws per sample, so
        # from n = 2**3 + 4 = 12 on a block holds 2**17 // 12 repetitions.
        # Below that, n = 11 >= p = 6 draws its Gram too, in blocks of
        # 2**17 // 11 > 11000 repetitions: one block.
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
        assert {n for n, _ in sizes} == {11, 12}
        assert sizes[0] == (11, 11000)
        twelve = [r for n, r in sizes if n == 12]
        assert twelve[0] == 2**17 // 12
        assert 11000 - 2**17 // 12 in twelve

    def test_only_cells_below_p_regress_on_rows(self, monkeypatch):
        # The effort regression has p = 6 parameters: n = 5 is solved from
        # its rows, and every n from 6 on from a drawn Gram.
        row_sizes, gram_sizes = set(), set()
        kernel, draw_grams = scm._tracked_coefficients, scm._draw_grams

        def solve(design, outcomes, draw):
            if draw.shape[1] < len(design):  # fewer noise rows than parameters
                row_sizes.add(draw.shape[1])
            return kernel(design, outcomes, draw)

        def recorded(p, gaussians, n, r, rng):
            gram_sizes.add(n)
            return draw_grams(p, gaussians, n, r, rng)

        monkeypatch.setattr(scm, "_tracked_coefficients", solve)
        monkeypatch.setattr(scm, "_draw_grams", recorded)
        run_sweep(parse_sweep_config(SMALL_CONFIG.replace("n = 5, 20", "n = 5, 6, 10, 11, 12")))
        assert row_sizes == {5}
        assert gram_sizes == {6, 10, 11, 12}

    def test_no_cell_makes_a_substitution(self, monkeypatch):
        # Every cell reads the tracked coefficient off a tall Cholesky factor,
        # with no back substitution: below p = 6 that of XXt over yt and the
        # treatment's column, from p on that of its moments.
        def refused(lower, rhs):
            raise AssertionError("a sweep cell called _cholesky_substitute")

        monkeypatch.setattr(stats, "_cholesky_substitute", refused)
        result = run_sweep(parse_sweep_config(SMALL_CONFIG.replace("n = 5, 20", "n = 5, 6, 10, 50")))
        assert {cell.n for cell in result.cells} == {5, 6, 10, 50}
        assert not any(cell.failed for cell in result.cells)


def csv_rows_by_cell(result) -> dict[tuple[str, ...], str]:
    """Each CSV row of a sweep, keyed by its grid values and n."""
    key_width = len(result.grid_names) + 1
    return {tuple(line.split(",")[:key_width]): line for line in result.to_csv().splitlines()[1:]}


def recorded_solves(patch, config) -> list[tuple]:
    """Run ``config``; the design, outcome rows, draws (noise rows or Grams),
    coefficients and solved flags of every call to the one solve, in call order."""
    calls, kernel = [], scm._tracked_coefficients

    def solve(design, outcomes, draw):
        coef, solved = kernel(design, outcomes, draw)
        calls.append((design, outcomes, draw, coef, solved))
        return coef, solved

    patch.setattr(scm, "_tracked_coefficients", solve)
    run_sweep(config)
    return calls


def check_shared_draw_against_lstsq(patch, config, tolerance) -> int:
    """The sweep's first draw holds every repetition and serves every grid
    point, one solve per design, and every solved (repetition, outcome) of
    every solve has the tracked coefficient that LAPACK gives, to ``tolerance``
    relative to the norm of its coefficients: ``lstsq`` on the rows U·liftᵀ of
    a row draw, or ``solve`` of the normal equations lift·G·liftᵀ of a Gram
    draw G, where lift is the design over the outcome row.  Returns the number
    of coefficients checked."""
    calls = recorded_solves(patch, config)
    draw = calls[0][2]
    first = [call for call in calls if call[2].shape == draw.shape and np.array_equal(call[2], draw)]
    assert len(draw) == config.repetitions
    assert len(np.unique(draw.reshape(len(draw), -1), axis=0)) == config.repetitions
    lifts = {np.vstack([design, outcome]).tobytes()
             for design, outcomes, *_ in first for outcome in outcomes}
    assert len({design.tobytes() for design, *_ in first}) == len(first)
    assert len(lifts) == sum(len(outcomes) for _, outcomes, *_ in first) == len(config.grid_points())
    checked = 0
    for design, outcomes, draw, coef, solved in calls:
        for k, i in zip(*np.nonzero(solved)):
            lift = np.vstack([design, outcomes[i]])
            if len(draw[k]) < len(design):  # fewer noise rows than parameters
                values = draw[k] @ lift.T
                expected = np.linalg.lstsq(values[:, :-1], values[:, -1], rcond=None)[0]
            else:
                moments = lift @ draw[k] @ lift.T
                expected = np.linalg.solve(moments[:-1, :-1], moments[:-1, -1])
            assert abs(coef[k, i] - expected[-1]) <= tolerance * np.linalg.norm(expected)
            checked += 1
    return checked


@st.composite
def small_models(draw) -> tuple[ScmSpec, str, tuple[str, ...]]:
    """A random model of 3-4 Bernoulli roots and 3-4 Gaussian nodes, each
    Gaussian node with random parents among the nodes before it; the last
    is the outcome, with the free weight ``w`` on its edge from the first
    Gaussian node, the treatment.  With 7 or more nodes the second Gaussian
    node may be latent.  Every sweep over it has 6 to 8 regression
    parameters, so it draws noise rows at n = 5 and Grams at n = 10."""
    bernoulli = [f"B{i}" for i in range(draw(st.integers(3, 4)))]
    gaussian = [f"G{i}" for i in range(draw(st.integers(3, 4)))]
    weight = st.floats(-2.0, 2.0)
    mechanisms = {v: BernoulliExogenous(draw(st.floats(0.2, 0.8))) for v in bernoulli}
    edges = []
    for i, node in enumerate(gaussian):
        earlier = bernoulli + gaussian[:i]
        parents = [v for v in earlier if draw(st.booleans())]
        weights = {v: draw(weight) for v in parents}
        if node == gaussian[-1]:
            weights[gaussian[0]] = "w"
        edges += [(v, node) for v in weights]
        mechanisms[node] = LinearGaussian(draw(st.floats(-1.0, 1.0)), weights,
                                          draw(st.floats(0.5, 2.0)))
    latent = [gaussian[1]] if len(mechanisms) >= 7 and draw(st.booleans()) else []
    dag = CausalDag.from_edges(edges, latent=latent, nodes=mechanisms)
    predictors = (gaussian[0], *(v for v in bernoulli + gaussian[1:-1] if v not in latent))
    return ScmSpec(dag, mechanisms), gaussian[-1], predictors


class TestCommonRandomNumbers:
    """Each draw serves every grid point, and its seed names no grid point."""

    @pytest.mark.parametrize("block_values", [scm._BLOCK_VALUES, 1000, 64],
                             ids=["one-block", "chunked", "one-point-chunks"])
    @pytest.mark.parametrize("old, new, edits", [
        ("grid.z_t = 0.1", "grid.z_t = 0.1, -0.4", {}),
        ("grid.z_e = 0.1, 0.5", "grid.z_e = 0.5, 0.1", {}),
        ("grid.z_e = 0.1, 0.5", "grid.z_e = 0.5", {}),
        ("grid.z_e = 0.1, 0.5", "grid.z_e = 0.1, 0.5, 1e308", {}),
        ("grid.z_e = 0.1, 0.5", "grid.z_e = -0.5, 0.1, -0.3, 0.5, -0.1, 0.3, 0.7",
         {"repetitions = 40": "repetitions = 100"}),
        ("grid.z_e = 0.1, 7e153", "grid.z_e = 7e153", {"grid.z_e = 0.1, 0.5": "grid.z_e = 0.1, 7e153"}),
    ], ids=["grid-value-added", "grid-values-reordered", "one-grid-point-alone",
            "overflowing-outcome-added", "outcome-rows-resplit-a-block", "redrawn-outcome-alone"])
    def test_a_cell_is_the_same_whatever_the_other_grid_points(
        self, monkeypatch, block_values, old, new, edits
    ):
        # ``edits`` apply to both configs.  At 1000 values a block holds 83 to
        # 200 repetitions, and a solve as many as keep a design's outcome rows
        # x repetitions x min(n, 12) values within the bound: at n = 5, 100 of
        # two rows but 28 of seven.  At 64 a block holds 5 to 12 repetitions
        # and a solve 1 to 6.  An outcome row at z_e = 1e308 overflows on every
        # draw, and leaves unsolved only its own grid point, which shares its
        # design with the other two.  One at 7e153 overflows on some n = 5
        # draws (in one block, 26 of the 40 first draws and 3 after three
        # redraws), which are redrawn for it whether or not z_e = 0.1, which
        # never overflows, shares its design.
        monkeypatch.setattr(scm, "_BLOCK_VALUES", block_values)
        text = SMALL_CONFIG.replace("n = 5, 20", "n = 5, 10, 50")
        for edit in edits.items():
            text = text.replace(*edit)
        base = csv_rows_by_cell(run_sweep(parse_sweep_config(text)))
        other = csv_rows_by_cell(run_sweep(parse_sweep_config(text.replace(old, new))))
        shared = base.keys() & other.keys()
        assert {key[-1] for key in shared} == {"5", "10", "50"}
        assert all(other[key] == base[key] for key in shared)

    def test_a_run_of_repetitions_stays_within_the_block_bound(self, monkeypatch):
        # Two designs (z_t), each with three outcome rows (z_e).  At 1000
        # values a block holds all 40 repetitions, and a solve takes all three
        # outcome rows of one design on as many repetitions as keep outcome
        # rows x repetitions x min(n, 12) values within the bound: 40 at n = 5,
        # 33 at n = 10 and 27 at n = 50.
        monkeypatch.setattr(scm, "_BLOCK_VALUES", 1000)
        text = SMALL_CONFIG.replace("grid.z_t = 0.1", "grid.z_t = 0.1, -0.4") \
                           .replace("grid.z_e = 0.1, 0.5", "grid.z_e = 0.1, 0.5, -0.3") \
                           .replace("n = 5, 20", "n = 5, 10, 50")
        largest, rows = {}, {}
        for design, outcomes, draw, _, _ in recorded_solves(monkeypatch, parse_sweep_config(text)):
            # A Gram's [0, 0] is n.
            n = draw.shape[1] if draw.shape[1] < len(design) else int(draw[0, 0, 0])
            repetitions = len(np.unique(draw.reshape(len(draw), -1), axis=0))
            assert len(outcomes) == 3
            assert len(outcomes) * repetitions * min(n, 12) <= 1000
            largest[n] = max(largest.get(n, 0), repetitions)
            rows.setdefault((n, design.tobytes()), set()).update(map(bytes, outcomes))
        assert largest == {5: 40, 10: 33, 50: 27}
        assert sorted(len(outcomes) for outcomes in rows.values()) == [3] * 6

    def test_a_design_is_solved_once_per_repetition_and_draw(self, monkeypatch):
        # At 2,000 repetitions each size of table5.conf draws one block, and a
        # solve takes all 18 outcome rows of one of its 6 designs on at most
        # 2**17 // (18 x min(n, 12)) repetitions: 1,456 at n = 5, 728 at n = 10
        # and 606 at n = 50.  Each (design, repetition, draw) is solved once.
        from ovbkit.fixtures import fixture_text

        kernel, rng_from = scm._tracked_coefficients, scm._rng_from
        seeds, solved, largest = [], [], {}

        def recorded_rng(entropy):
            seeds.append(entropy)
            return rng_from(entropy)

        def solve(design, outcomes, draw):
            n = draw.shape[1] if draw.shape[1] < len(design) else int(draw[0, 0, 0])  # a Gram's [0, 0]
            assert len(outcomes) == 18
            assert len(draw) == 1 or 18 * len(draw) * min(n, 12) <= scm._BLOCK_VALUES
            largest[n] = max(largest.get(n, 0), len(draw))
            solved.extend((seeds[-1], design.tobytes(), rep.tobytes()) for rep in draw)
            return kernel(design, outcomes, draw)

        monkeypatch.setattr(scm, "_rng_from", recorded_rng)
        monkeypatch.setattr(scm, "_tracked_coefficients", solve)
        text = fixture_text("table5.conf").replace("repetitions = 200", "repetitions = 2000")
        run_sweep(parse_sweep_config(text))
        assert largest == {5: 1456, 10: 728, 50: 606}
        assert len(set(solved)) == len(solved)
        first = [seed for seed, *_ in solved if seed[-1] == 0]  # (seed, size index, block start, attempt)
        assert sorted(first) == [(20240211, size, 0, 0) for size in range(3) for _ in range(6 * 2000)]

    def test_table5_factors_each_design_once_per_draw(self, monkeypatch):
        # table5.conf's 108 grid points share 6 designs, one per z_t, each
        # with 18 outcome rows.  Each solve makes one factor call, of one
        # design with its outcome rows below it, and each draw (size index,
        # block start, attempt) solves each design at most once.
        from ovbkit.fixtures import fixture_text

        factor, kernel, rng_from = stats._cholesky_factor, scm._tracked_coefficients, scm._rng_from
        seeds, factors, calls = [], [], []

        def recorded_rng(entropy):
            seeds.append(entropy)
            return rng_from(entropy)

        def recorded_factor(tall, *args):
            factors.append(tall.shape)
            return factor(tall, *args)

        def solve(design, outcomes, draw):
            before = len(factors)
            coef, solved = kernel(design, outcomes, draw)
            calls.append((seeds[-1], design.tobytes(), len(outcomes), draw.shape, factors[before:]))
            return coef, solved

        monkeypatch.setattr(scm, "_rng_from", recorded_rng)
        monkeypatch.setattr(stats, "_cholesky_factor", recorded_factor)
        monkeypatch.setattr(scm, "_tracked_coefficients", solve)
        run_sweep(parse_sweep_config(fixture_text("table5.conf")))
        assert len(factors) == len(calls) == 24
        for _, _, outcomes, (r, rows, _), shapes in calls:
            assert outcomes == 18
            # From a Gram, XtX over ytX; from n < 6 rows, XXt over xt and yt.
            assert shapes == [(r, 6 + outcomes, 6) if rows > 6 else (r, rows + 1 + outcomes, rows)]
        per_draw = {(seed, design) for seed, design, *_ in calls}
        assert len(per_draw) == len(calls)
        for size in range(3):
            assert len({design for seed, design, *_ in calls if seed[1] == size}) == 6

    def test_a_draw_seed_names_no_grid_point(self, monkeypatch):
        seeds, rng_from = [], scm._rng_from

        def recorded(entropy):
            seeds.append(entropy)
            return rng_from(entropy)

        monkeypatch.setattr(scm, "_rng_from", recorded)
        text = SMALL_CONFIG.replace("n = 5, 20", "n = 5, 10, 50")
        run_sweep(parse_sweep_config(text))
        # (seed, size index, block start, attempt); the two grid points share each.
        assert {entropy[:3] for entropy in seeds} == {(99, 0, 0), (99, 1, 0), (99, 2, 0)}
        assert all(len(entropy) == 4 for entropy in seeds)

    @pytest.mark.parametrize("n, tolerance", [(5, 1e-9), (10, 1e-10)])
    def test_effort_model_solves_match_lstsq_on_a_shared_draw(self, monkeypatch, n, tolerance):
        text = SMALL_CONFIG.replace("grid.z_e = 0.1, 0.5", "grid.z_e = -0.5, 0.1, 0.5") \
                           .replace("grid.z_t = 0.1", "grid.z_t = -0.5, 0.5") \
                           .replace("n = 5, 20", f"n = {n}") \
                           .replace("repetitions = 40", "repetitions = 200")
        assert check_shared_draw_against_lstsq(monkeypatch, parse_sweep_config(text),
                                               tolerance) > 6 * 190

    @settings(max_examples=40, deadline=None)
    @given(model=small_models(), seed=st.integers(0, 2**32 - 1))
    def test_random_model_solves_match_lstsq_on_a_shared_draw(self, model, seed):
        template, outcome, predictors = model
        for n, tolerance in [(5, 1e-9), (10, 1e-10)]:
            config = SweepConfig(template=template, grid={"w": (-0.7, 0.4, 1.5)}, fixed={},
                                 sample_sizes=(n,), repetitions=30, outcome=outcome,
                                 predictors=predictors, seed=seed)
            with pytest.MonkeyPatch.context() as patch:
                check_shared_draw_against_lstsq(patch, config, tolerance)


# Tolerances of the exact relations below, relative to 1 + |b_T|: R1, R2
# from n = p on, and R2 below p.  Each is about ten times the worst error
# measured when they were set, on table5.conf's three sizes and on 3,000
# random models (whose designs come nearer the pivot cutoff).  They do not move.
TABLE5_TOLERANCES = (1e-13, 1e-13, 1e-11)  # worst 7.9e-15, 1.5e-14, 3.1e-13
RANDOM_MODEL_TOLERANCES = (1e-11, 1e-11, 1e-10)  # worst 1.7e-12, 1.4e-12, 9.1e-12


def relation_errors(config, linear, shifted, base):
    """Per sample size of ``config``, the worst errors of two exact relations
    of least squares on one :func:`_grid_estimates` call, relative to
    1 + |b_T|.  Both hold on every draw.  Every pair of grid points compared
    shares its design, so its repetitions are solved on the same draws; below
    p every repetition must be solved on its first.

    R1: b_T is linear in the outcome row, so at fixed other grid values, b_T at
    ``linear`` = v is the affine interpolation of b_T at v = -0.5 and 0.5.
    R2: b_T at ``shifted`` = v, less b_T at v = ``base``, is (v - base)
    times [X⁺X]_TT: a shift of the outcome by a multiple of the treatment's
    column moves the minimum-norm solution by that multiple of the column's
    projection onto the row space of X.  From n = p on, X⁺X is the identity.
    """
    points = [dict(zip(config.grid_names, point)) for point in config.grid_points()]
    specs = [config.template.bind({**config.fixed, **params}) for params in points]
    lifts = np.stack([_lift(_noise_map(spec)[0], config.outcome, config.predictors)
                      for spec in specs])
    parameters = lifts.shape[1] - 1
    errors = {}
    for si, n in enumerate(config.sample_sizes):
        estimates, solved = _grid_estimates(specs[0], lifts, n, config.repetitions, (config.seed, si))
        assert solved.all() if n < parameters else solved.mean() > 0.5
        estimates = np.where(solved, estimates, np.nan)
        b = {tuple(params.items()): estimates[i] for i, params in enumerate(points)}

        def at(params, name, value):
            return b[tuple({**params, name: value}.items())]

        linearity = max(
            np.nanmax(np.abs(b_v - (low + (params[linear] + 0.5) * (high - low))) / (1 + np.abs(b_v)))
            for params, b_v in zip(points, estimates)
            for low, high in [(at(params, linear, -0.5), at(params, linear, 0.5))]
        )
        projection = {}  # [X⁺X]_TT of each repetition, per design
        if n < parameters:
            noise = _draw_noise(specs[0], (config.repetitions, n), _rng_from((config.seed, si, 0, 0)))
            for design in lifts[:, :-1]:
                if design.tobytes() not in projection:
                    projection[design.tobytes()] = np.array([
                        np.linalg.lstsq(x, x[:, -1], rcond=None)[0][-1] for x in noise @ design.T
                    ])
        shifted_error = max(
            np.nanmax(np.abs(b_v - b_base - (params[shifted] - base) * shift) / (1 + np.abs(b_base)))
            for lift, params, b_v in zip(lifts, points, estimates)
            for b_base, shift in [(at(params, shifted, base), projection.get(lift[:-1].tobytes(), 1.0))]
        )
        errors[n] = (linearity, shifted_error)
    return errors


class TestExactRelations:
    """Metamorphic relations of least squares (Chen, Cheung & Yiu,
    HKUST-CS98-01, 1998; Segura et al., IEEE TSE 42(9), 2016), exact on every
    draw and at every size.  They catch an estimate written to another grid
    point's place, or an outcome solved against the wrong design, which the
    statistical tests of the law are blind to."""

    def test_table5_obeys_the_relations_on_every_draw(self):
        from ovbkit.fixtures import fixture_text

        config = parse_sweep_config(fixture_text("table5.conf"))
        linear, shifted, projected = TABLE5_TOLERANCES
        errors = relation_errors(config, "z_e", "t_e", 0.1)
        assert list(errors) == [5, 10, 50]
        for n, (linearity, shift) in errors.items():
            assert linearity <= linear, n
            assert shift <= (projected if n < 6 else shifted), n

    @settings(max_examples=15, deadline=None)
    @given(model=small_models(), seed=st.integers(0, 2**32 - 1))
    def test_random_models_obey_the_relations_on_every_draw(self, model, seed):
        # The grid moves only the outcome's weight w on the treatment, so w
        # is both the linear and the shifted parameter.
        template, outcome, predictors = model
        config = SweepConfig(template=template, grid={"w": (-0.5, 0.5, -1.3, 0.2, 1.7)},
                             fixed={}, sample_sizes=(5, 10), repetitions=40, outcome=outcome,
                             predictors=predictors, seed=seed)
        linear, shifted, projected = RANDOM_MODEL_TOLERANCES
        (linear5, shift5), (linear10, shift10) = relation_errors(config, "w", "w", -0.5).values()
        assert max(linear5, linear10) <= linear
        assert shift5 <= projected
        assert shift10 <= shifted


# Every edge weight of the effort model away from the others, so that no
# term of the law cancels by accident.
SKEWED = {"b_e": 0.8, "b_s": 1.2, "k_e": -0.6, "k_s": 0.4, "o_e": 0.5, "o_t": -1.1,
          "s_e": -0.3, "s_t": 0.9, "t_e": 0.3, "z_e": 0.9, "z_t": -0.7}
LAW_DRAWS = 20_000


def ks_critical_one_sample(m: int, alpha: float) -> float:
    """The asymptotic critical value of :func:`ks_against_standard_normal` at level ``alpha``."""
    return math.sqrt(-math.log(alpha / 2) / 2 / m)


class TestClosedFormLaw:
    """Given the design, the tracked coefficient of any solvable draw is
    exactly N(beta, sigma**2 [(XtX)^-1]_TT), at every n >= p; see
    :func:`_oracles.effort_law`."""

    spec = team_effort_template().bind(SKEWED)
    law = effort_law(SKEWED["t_e"], SKEWED["z_e"], SKEWED["z_t"])
    p = len(EFFORT_PREDICTORS) + 1

    def test_the_law_centres_on_the_closed_form(self):
        assert self.law[0] == expected_treatment_estimate(
            SKEWED["t_e"], SKEWED["z_e"], SKEWED["z_t"]
        )

    @pytest.mark.parametrize("n", [6, 7, 10, 11, 12, 50, 10**6])
    def test_gram_draws_follow_the_law(self, n):
        rows, p, gaussians = _noise_map(self.spec)
        lift = _lift(rows, "E", EFFORT_PREDICTORS)
        grams = _draw_grams(p, gaussians, n, LAW_DRAWS, _rng_from((17, n)))
        coef, solved = gram_coefficients(lift, grams)
        design = lift[:self.p]
        z = treatment_z_scores(design @ grams[solved] @ design.T, coef[solved], *self.law)
        assert ks_against_standard_normal(z) < ks_critical_one_sample(z.size, 0.001)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_cell_means_are_unbiased_at_every_solvable_n(self, n):
        # At n = p the coefficient's variance is infinite, but it is
        # symmetric about beta, so the mean stays within a few of its
        # sample standard errors.
        estimates, failures = cell_estimates(
            self.spec, n, "E", EFFORT_PREDICTORS, 4000, (19, 0, n)
        )
        assert failures < 40
        error = float(np.std(estimates, ddof=1)) / math.sqrt(estimates.size)
        assert abs(float(np.mean(estimates)) - self.law[0]) <= 4 * error


class TestClosedFormOracle:
    def test_no_confounding_returns_main_effect(self):
        assert expected_treatment_estimate(0.3, 0.0, 0.7) == 0.3
        assert expected_treatment_estimate(0.3, 0.7, 0.0) == 0.3

    def test_sweep_means_within_monte_carlo_error_of_oracle(self):
        # |cell mean - closed form| should stay below 4 standard errors of the
        # mean, with the spread recomputed from the per-repetition estimates.
        text = SMALL_CONFIG.replace("grid.z_e = 0.1, 0.5", "grid.z_e = -0.5, 0.3") \
                           .replace("grid.z_t = 0.1", "grid.z_t = 0.4") \
                           .replace("n = 5, 20", "n = 50") \
                           .replace("repetitions = 40", "repetitions = 150")
        config = parse_sweep_config(text)
        result = run_sweep(config)
        for gi, point in enumerate(config.grid_points()):
            spec = config.template.bind({**config.fixed, **dict(zip(config.grid_names, point))})
            # Every grid point shares the draws of size index 0, so the cell
            # run alone has the same estimates as in the sweep.
            estimates, failures = cell_estimates(
                spec, 50, config.outcome, config.predictors, config.repetitions,
                (config.seed, 0),
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
