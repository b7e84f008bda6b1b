import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ovbkit.cli import _parse_delta_range, main
from ovbkit.fixtures import fixture_path
from ovbkit.scm import confounded_scm, expected_treatment_estimate, load_sweep_config, sample

SMALL_CONFIG = """\
param.b_e = 0.3
param.b_s = 0.3
param.k_e = 0.1
param.k_s = 0.1
param.o_e = 0.5
param.o_t = 0.5
param.s_e = -0.1
param.s_t = -0.1
grid.t_e = 0.3
grid.z_e = 0.0
grid.z_t = 0.0
n = 50
repetitions = 60
seed = 424242
outcome = E
predictors = T, B, K, O, S
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMANDS = ("adjust", "augment", "fit", "smd", "tip", "evalue", "simulate")


def successful_argv(name, tmp_path):
    """Arguments of a run of subcommand ``name`` on small inputs that exits 0."""
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("y,t,g\n1,0,0\n2,1,0\n4,1,1\n3,0,1\n")
    config = tmp_path / "sweep.conf"
    config.write_text(SMALL_CONFIG)
    dag = str(fixture_path("productivity.dag"))
    return {
        "adjust": ["adjust", dag],
        "augment": ["augment", dag],
        "fit": ["fit", str(csv_path), "--outcome", "y", "--predictors", "t"],
        "smd": ["smd", str(csv_path), "--value", "y", "--group", "g", "--treat", "1",
                "--ref", "0"],
        "tip": ["tip", "--observed", "-0.05", "--effect", "0.8", "--solve", "smd"],
        "evalue": ["evalue", "--estimate", "1", "--sigma", "1", "--delta", "0.5"],
        "simulate": ["simulate", str(config)],
    }[name]


@pytest.fixture(scope="module")
def productivity():
    return str(fixture_path("productivity.dag"))


@pytest.fixture(scope="module")
def triangle():
    return str(fixture_path("confounder-triangle.dag"))


class TestAdjust:
    def test_productivity_sets(self, capsys, productivity):
        code, out, err = run(capsys, "adjust", productivity)
        assert code == 0
        assert "{O, S}" in out
        assert "# run command=adjust" in err

    def test_latent_only_set_exits_2(self, capsys, triangle):
        code, out, _ = run(capsys, "adjust", triangle, "--with-latents")
        assert code == 2
        assert "{Z}" in out
        assert "no observed-only adjustment set exists" in out

    def test_json_payload(self, capsys, productivity):
        code, out, _ = run(capsys, "adjust", productivity, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["observed_sets"] == [["O", "S"]]
        assert payload["exists_observed_only"] is True
        digest = hashlib.sha256(Path(productivity).read_bytes()).hexdigest()
        assert payload["manifest"]["inputs"][productivity] == digest

    def test_flag_overrides_file_roles(self, capsys, productivity):
        code, out, _ = run(capsys, "adjust", productivity, "--treatment", "S",
                           "--outcome", "E", "--json")
        assert code == 0
        assert json.loads(out)["treatment"] == "S"

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.dag"
        bad.write_text("X -> \n")
        code, _, err = run(capsys, "adjust", str(bad))
        assert code == 1
        assert "line 1" in err

    def test_undecodable_byte_names_its_line_and_offset(self, capsys, tmp_path):
        dag = tmp_path / "bad.dag"
        dag.write_bytes(b"A -> B\n\xff -> C\n")
        expected = ("error: line 2: 'utf-8' codec can't decode byte 0xff in position 7: "
                    "invalid start byte\n")
        assert run(capsys, "adjust", str(dag)) == (1, "", expected)

    def test_byte_order_mark(self, capsys, tmp_path):
        dag = tmp_path / "bom.dag"
        dag.write_bytes(b"\xef\xbb\xbfX -> Y\ntreatment X\noutcome Y\n")
        code, out, err = run(capsys, "adjust", str(dag), "--json")
        assert code == 0, err
        assert json.loads(out)["observed_sets"] == [[]]

    def test_missing_roles(self, capsys, tmp_path):
        anon = tmp_path / "anon.dag"
        anon.write_text("X -> Y\n")
        code, _, err = run(capsys, "adjust", str(anon))
        assert code == 1
        assert "--treatment" in err

    def test_one_missing_role_is_named(self, capsys, tmp_path):
        anon = tmp_path / "anon.dag"
        anon.write_text("X -> Y\n")
        expected = "error: no outcome given: declare it in the DAG file or pass --outcome\n"
        assert run(capsys, "adjust", str(anon), "--treatment", "X") == (1, "", expected)


class TestAugment:
    def test_table_output(self, capsys, productivity):
        code, out, _ = run(capsys, "augment", productivity)
        assert code == 0
        rows = [line for line in out.splitlines() if "->" in line and "confounding" not in line]
        assert len(rows) == 18
        assert any("T -> E" in line and "unadjustable" in line for line in rows)

    def test_json_output(self, capsys, productivity):
        code, out, _ = run(capsys, "augment", productivity, "--json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["edges"]) == 18
        by_edge = {(e["from"], e["to"]): e for e in payload["edges"]}
        assert by_edge[("S", "T")]["observed_sets"] == [["B", "K", "O", "S"]]
        assert by_edge[("T", "E")]["unadjustable"] is True

    def test_single_edge(self, capsys, tmp_path):
        dag = tmp_path / "one.dag"
        dag.write_text("treatment X\noutcome Y\nX -> Y\n")
        code, out, _ = run(capsys, "augment", str(dag), "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["edges"]) == 1
        assert payload["edges"][0]["unadjustable"] is True

    def test_a_node_named_like_a_confounder(self, capsys, tmp_path):
        dag = tmp_path / "taken.dag"
        dag.write_text("treatment T\noutcome E\nT -> E\nZ_T_E -> E\n")
        code, out, err = run(capsys, "augment", str(dag), "--json")
        assert code == 0, err
        by_edge = {(e["from"], e["to"]): e for e in json.loads(out)["edges"]}
        assert by_edge[("T", "E")]["sets"] == [["Z_T_E_1"]]
        assert by_edge[("Z_T_E", "E")]["sets"] == [[]]


class TestTip:
    def test_solve_smd(self, capsys):
        code, out, _ = run(capsys, "tip", "--observed", "-0.052",
                           "--effect", "0.835", "--solve", "smd")
        assert code == 0
        assert "-0.062" in out

    def test_solve_effect(self, capsys):
        code, out, _ = run(capsys, "tip", "--observed", "-0.052",
                           "--smd", "-1.545", "--solve", "effect", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(0.034, abs=0.0005)

    def test_solve_n_reports_both_readings(self, capsys):
        code, out, _ = run(capsys, "tip", "--observed", "-0.052", "--smd", "-0.15",
                           "--effect", "0.17", "--solve", "n")
        assert code == 0
        assert "2.04" in out
        assert "at least 3 whole confounders" in out

    def test_solve_n_with_a_zero_observed_effect(self, capsys):
        code, out, err = run(capsys, "tip", "--observed", "0", "--solve", "n",
                             "--smd", "0.5", "--effect", "0.4")
        assert (code, out) == (1, "")
        assert err == "error: the observed effect is zero; there is no sign to flip\n"

    def test_solve_n_with_an_underflowing_product(self, capsys):
        # Neither factor is zero; the count, 3e399, is beyond the largest float.
        code, out, err = run(capsys, "tip", "--observed", "0.3", "--solve", "n",
                             "--smd", "1e-200", "--effect", "1e-200")
        assert (code, out, err) == (1, "", "error: tipping result is not finite\n")

    def test_solve_n_at_a_whole_count_needs_one_more(self, capsys):
        # 0.2 / (0.5 * 0.4) is exactly 1: one confounder only cancels the effect.
        argv = ("tip", "--observed", "0.2", "--solve", "n", "--smd", "0.5", "--effect", "0.4")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == "1.0"
        assert "at least 2 whole confounders strictly flip it" in out
        code, out, _ = run(capsys, *argv, "--json")
        assert json.loads(out)["whole_confounders"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("tip", "--observed", "-0.05", "--solve", "smd"),  # missing --effect
            ("tip", "--observed", "-0.05", "--solve", "effect"),  # missing --smd
            ("tip", "--observed", "-0.05", "--solve", "n", "--smd", "0.1"),
            ("tip", "--observed", "-0.05", "--solve", "smd",
             "--effect", "0.8", "--smd", "0.1"),  # conflicting extras
            ("tip", "--observed", "-0.05", "--solve", "smd", "--effect", "0"),
        ],
    )
    def test_inconsistent_flags(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error" in err


class TestEvalue:
    def test_point(self, capsys):
        code, out, _ = run(capsys, "evalue", "--estimate", "0.1",
                           "--sigma", "1", "--delta", "0.1")
        assert code == 0
        assert "1.105" in out

    def test_null_estimate(self, capsys):
        code, out, _ = run(capsys, "evalue", "--estimate", "0",
                           "--sigma", "1", "--delta", "0.5", "--json")
        assert json.loads(out)["evalue"] == 1.0

    def test_curve(self, capsys):
        code, out, _ = run(capsys, "evalue", "--estimate", "0.3", "--sigma", "1",
                           "--delta-range", "0.01:0.5:0.01")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,delta,evalue"
        assert len(lines) == 51
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values == sorted(values)

    def test_fit_source(self, capsys, tmp_path):
        data = sample(confounded_scm(), 50_000, seed=303)
        csv_path = tmp_path / "triangle.csv"
        csv_path.write_text(data.to_csv())
        code, out, _ = run(capsys, "evalue", "--fit", str(csv_path), "--outcome", "Y",
                           "--treatment", "X", "--covariates", "Z",
                           "--delta", "0.1", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["estimate"] == pytest.approx(0.4, abs=0.02)
        assert payload["ci_evalue"] is not None

    @pytest.mark.parametrize("spec", ["0:inf:1", "nan:1:0.1", "0.1:1:1e-320", "0:1:inf"])
    def test_delta_range_without_a_finite_count(self, capsys, spec):
        code, out, err = run(capsys, "evalue", "--estimate", "0.3", "--sigma", "1",
                             "--delta-range", spec)
        message = f"error: --delta-range {spec!r} needs finite values and step count\n"
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ("evalue", "--estimate", "0.1", "--delta", "0.1"),  # no sigma
            ("evalue", "--estimate", "0.1", "--sigma", "1"),  # no delta
            ("evalue", "--estimate", "0.1", "--sigma", "1",
             "--delta", "0.1", "--delta-range", "0.1:0.2:0.1"),
            ("evalue", "--estimate", "0.1", "--sigma", "0", "--delta", "0.1"),
            ("evalue", "--estimate", "0.1", "--sigma", "1", "--delta-range", "oops"),
            ("evalue", "--fit", "x.csv", "--outcome", "y", "--treatment", "x",
             "--se", "0.1", "--delta", "0.1"),
        ],
    )
    def test_bad_flag_combinations(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error" in err

    def test_benchmark_range_deltas(self, capsys):
        code, out, _ = run(capsys, "evalue", "--estimate", "1", "--sigma", "1",
                           "--delta-range", "0.1:1.0:0.1")
        assert code == 0
        assert [line.split(",")[1] for line in out.splitlines()] == [
            "delta", "0.1", "0.2", "0.30000000000000004", "0.4", "0.5", "0.6",
            "0.7000000000000001", "0.8", "0.9", "1.0",
        ]

    @pytest.mark.parametrize("spec, message", [
        ("0.1:1:0.25", "--delta-range STEP must divide HIGH - LOW, got '0.1:1:0.25'"),
        ("0.1:1000000:1", "--delta-range needs 0 < LOW and HIGH <= 1"),
        ("0:1:0.1", "--delta-range needs 0 < LOW and HIGH <= 1"),
        ("0.1:1:1e-9", "--delta-range '0.1:1:1e-9' asks for 900000001 deltas; "
                       "at most 100000 are allowed"),
        ("0.000005:1:0.000005", "--delta-range '0.000005:1:0.000005' asks for "
                                "200000 deltas; at most 100000 are allowed"),
        ("0.5:1:0.000005", "--delta-range '0.5:1:0.000005' asks for "
                           "100001 deltas; at most 100000 are allowed"),
        ("0.1:1:0", "--delta-range needs LOW <= HIGH and STEP > 0"),
        ("0.5:0.1:0.1", "--delta-range needs LOW <= HIGH and STEP > 0"),
    ], ids=["step-does-not-divide", "high-above-1", "low-at-0", "900M-deltas", "200k-deltas",
            "one-past-the-cap", "step-0", "high-below-low"])
    def test_delta_range_is_checked_before_the_grid_is_built(
        self, capsys, monkeypatch, spec, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr("ovbkit.cli._evenly_spaced", refuse)
        code, out, err = run(capsys, "evalue", "--estimate", "0.3", "--sigma", "1",
                             "--delta-range", spec)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_delta_range_matches_numpy_linspace(self):
        # The grid is linspace's own arithmetic, so the curve's deltas keep
        # the bytes they had when numpy built them.
        rng = np.random.default_rng(16)
        specs = ["0.1:1.0:0.1", "0.00001:1:0.00001", "0.5:0.5:0.1"]
        for _ in range(20_000):
            low, high = (float(v) for v in np.sort(rng.uniform(1e-6, 1.0, 2)))
            count = int(rng.integers(1, 100))
            specs.append(f"{low!r}:{high!r}:{(high - low) / count!r}")
        built = 0
        for spec in specs:
            try:
                deltas = _parse_delta_range(spec)
            except ValueError:
                continue
            low, high = (float(v) for v in spec.split(":")[:2])
            expected = np.linspace(low, high, len(deltas))
            assert np.array(deltas).tobytes() == expected.tobytes(), spec
            built += 1
        assert built > 19_000

    @pytest.mark.parametrize("argv, message", [
        (["evalue", "--estimate", "1", "--sigma", "1", "--delta", "0.5",
          "--outcome", "y", "--treatment", "t", "--covariates", "a,b"],
         "--outcome, --treatment and --covariates require --fit"),
        (["evalue", "--estimate", "1", "--sigma", "1", "--delta", "0.5", "--covariates", "a"],
         "--outcome, --treatment and --covariates require --fit"),
        (["evalue", "--estimate", "1", "--sigma", "1", "--se", "0.1",
          "--delta-range", "0.5:1:0.5"],
         "--se conflicts with --delta-range: a curve holds point E-values only"),
        # The delta flags are checked before --fit is read.
        (["evalue", "--fit", "no-such-file.csv", "--outcome", "y", "--treatment", "t"],
         "pass exactly one of --delta or --delta-range"),
        (["evalue", "--fit", "no-such-file.csv", "--outcome", "y", "--treatment", "t",
          "--delta", "1", "--delta-range", "0.1:1:0.1"],
         "pass exactly one of --delta or --delta-range"),
        (["evalue", "--fit", "no-such-file.csv", "--outcome", "y", "--treatment", "t",
          "--delta-range", "0:1:0.1"],
         "--delta-range needs 0 < LOW and HIGH <= 1"),
        # One conflicting or one missing flag is enough, before --fit is read.
        (["evalue", "--fit", "no-such-file.csv", "--outcome", "y", "--treatment", "t",
          "--estimate", "1", "--delta", "0.5"],
         "--fit conflicts with --estimate/--sigma/--se"),
        (["evalue", "--fit", "no-such-file.csv", "--outcome", "y", "--delta", "0.5"],
         "--fit requires --outcome and --treatment"),
        # The JSON payload lists the sets with and without latents either way;
        # the flags are checked before the DAG is read.
        (["adjust", "no-such-file.dag", "--with-latents", "--json"],
         "--with-latents conflicts with --json: the JSON holds both lists"),
    ], ids=["fit-columns-without-fit", "covariates-without-fit", "se-with-curve",
            "fit-without-delta", "fit-with-both-deltas", "fit-with-bad-delta-range",
            "fit-with-estimate", "fit-without-treatment", "adjust-with-latents-json"])
    def test_ignored_flags_are_refused(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_a_range_of_one_delta(self):
        assert _parse_delta_range("0.5:0.5:0.1") == [0.5]

    def test_delta_range_at_the_cap(self):
        deltas = _parse_delta_range("0.00001:1:0.00001")
        assert len(deltas) == 100_000
        assert (deltas[0], deltas[-1]) == (0.00001, 1.0)

    def test_delta_range_quotes_labels(self, capsys, tmp_path):
        csv_path = tmp_path / "dose.csv"
        csv_path.write_text('y,"dose, mg"\n' + "".join(
            f"{i + (-1) ** i * 0.5},{i}\n" for i in range(10)
        ))
        code, out, err = run(capsys, "evalue", "--fit", str(csv_path), "--outcome", "y",
                             "--treatment", "dose, mg", "--delta-range", "0.5:1:0.5")
        assert code == 0, err
        header, *rows = csv.reader(out.splitlines())
        assert header == ["label", "delta", "evalue"]
        assert len(rows) == 2
        assert all(len(row) == 3 and row[0] == "dose, mg" for row in rows)


class TestFiniteFlags:
    TIP = ["tip", "--observed", "0.3", "--solve", "n", "--smd", "0.5", "--effect", "0.4"]
    EVALUE = ["evalue", "--estimate", "1", "--sigma", "1", "--se", "0.1", "--delta", "0.5"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    @pytest.mark.parametrize("flag", [
        "--observed", "--smd", "--effect", "--estimate", "--sigma", "--se", "--delta",
    ])
    def test_non_finite_value_is_a_usage_error(self, capsys, flag, value):
        argv = list(self.TIP if flag in self.TIP else self.EVALUE)
        assert run(capsys, *argv)[0] == 0
        at = argv.index(flag)
        argv[at:at + 2] = [f"{flag}={value}"]  # "-inf" alone would read as a flag
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: ovbkit {argv[0]}: argument {flag}: "
                       f"expected a finite number, got {value!r}\n")


class TestSimulate:
    def test_writes_csv_and_manifest(self, capsys, tmp_path):
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "simulate", str(config), "-o", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t_e,z_e,z_t,n,mean,l50,u50,l95,u95,failures"
        assert len(lines) == 2
        mean = float(lines[1].split(",")[4])
        assert mean == pytest.approx(0.3, abs=0.04)  # unconfounded cell
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["seed"] == 424242
        assert str(config) in manifest["inputs"]

    def test_undecodable_byte_names_its_line_and_offset(self, capsys, tmp_path):
        # The offset counts from the start of the file, byte-order mark included.
        config = tmp_path / "sweep.conf"
        config.write_bytes(b"\xef\xbb\xbf" + SMALL_CONFIG.encode().replace(b"424242", b"\xff"))
        expected = ("error: line 14: 'utf-8' codec can't decode byte 0xff in position 209: "
                    "invalid start byte\n")
        assert run(capsys, "simulate", str(config)) == (1, "", expected)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "simulate", str(config), "-o", str(first))[0] == 0
        assert run(capsys, "simulate", str(config), "-o", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_json_with_output_is_refused(self, capsys, tmp_path, monkeypatch):
        def refuse(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("ovbkit.scm.run_sweep", refuse)
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        out_csv = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "simulate", str(config), "-o", str(out_csv), "--json")
        assert (code, out, err) == (1, "", "error: --json conflicts with --output\n")
        assert list(tmp_path.iterdir()) == [config]
        # The check comes before the config is read.
        missing = tmp_path / "missing.conf"
        code, _, err = run(capsys, "simulate", str(missing), "-o", str(out_csv), "--json")
        assert (code, err) == (1, "error: --json conflicts with --output\n")

    @pytest.mark.parametrize("blocked", ["directory", "manifest"])
    def test_unwritable_output_fails_before_the_sweep(self, capsys, tmp_path, monkeypatch,
                                                      blocked):
        def refuse(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("ovbkit.scm.run_sweep", refuse)
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        if blocked == "directory":
            out_csv = tmp_path / "missing" / "sweep.csv"
        else:
            out_csv = tmp_path / "sweep.csv"
            (tmp_path / "sweep.csv.manifest.json").mkdir()
        code, out, err = run(capsys, "simulate", str(config), "-o", str(out_csv))
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    @pytest.mark.parametrize("failure", ["manifest-is-a-directory", "sweep-raises"])
    def test_failed_run_keeps_the_existing_output(self, capsys, tmp_path, monkeypatch,
                                                  failure):
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        out_csv = tmp_path / "out.csv"
        out_csv.write_bytes(b"a,b\n1,2\n")
        side = tmp_path / "out.csv.manifest.json"
        if failure == "manifest-is-a-directory":
            side.mkdir()
        else:
            side.write_bytes(b"{}\n")

            def exhausted(config):
                raise MemoryError()

            monkeypatch.setattr("ovbkit.scm.run_sweep", exhausted)
        code, out, err = run(capsys, "simulate", str(config), "-o", str(out_csv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out_csv.read_bytes() == b"a,b\n1,2\n"
        if side.is_file():
            assert side.read_bytes() == b"{}\n"

    def test_rerun_replaces_a_longer_output(self, capsys, tmp_path):
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        reused.write_text("x\n" * 10_000)
        (tmp_path / "reused.csv.manifest.json").write_text("x\n" * 10_000)
        assert run(capsys, "simulate", str(config), "-o", str(fresh))[0] == 0
        assert run(capsys, "simulate", str(config), "-o", str(reused))[0] == 0
        assert reused.read_bytes() == fresh.read_bytes()
        manifest = json.loads((tmp_path / "reused.csv.manifest.json").read_text())
        assert manifest["seed"] == 424242

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_to_a_named_pipe(self, capsys, tmp_path):
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        code, _, err = run(capsys, "simulate", str(config), "-o", str(fifo))
        reader.join(timeout=60)
        assert code == 0, err
        assert received and received[0].startswith("t_e,z_e,z_t,n,")

    def test_repeated_grid_values_and_sample_sizes_are_refused(self, capsys, tmp_path):
        # Each copy would take its own seed index: rows with the same key
        # and different estimates.
        edits = {"grid.t_e": "grid.t_e = 0.3, 0.3", "grid.z_e": "param.z_e = 0.1",
                 "grid.z_t": "param.z_t = 0.1", "n": "n = 10, 10"}
        lines = fixture_path("table5.conf").read_text().splitlines()
        config = tmp_path / "repeated.conf"
        config.write_text("\n".join(edits.get(line.split(" =")[0], line) for line in lines))
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out, err) == (1, "", "error: duplicate values for grid parameter 't_e'\n")
        config.write_text(config.read_text().replace("0.3, 0.3", "0.3"))
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out, err) == (1, "", "error: duplicate sample sizes in n\n")

    def test_out_of_memory_is_one_line_error(self, capsys, tmp_path, monkeypatch):
        def exhausted(config):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr("ovbkit.scm.run_sweep", exhausted)
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out) == (1, "")
        assert err == "error: out of memory: Unable to allocate 8.00 TiB for an array\n"

    def test_stdout_mode(self, capsys, tmp_path):
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        code, out, err = run(capsys, "simulate", str(config))
        assert code == 0
        assert out.startswith("t_e,")
        assert "# run command=simulate" in err

    def test_json_payload_matches_csv(self, capsys, tmp_path):
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        code, out, _ = run(capsys, "simulate", str(config), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["manifest"]["seed"] == 424242
        assert payload["manifest"]["inputs"] == {
            str(config): hashlib.sha256(SMALL_CONFIG.encode()).hexdigest()
        }
        (cell,) = payload["cells"]
        assert cell["params"] == {"t_e": 0.3, "z_e": 0.0, "z_t": 0.0}
        code, out, _ = run(capsys, "simulate", str(config))
        header, row = out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        for key in ("mean", "l50", "u50", "l95", "u95"):
            assert cell[key] == float(fields[key])
        assert (cell["n"], cell["failures"]) == (int(fields["n"]), int(fields["failures"]))

    def test_byte_order_mark(self, capsys, tmp_path):
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        bom = tmp_path / "bom.conf"
        bom.write_bytes(b"\xef\xbb\xbf" + SMALL_CONFIG.encode())
        got, want = load_sweep_config(bom), load_sweep_config(config)
        assert (got.grid, got.fixed, got.seed) == (want.grid, want.fixed, want.seed)
        code, out, err = run(capsys, "simulate", str(bom))
        assert code == 0, err
        assert out == run(capsys, "simulate", str(config))[1]

    @pytest.mark.parametrize("edits, cells", [
        ({"grid.t_e": "grid.t_e = 1e308", "n": "n = 5, 50"}, 72),
        ({"grid.t_e": "grid.t_e = 1e308", "grid.z_t": "param.z_t = 1e200", "n": "n = 5"}, 6),
        ({"grid.t_e": "grid.t_e = 0.1", "grid.z_t": "param.z_t = 1e308", "n": "n = 5"}, 6),
    ])
    def test_overflowing_estimates_fail_their_cells(self, capsys, tmp_path, edits, cells):
        # table5.conf with edge weights under which the outcome overflows, the
        # estimates sit so near the float limit that their mean does, or the
        # treatment column is finite but too large to regress.  No cell may
        # report an estimate, and numpy stays quiet.
        edits = {**edits, "repetitions": "repetitions = 20"}
        lines = fixture_path("table5.conf").read_text().splitlines()
        config = tmp_path / "overflow.conf"
        config.write_text("\n".join(edits.get(line.split(" =")[0], line) for line in lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "simulate", str(config), "--json")
        assert code == 1
        assert err == "error: every sweep cell failed to produce estimates\n"
        payload = json.loads(out)["cells"]
        assert len(payload) == cells
        assert all(cell["mean"] is None for cell in payload)

    def test_huge_outcomes_below_p_keep_their_estimates(self, capsys, tmp_path):
        # table5.conf with z_e so large that the outcome's sum of squares
        # overflows while each coefficient stays finite.  The n = 5 cells are
        # solved as the n = 10 ones are, and an estimate is linear in the
        # outcome: 1e100 times the z_e scales the mean by 1e100.
        edits = {"grid.t_e": "param.t_e = 0.3", "grid.z_e": "grid.z_e = 0.5, 1e200, 1e300",
                 "grid.z_t": "param.z_t = 0.5", "n": "n = 5, 10", "repetitions": "repetitions = 20"}
        lines = fixture_path("table5.conf").read_text().splitlines()
        config = tmp_path / "huge.conf"
        config.write_text("\n".join(edits.get(line.split(" =")[0], line) for line in lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "simulate", str(config), "--json")
        assert code == 0
        cells = {(cell["params"]["z_e"], cell["n"]): cell for cell in json.loads(out)["cells"]}
        assert len(cells) == 6
        assert all(cell["failures"] == 0 for cell in cells.values())
        ratio = cells[1e300, 5]["mean"] / cells[1e200, 5]["mean"]
        assert ratio == pytest.approx(1e100, rel=1e-12)

    def test_duplicate_predictors_are_refused(self, capsys, tmp_path):
        # Minimum-norm n = 3 cells would split T's coefficient between its
        # two copies, and every n = 50 repetition would be rank deficient.
        edits = {"predictors": "predictors = T, B, T", "grid.t_e": "grid.t_e = 0.3",
                 "grid.z_e": "grid.z_e = 0.1", "grid.z_t": "grid.z_t = 0.1",
                 "n": "n = 3, 50", "repetitions": "repetitions = 20"}
        lines = fixture_path("table5.conf").read_text().splitlines()
        config = tmp_path / "duplicate.conf"
        config.write_text("\n".join(edits.get(line.split(" =")[0], line) for line in lines))
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out, err) == (1, "", "error: duplicate predictor names\n")

    def test_latent_outcome_is_refused(self, capsys, tmp_path):
        # No analyst can observe Z, so no sweep may regress it.
        config = tmp_path / "latent.conf"
        config.write_text(SMALL_CONFIG.replace("outcome = E", "outcome = Z"))
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out) == (1, "")
        assert err == "error: latent node cannot be the regression outcome: 'Z'\n"

    def test_sample_size_beyond_numpy_is_refused(self, capsys, tmp_path):
        config = tmp_path / "huge.conf"
        config.write_text(SMALL_CONFIG.replace("n = 50", f"n = {10**30}"))
        code, out, err = run(capsys, "simulate", str(config))
        assert (code, out) == (1, "")
        assert err == f"error: sample sizes must be at most {2**63 - 1}, got {10**30}\n"

    def test_a_trillion_row_cell_runs_in_under_a_second(self, capsys, tmp_path):
        # Its Gram is drawn without its rows, so the cell takes milliseconds.
        config = tmp_path / "trillion.conf"
        config.write_text(SMALL_CONFIG.replace("n = 50", f"n = {10**12}")
                          .replace("grid.z_e = 0.0", "grid.z_e = 0.5")
                          .replace("grid.z_t = 0.0", "grid.z_t = -0.3"))
        started = time.perf_counter()
        code, out, err = run(capsys, "simulate", str(config))
        elapsed = time.perf_counter() - started
        assert code == 0, err
        assert elapsed < 1.0
        (row,) = csv.DictReader(out.splitlines())
        assert int(row["n"]) == 10**12 and row["failures"] == "0"
        oracle = expected_treatment_estimate(0.3, 0.5, -0.3)
        assert abs(float(row["mean"]) - oracle) < 0.05

    def test_config_error(self, capsys, tmp_path):
        config = tmp_path / "broken.conf"
        config.write_text("nonsense\n")
        code, _, err = run(capsys, "simulate", str(config))
        assert code == 1
        assert "error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", str(tmp_path / "nope.conf"))
        assert code == 1


class TestPipedInput:
    """Inputs are read once, so a pipe analyses and hashes the same bytes."""

    def ovbkit(self, *argv, stdin: bytes):
        return subprocess.run(
            [sys.executable, "-m", "ovbkit", *argv], input=stdin, capture_output=True
        )

    def check_fit(self, tmp_path, stdin_name):
        data = b"x,y\n0,1\n1,3\n2,5\n3,7.5\n"
        csv_path = tmp_path / "line.csv"
        csv_path.write_bytes(data)
        argv = ("--outcome", "y", "--predictors", "x", "--json")
        piped = self.ovbkit("fit", stdin_name, *argv, stdin=data)
        assert piped.returncode == 0, piped.stderr.decode()
        direct = self.ovbkit("fit", str(csv_path), *argv, stdin=b"")
        payload, expected = json.loads(piped.stdout), json.loads(direct.stdout)
        assert payload.pop("manifest")["inputs"] == {
            stdin_name: hashlib.sha256(data).hexdigest()
        }
        expected.pop("manifest")
        assert payload == expected

    def check_simulate(self, tmp_path, stdin_name):
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG)
        piped = self.ovbkit("simulate", stdin_name, stdin=SMALL_CONFIG.encode())
        assert piped.returncode == 0, piped.stderr.decode()
        direct = self.ovbkit("simulate", str(config), stdin=b"")
        assert piped.stdout == direct.stdout
        digest = hashlib.sha256(SMALL_CONFIG.encode()).hexdigest()
        assert f"# input {stdin_name} sha256={digest}" in piped.stderr.decode()

    def test_fit_from_stdin(self, tmp_path):
        self.check_fit(tmp_path, "/dev/stdin")

    def test_simulate_from_stdin(self, tmp_path):
        self.check_simulate(tmp_path, "/dev/stdin")

    def test_fit_from_dash(self, tmp_path):
        self.check_fit(tmp_path, "-")

    def test_simulate_from_dash(self, tmp_path):
        self.check_simulate(tmp_path, "-")


class TestDependencies:
    def test_runs_without_scipy(self, tmp_path):
        csv_path = tmp_path / "line.csv"
        csv_path.write_text("x,y\n0,1\n1,3\n2,5\n3,7.5\n")
        config = tmp_path / "sweep.conf"
        config.write_text(SMALL_CONFIG.replace("repetitions = 60", "repetitions = 5"))
        script = (
            "import sys; sys.modules['scipy'] = None; "
            "from ovbkit.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        for argv in (
            ("fit", str(csv_path), "--outcome", "y", "--predictors", "x"),
            ("simulate", str(config)),
        ):
            done = subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr


class TestFitAndSmd:
    def test_fit_recovers_triangle_coefficients(self, capsys, tmp_path):
        data = sample(confounded_scm(), 100_000, seed=404)
        csv_path = tmp_path / "triangle.csv"
        csv_path.write_text(data.to_csv())
        code, out, _ = run(capsys, "fit", str(csv_path), "--outcome", "Y",
                           "--predictors", "X,Z", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["coefficients"]["X"] == pytest.approx(0.40, abs=0.02)
        assert payload["coefficients"]["Z"] == pytest.approx(0.70, abs=0.02)
        assert payload["sigma"] == pytest.approx(1.0, abs=0.02)

    def test_fit_perfect_line(self, capsys, tmp_path):
        csv_path = tmp_path / "line.csv"
        csv_path.write_text("x,y\n0,1\n1,3\n2,5\n")
        code, out, _ = run(capsys, "fit", str(csv_path), "--outcome", "y",
                           "--predictors", "x", "--json")
        payload = json.loads(out)
        assert payload["sigma"] == pytest.approx(0.0, abs=1e-12)
        assert payload["intercept"] == pytest.approx(1.0)

    @pytest.mark.parametrize("predictors", ["", ",", " , "])
    def test_fit_refuses_an_empty_predictor_list(self, capsys, tmp_path, predictors):
        csv_path = tmp_path / "line.csv"
        csv_path.write_text("x,y\n0,1\n1,3\n2,5\n")
        code, out, err = run(capsys, "fit", str(csv_path), "--outcome", "y",
                             "--predictors", predictors)
        assert (code, out) == (1, "")
        assert err == "error: --predictors must name at least one column\n"

    def test_fit_rank_error(self, capsys, tmp_path):
        csv_path = tmp_path / "collinear.csv"
        csv_path.write_text("x,x2,y\n" + "".join(f"{i},{2*i},{i}\n" for i in range(9)))
        code, _, err = run(capsys, "fit", str(csv_path), "--outcome", "y",
                           "--predictors", "x,x2")
        assert code == 1
        assert "rank deficient" in err

    def test_fit_does_not_depend_on_predictor_order(self, capsys, tmp_path):
        # b is 100 a plus a little noise: so nearly collinear that the last
        # digits, and a rank rule not judged per column, could follow the order.
        rng = np.random.default_rng(3)
        a = rng.normal(size=200)
        b = 100 * a + 0.01 * rng.normal(size=200)
        y = a + rng.normal(size=200)
        csv_path = tmp_path / "near.csv"
        csv_path.write_text("a,b,y\n" + "".join(f"{u!r},{v!r},{w!r}\n" for u, v, w in zip(
            a.tolist(), b.tolist(), y.tolist())))
        outputs = {}
        for order in ("a,b", "b,a"):
            for flag in ((), ("--json",)):
                code, out, err = run(capsys, "fit", str(csv_path), "--outcome", "y",
                                     "--predictors", order, *flag)
                assert code == 0, err
                outputs[order, flag] = out
        # The JSON fits are equal, bit for bit; only the manifests' timestamps may differ.
        payloads = [json.loads(outputs[order, ("--json",)]) for order in ("a,b", "b,a")]
        assert [payload.pop("manifest")["command"] for payload in payloads] == ["fit", "fit"]
        assert payloads[0] == payloads[1]
        # The text lists the predictors in the order given, with the same numbers.
        forward, backward = outputs["a,b", ()].splitlines(), outputs["b,a", ()].splitlines()
        assert [line[:2] for line in backward[2:4]] == ["b:", "a:"]
        assert sorted(forward) == sorted(backward)

    def test_fit_does_not_depend_on_units(self, capsys, tmp_path):
        # A 0/1 flag beside a column of mean 5e4 and sd 1e4 (cond(X) near
        # 2.7e5): a pivot judged against XtX's largest diagonal entry would call
        # the flag collinear; judged against its own column, the fit matches lstsq.
        rng = np.random.default_rng(21)
        flag = (rng.random(1000) < 0.5).astype(float)
        x = 5e4 + 1e4 * rng.normal(size=1000)
        y = 0.25 * flag + 1e-5 * x + rng.normal(size=1000)
        csv_path = tmp_path / "units.csv"
        csv_path.write_text("flag,x,y\n" + "".join(f"{u!r},{v!r},{w!r}\n" for u, v, w in zip(
            flag.tolist(), x.tolist(), y.tolist())))
        code, out, err = run(capsys, "fit", str(csv_path), "--outcome", "y",
                             "--predictors", "flag,x", "--json")
        assert code == 0, err
        payload = json.loads(out)
        expected = np.linalg.lstsq(np.column_stack([np.ones(1000), flag, x]), y, rcond=None)[0]
        fitted = [payload["intercept"], payload["coefficients"]["flag"], payload["coefficients"]["x"]]
        assert np.allclose(fitted, expected, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("text", [
        "y,x\n1e200,1\n2e200,3\n-1e200,2\n5,7\n",
        "y,x\n1,1e200\n2,3e200\n-1,2e200\n5,7\n",
    ], ids=["huge-outcome", "huge-predictor"])
    @pytest.mark.parametrize("argv", [
        ("fit", "--outcome", "y", "--predictors", "x"),
        ("fit", "--outcome", "y", "--predictors", "x", "--json"),
        ("evalue", "--outcome", "y", "--treatment", "x", "--delta", "1", "--fit"),
    ])
    def test_overflowing_fit_is_one_line_error(self, capsys, tmp_path, text, argv):
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, str(csv_path))
        assert (code, out, err) == (1, "", "error: values too large to fit\n")

    @pytest.mark.parametrize("argv", [
        ("fit", "--outcome", "y", "--predictors", "t"),
        ("smd", "--value", "y", "--group", "t", "--treat", "a", "--ref", "b"),
    ])
    def test_oversized_field_is_one_line_error(self, capsys, tmp_path, argv):
        # csv's default field limit is 131,072 characters.
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("y,t\n1,2\n1," + "x" * 200_000 + "\n")
        code, out, err = run(capsys, argv[0], str(csv_path), *argv[1:])
        assert code == 1
        assert out == ""
        assert err == "error: line 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("text", ["v,g\n1,0\n2,1,9\n", "v,v\n1,0\n", 'v,g\n"1\n",2\n3\n'])
    def test_smd_and_fit_share_csv_errors(self, capsys, tmp_path, text):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        _, _, fit_err = run(capsys, "fit", str(csv_path), "--outcome", "v",
                            "--predictors", "g")
        code, out, err = run(capsys, "smd", str(csv_path), "--value", "v",
                             "--group", "g", "--treat", "1", "--ref", "0")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err == fit_err

    @pytest.mark.parametrize("data, line, position", [
        (b"y,t\n" + b"1,0\n" * 3000 + b"1,\xff\n", 3002, 12006),  # past the first 8 KB
        (b"\xef\xbb\xbfy,t\n1,\xff\n", 2, 9),                     # after a byte-order mark
    ], ids=["past-8k", "after-bom"])
    def test_undecodable_byte_names_its_line_and_offset(self, capsys, tmp_path, data, line,
                                                        position):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(data)
        expected = (f"error: line {line}: 'utf-8' codec can't decode byte 0xff in position "
                    f"{position}: invalid start byte\n")
        for argv in (("fit", "--outcome", "y", "--predictors", "t"),
                     ("smd", "--value", "y", "--group", "t", "--treat", "1", "--ref", "0")):
            assert run(capsys, argv[0], str(csv_path), *argv[1:]) == (1, "", expected)

    def test_fit_byte_order_mark(self, capsys, tmp_path):
        csv_path = tmp_path / "excel.csv"
        csv_path.write_bytes(b"\xef\xbb\xbfx,y\r\n0,1\r\n1,3\r\n2,5\r\n")
        code, out, err = run(capsys, "fit", str(csv_path), "--outcome", "y",
                             "--predictors", "x", "--json")
        assert code == 0, err
        assert json.loads(out)["coefficients"]["x"] == pytest.approx(2.0)

    def test_smd_identical_groups(self, capsys, tmp_path):
        csv_path = tmp_path / "groups.csv"
        csv_path.write_text(
            "skill,language\n0.1,java\n0.2,java\n0.3,java\n0.1,python\n0.2,python\n0.3,python\n"
        )
        code, out, _ = run(capsys, "smd", str(csv_path), "--value", "skill",
                           "--group", "language", "--treat", "python", "--ref", "java")
        assert code == 0
        assert "0.0000" in out

    @pytest.mark.parametrize("scale", ["e200", "e-320"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_smd_at_any_scale(self, capsys, tmp_path, scale, as_json):
        # Group a is 1, 2, 3 times a huge or subnormal unit; its standardized
        # mean is 2 at any scale, so the SMD is 2 - (7/3) / sqrt(7/3).
        csv_path = tmp_path / "scaled.csv"
        csv_path.write_text(f"v,g\n1{scale},a\n2{scale},a\n3{scale},a\n1,b\n2,b\n4,b\n")
        flags = ["--json"] if as_json else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "smd", str(csv_path), "--value", "v", "--group", "g",
                                 "--treat", "a", "--ref", "b", *flags)
        assert code == 0, err
        if as_json:
            assert json.loads(out)["smd"] == pytest.approx(0.472474768348053, abs=1e-12)
        else:
            assert out == "SMD(a - b) = 0.4725\n"

    def test_smd_refuses_the_same_group_twice(self, capsys, tmp_path):
        csv_path = tmp_path / "groups.csv"
        csv_path.write_text("v,g\n1,a\n2,a\n3,b\n5,b\n")
        code, out, err = run(capsys, "smd", str(csv_path), "--value", "v", "--group", "g",
                             "--treat", "a", "--ref", "a")
        assert (code, out) == (1, "")
        assert err == "error: treat and reference are the same group 'a'\n"

    def test_smd_json(self, capsys, tmp_path):
        csv_path = tmp_path / "groups.csv"
        csv_path.write_text(
            "skill,language\n2,a\n3,a\n4,a\n0,b\n1,b\n2,b\n"
        )
        code, out, _ = run(capsys, "smd", str(csv_path), "--value", "skill",
                           "--group", "language", "--treat", "a", "--ref", "b", "--json")
        assert json.loads(out)["smd"] == pytest.approx(2.0)


class TestHarness:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("name", COMMANDS)
    def test_explain_notes_the_workflow(self, capsys, tmp_path, name):
        code, _, err = run(capsys, *successful_argv(name, tmp_path), "--explain")
        assert code == 0
        assert err.startswith("study-planning workflow: ")
        assert f"\n`{name}` serves step " in err
        assert f"\n# run command={name} " in err

    @pytest.mark.parametrize("name", COMMANDS)
    def test_manifest_names_the_command(self, capsys, tmp_path, name):
        argv = successful_argv(name, tmp_path)
        if name == "simulate":
            code, _, _ = run(capsys, *argv, "-o", str(tmp_path / "sweep.csv"))
            manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        else:
            code, out, _ = run(capsys, *argv, "--json")
            manifest = json.loads(out)["manifest"]
        assert code == 0
        assert list(manifest) == ["command", "inputs", "seed", "version", "timestamp"]
        assert manifest["command"] == name

    def test_closed_stdout_is_not_an_error(self, productivity):
        # The reading end is closed before the child starts, so its first
        # write to stdout fails (as under `| head` once head has exited).
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "ovbkit", "augment", productivity, "--json"],
                stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")
