"""Command-line front end tying the library into a study-planning workflow.

Subcommands follow the order of a pre-study confounding analysis: ``adjust``
and ``augment`` interrogate the causal DAG, ``fit``/``smd`` produce ballpark
effect estimates, ``tip``/``evalue`` run quick sensitivity analyses, and
``simulate`` runs the full simulation sweep.  Exit codes: 0 success, 1
input/usage error, 2 analysis verdict "no observed-only adjustment set
exists" (from ``adjust``).

Every report carries a run manifest (command, sha256 of each input file,
seed, version, timestamp): embedded under ``"manifest"`` with ``--json``,
written next to the output file for ``simulate -o``, and printed to stderr
otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .adjustment import (
    CausalQuery,
    edge_confounder_report,
    format_set,
    minimal_adjustment_sets,
)
from .dag import parse_dag
from .scm import parse_sweep_config, run_sweep
from .sensitivity import (
    EValueInput,
    evalue_curve,
    evalue_curve_csv,
    evalue_ols,
    tip_n_confounders,
    tip_outcome_effect,
    tip_smd,
)
from .stats import ols_fit, parse_csv_bytes, parse_value_groups, scaled_mean_diff

_WORKFLOW = (
    "study-planning workflow: (1) survey variables, (2) draw the causal DAG, "
    "(3) compute adjustment sets, (4) ballpark the effect estimates, "
    "(5) tipping-point/E-value sensitivity checks, (6) simulation sweep."
)

# The most deltas --delta-range accepts: each costs time and memory, and a
# tiny STEP could otherwise ask for billions.
_MAX_DELTAS = 100_000


class UsageError(ValueError):
    pass


def _finite_float(text: str) -> float:
    """argparse ``type`` of the numeric flags: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number at all: the same error as "nan"
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this toolkit reserves 2
    # for the "no observed-only adjustment set" verdict, so remap to 1.
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@dataclass
class RunManifest:
    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    seed: int | None = None
    version: str = __version__
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    )

    def add_input(self, path: str | Path) -> bytes:
        """Read ``path`` (``-`` for stdin) once and record the sha256 of its bytes."""
        data = sys.stdin.buffer.read() if str(path) == "-" else Path(path).read_bytes()
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        return data

    def to_dict(self) -> dict:
        return asdict(self)

    def print_stderr(self) -> None:
        print(f"# run command={self.command} version={self.version} "
              f"seed={self.seed if self.seed is not None else '-'} "
              f"time={self.timestamp}", file=sys.stderr)
        for path, digest in self.inputs.items():
            print(f"# input {path} sha256={digest}", file=sys.stderr)


def _emit(payload: dict, text: str, manifest: RunManifest, as_json: bool) -> None:
    if as_json:
        print(json.dumps({**payload, "manifest": manifest.to_dict()}, indent=2), flush=True)
    else:
        print(text, end="" if text.endswith("\n") else "\n", flush=True)
        manifest.print_stderr()


def _load_dag(args, manifest: RunManifest):
    data = manifest.add_input(args.dag_file)
    dag = parse_dag(data.decode("utf-8-sig"))
    treatment = args.treatment or dag.treatment
    outcome = args.outcome or dag.outcome
    if treatment is None or outcome is None:
        missing = "treatment" if treatment is None else "outcome"
        raise UsageError(
            f"no {missing} given: declare it in the DAG file or pass --{missing}"
        )
    return CausalQuery(dag, treatment, outcome)


def cmd_adjust(args, manifest: RunManifest) -> int:
    query = _load_dag(args, manifest)
    with_latents = minimal_adjustment_sets(query)
    observed = [s for s in with_latents if not s & query.dag.latent]
    shown = with_latents if args.with_latents else observed
    scope = "latent nodes allowed" if args.with_latents else "observed nodes only"
    lines = [f"minimal adjustment sets for {query.treatment} -> {query.outcome} ({scope}):"]
    lines += [f"  {format_set(s)}" for s in shown] if shown else ["  (none)"]
    if not observed:
        lines.append("no observed-only adjustment set exists")
    payload = {
        "treatment": query.treatment,
        "outcome": query.outcome,
        "observed_sets": [sorted(s) for s in observed],
        "sets_with_latents": [sorted(s) for s in with_latents],
        "exists_observed_only": bool(observed),
    }
    _emit(payload, "\n".join(lines) + "\n", manifest, args.json)
    return 0 if observed else 2


def cmd_augment(args, manifest: RunManifest) -> int:
    query = _load_dag(args, manifest)
    report = edge_confounder_report(query)
    text = (
        f"adjustment sets for {query.treatment} -> {query.outcome} after "
        f"confounding each edge:\n" + report.to_text()
    )
    _emit(report.to_json_dict(), text, manifest, args.json)
    return 0


def cmd_tip(args, manifest: RunManifest) -> int:
    def need(flag_value, flag, absent=()):
        if flag_value is None:
            raise UsageError(f"--solve {args.solve} requires --{flag}")
        for name in absent:
            if getattr(args, name) is not None:
                raise UsageError(f"--solve {args.solve} conflicts with --{name}")
        return flag_value

    if args.solve == "smd":
        result = tip_smd(args.observed, need(args.effect, "effect", absent=("smd",)))
        sentence = (
            f"an SMD of {result.value:.3f} for the confounder-treatment link would "
            f"suffice to flip the sign of the measured effect ({args.observed:g})"
        )
    elif args.solve == "effect":
        result = tip_outcome_effect(args.observed, need(args.smd, "smd", absent=("effect",)))
        sentence = (
            f"a confounder-outcome effect of {result.value:.3f} would suffice to "
            f"flip the sign of the measured effect ({args.observed:g})"
        )
    else:
        result = tip_n_confounders(
            args.observed, need(args.smd, "smd"), need(args.effect, "effect")
        )
        sentence = (
            f"{result.value:.2f} confounders of the given strength would suffice to "
            f"flip the sign of the measured effect ({args.observed:g}); at least "
            f"{math.ceil(result.value)} whole confounders strictly flip it"
        )
    payload = {"solve": result.kind, "observed": args.observed, "value": result.value}
    if result.kind == "n_confounders_needed":
        payload["whole_confounders"] = math.ceil(result.value)
    _emit(payload, f"{result.value!r}\n{sentence}\n", manifest, args.json)
    return 0


def _parse_delta_range(spec: str) -> list[float]:
    """The deltas LOW, LOW + STEP, ..., HIGH; checked before any is built."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError("--delta-range takes LOW:HIGH:STEP")
    try:
        low, high, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad --delta-range {spec!r}") from None
    if step <= 0 or high < low:
        raise UsageError("--delta-range needs LOW <= HIGH and STEP > 0")
    steps = (high - low) / step
    if not all(math.isfinite(v) for v in (low, high, step, steps)):
        raise UsageError(f"--delta-range {spec!r} needs finite values and step count")
    if low <= 0 or high > 1:
        raise UsageError("--delta-range needs 0 < LOW and HIGH <= 1")
    count = round(steps)
    if count + 1 > _MAX_DELTAS:
        raise UsageError(f"--delta-range {spec!r} asks for {count + 1} deltas; "
                         f"at most {_MAX_DELTAS} are allowed")
    # The tolerance absorbs float error in the division (0.9 / 0.1 is 8.999...).
    if abs(steps - count) > 1e-6:
        raise UsageError(f"--delta-range STEP must divide HIGH - LOW, got {spec!r}")
    return _evenly_spaced(low, high, count)


def _evenly_spaced(low: float, high: float, count: int) -> list[float]:
    """``count + 1`` values from ``low`` to ``high``, bit for bit as
    ``numpy.linspace(low, high, count + 1)`` computes them."""
    if count == 0:
        return [low]
    step = (high - low) / count
    return [i * step + low for i in range(count)] + [high]


def cmd_evalue(args, manifest: RunManifest) -> int:
    if (args.delta is None) == (args.delta_range is None):
        raise UsageError("pass exactly one of --delta or --delta-range")
    deltas = None if args.delta_range is None else _parse_delta_range(args.delta_range)
    label = "estimate"
    if args.fit is not None:
        if args.estimate is not None or args.sigma is not None or args.se is not None:
            raise UsageError("--fit conflicts with --estimate/--sigma/--se")
        if args.outcome is None or args.treatment is None:
            raise UsageError("--fit requires --outcome and --treatment")
        data = parse_csv_bytes(manifest.add_input(args.fit))
        covariates = _split(args.covariates)
        fit = ols_fit(data, args.outcome, [args.treatment, *covariates])
        estimate = fit.coefficients[args.treatment]
        std_error = fit.std_errors[args.treatment]
        sigma = fit.sigma
        label = args.treatment
    else:
        if (args.outcome, args.treatment, args.covariates) != (None, None, None):
            raise UsageError("--outcome, --treatment and --covariates require --fit")
        if args.se is not None and args.delta_range is not None:
            raise UsageError("--se conflicts with --delta-range: a curve holds point E-values only")
        if args.estimate is None or args.sigma is None:
            raise UsageError("pass --estimate and --sigma, or --fit with column names")
        estimate, sigma = args.estimate, args.sigma
        std_error = args.se if args.se is not None else 0.0

    if args.delta is not None:
        result = evalue_ols(
            EValueInput(estimate, std_error, sigma, args.delta),
            use_ci=args.se is not None or args.fit is not None,
        )
        payload = {
            "estimate": estimate,
            "sigma": sigma,
            "delta": args.delta,
            "evalue": result.point,
            "ci_evalue": result.ci_bound,
        }
        text = f"E-value: {result.point:.3f}\n"
        if result.ci_bound is not None:
            text += f"E-value at the 95% limit closer to the null: {result.ci_bound:.3f}\n"
        _emit(payload, text, manifest, args.json)
    else:
        rows = evalue_curve([(label, estimate, std_error, sigma)], deltas)
        payload = {
            "estimate": estimate,
            "sigma": sigma,
            "curve": [{"label": r.label, "delta": r.delta, "evalue": r.evalue} for r in rows],
        }
        _emit(payload, evalue_curve_csv(rows), manifest, args.json)
    return 0


def cmd_simulate(args, manifest: RunManifest) -> int:
    if args.output is not None and args.json:
        raise UsageError("--json conflicts with --output")
    config = parse_sweep_config(manifest.add_input(args.config).decode("utf-8-sig"))
    manifest.seed = config.seed
    if args.output is None:
        result = run_sweep(config)
        _emit(result.to_json_dict(), result.to_csv(), manifest, args.json)
    else:
        # Both files are opened before the sweep, so an unwritable OUT is
        # reported at once rather than after the whole sweep has run.  They
        # are opened to append and emptied only when written, so a failure
        # leaves an existing OUT as it was.
        with open(args.output, "a") as out, open(f"{args.output}.manifest.json", "a") as side:
            result = run_sweep(config)
            for file, text in ((out, result.to_csv()),
                               (side, json.dumps(manifest.to_dict(), indent=2) + "\n")):
                if stat.S_ISREG(os.fstat(file.fileno()).st_mode):  # not a pipe or device
                    file.truncate(0)
                file.write(text)
    if all(cell.failed for cell in result.cells):
        print("error: every sweep cell failed to produce estimates", file=sys.stderr)
        return 1
    return 0


def cmd_fit(args, manifest: RunManifest) -> int:
    data = parse_csv_bytes(manifest.add_input(args.csv_file))
    fit = ols_fit(data, args.outcome, _split(args.predictors))
    lines = [f"n = {fit.n}", f"intercept = {fit.intercept:.6g}"]
    for name in fit.coefficients:
        lines.append(
            f"{name}: coef {fit.coefficients[name]:.6g} (se {fit.std_errors[name]:.3g})"
        )
    lines.append(f"sigma = {fit.sigma:.6g}")
    _emit(fit.to_json_dict(), "\n".join(lines) + "\n", manifest, args.json)
    return 0


def cmd_smd(args, manifest: RunManifest) -> int:
    data = manifest.add_input(args.csv_file)
    values, labels = parse_value_groups(data, args.value, args.group)
    diff = scaled_mean_diff(values, labels, args.treat, args.ref)
    payload = {
        "value_column": args.value,
        "group_column": args.group,
        "treat": args.treat,
        "reference": args.ref,
        "smd": diff,
    }
    _emit(payload, f"SMD({args.treat} - {args.ref}) = {diff:.4f}\n", manifest, args.json)
    return 0


def _split(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [part.strip() for part in raw.split(",") if part.strip()]


def _arg(*flags, **options):
    """One argument of a subcommand, as ``add_argument`` takes it."""
    return flags, options


def build_parser() -> _Parser:
    parser = _Parser(prog="ovbkit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ovbkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, step, *arguments):
        """Declare subcommand ``name``: its own arguments, then the shared flags.
        ``step`` is the workflow step that ``--explain`` prints."""
        p = sub.add_parser(name, help=help)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--explain", action="store_true",
                       help="note which workflow step this command serves")
        p.set_defaults(run=run, step=step)

    dag = (_arg("dag_file"), _arg("--treatment"), _arg("--outcome"))
    command("adjust", cmd_adjust, "minimal backdoor adjustment sets",
            "step 3: lists the covariate sets that block all backdoor paths.",
            *dag, _arg("--with-latents", action="store_true",
                       help="allow latent nodes in the displayed sets"))
    command("augment", cmd_augment, "per-edge hypothetical-confounder analysis",
            "step 3: stress-tests the adjustment sets against a hypothetical "
            "confounder on each edge.",
            *dag)
    command("fit", cmd_fit, "ordinary least squares on a CSV",
            "step 4: ballpark effect estimates from a regression fit.",
            _arg("csv_file"),
            _arg("--outcome", required=True),
            _arg("--predictors", required=True, help="comma-separated column names"))
    command("smd", cmd_smd, "scaled-mean difference between two groups",
            "step 4: ballpark confounder-treatment association as a scaled-mean difference.",
            _arg("csv_file"),
            _arg("--value", required=True, help="numeric column"),
            _arg("--group", required=True, help="group-tag column"),
            _arg("--treat", required=True),
            _arg("--ref", required=True))
    command("tip", cmd_tip, "tipping-point analysis of a measured effect",
            "step 5: how strong a confounder would have to be to flip the measured effect.",
            _arg("--observed", type=_finite_float, required=True,
                 help="measured treatment-outcome effect"),
            _arg("--solve", choices=("smd", "effect", "n"), required=True),
            _arg("--smd", type=_finite_float, help="confounder-treatment SMD"),
            _arg("--effect", type=_finite_float, help="confounder-outcome effect"))
    command("evalue", cmd_evalue, "E-value of a fitted effect",
            "step 5: minimum confounder association (risk-ratio scale) that could "
            "explain the effect away.",
            _arg("--estimate", type=_finite_float),
            _arg("--sigma", type=_finite_float, help="residual standard deviation"),
            _arg("--se", type=_finite_float, help="standard error (adds a CI E-value)"),
            _arg("--fit", metavar="CSV", help="derive estimate/se/sigma from a fit"),
            _arg("--outcome", help="outcome column for --fit"),
            _arg("--treatment", help="treatment column for --fit"),
            _arg("--covariates", help="comma-separated extra predictors for --fit"),
            _arg("--delta", type=_finite_float, help="treatment change of interest"),
            _arg("--delta-range", metavar="LOW:HIGH:STEP",
                 help="sweep delta and emit a CSV curve"))
    command("simulate", cmd_simulate, "run a simulation sweep from a config file",
            "step 6: Monte Carlo sweep of estimate bias under hypothetical confounding.",
            _arg("config"),
            _arg("-o", "--output", help="write CSV here (plus <output>.manifest.json)"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.explain:
            print(f"{_WORKFLOW}\n`{args.command}` serves {args.step}", file=sys.stderr)
        return args.run(args, RunManifest(args.command))
    except BrokenPipeError:
        # The reader of stdout left early (``| head``); that is not an input
        # error.  Point stdout at devnull so the exit-time flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the allocation that failed; Python's is empty.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
