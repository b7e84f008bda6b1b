"""Golden outputs of the ``ovbkit`` command: the cases, and their regeneration.

Each case runs ``ovbkit.cli.main`` in-process from the repository root, so
that input paths (and so the manifests that name them) are the same on every
machine.  Its exit code, stdout, stderr and any files it wrote are rendered
as one text file, ``expected/<case>.txt``.  The manifest's timestamp and the
package version are masked.

``tests/test_golden.py`` compares every case with its file: byte for byte,
except that the cases whose numbers pass through numpy (``fit``, ``smd``,
``evalue --fit`` and ``simulate``) compare number tokens at a relative
tolerance of 1e-12, because floating-point kernels differ across CPUs.
``--help`` and argparse's own error messages are left out: their wording
differs between Python versions.

The stdout of every demo script is recorded too, as ``expected/demo-NN.txt``,
and ``tests/test_demos.py`` compares it by the same rules: the demos whose
numbers pass through numpy (02 and 04) at the tolerance, the others byte for
byte.

A change that alters an output regenerates every file, from the repository
root, and says so in CHANGES.md::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import difflib
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from ovbkit.cli import main

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = Path(__file__).resolve().parent / "expected"
RELATIVE_TOLERANCE = 1e-12

FIXTURES = "src/ovbkit/fixtures"
DAGS = {"productivity": f"{FIXTURES}/productivity.dag",
        "triangle": f"{FIXTURES}/confounder-triangle.dag"}
CSV = "tests/golden/small.csv"
SMALL_CONFIG = "tests/golden/small.conf"
TABLE5 = f"{FIXTURES}/table5.conf"
OUT = "OUT"  # an argv entry replaced by a file in a fresh directory
OUT_FILES = ("out.csv", "out.csv.manifest.json")


class Case(NamedTuple):
    name: str
    argv: tuple[str, ...]
    numeric: bool = False  # numbers pass through numpy: compare with tolerance


def _cases() -> list[Case]:
    plain: list[Case] = []
    for dag, path in DAGS.items():
        plain += [
            Case(f"adjust-{dag}", ("adjust", path)),
            Case(f"adjust-{dag}-with-latents", ("adjust", path, "--with-latents")),
            Case(f"augment-{dag}", ("augment", path)),
        ]
    plain += [
        Case("tip-smd", ("tip", "--observed", "0.3", "--solve", "smd", "--effect", "0.4")),
        Case("tip-effect", ("tip", "--observed", "0.3", "--solve", "effect", "--smd", "0.5")),
        Case("tip-n", ("tip", "--observed", "0.3", "--solve", "n", "--smd", "0.5",
                       "--effect", "0.2")),
        Case("evalue-delta", ("evalue", "--estimate", "0.3", "--sigma", "1.2",
                              "--delta", "0.5")),
        Case("evalue-se", ("evalue", "--estimate", "0.3", "--sigma", "1.2", "--se", "0.1",
                           "--delta", "0.5")),
        Case("evalue-delta-range", ("evalue", "--estimate", "0.3", "--sigma", "1.2",
                                    "--delta-range", "0.1:1:0.1")),
        Case("evalue-fit", ("evalue", "--fit", CSV, "--outcome", "y", "--treatment", "t",
                            "--covariates", "x", "--delta", "0.5"), numeric=True),
        Case("fit", ("fit", CSV, "--outcome", "y", "--predictors", "t,x"), numeric=True),
        Case("smd", ("smd", CSV, "--value", "y", "--group", "g", "--treat", "1",
                     "--ref", "0"), numeric=True),
        Case("simulate-small", ("simulate", SMALL_CONFIG), numeric=True),
    ]
    cases = plain + [case._replace(name=f"{case.name}-json", argv=(*case.argv, "--json"))
                     for case in plain]
    cases += [
        Case("simulate-table5", ("simulate", TABLE5), numeric=True),
        Case("simulate-table5-output", ("simulate", TABLE5, "-o", OUT), numeric=True),
    ]
    by_name = {case.name: case for case in plain}
    explained = [by_name[name] for name in ("adjust-productivity", "augment-productivity",
                                            "tip-smd", "evalue-delta", "fit", "smd",
                                            "simulate-small")]
    cases += [case._replace(name=f"explain-{case.argv[0]}", argv=(*case.argv, "--explain"))
              for case in explained]
    cases += [
        Case("error-adjust", ("adjust", DAGS["productivity"], "--treatment", "Q")),
        Case("error-augment", ("augment", DAGS["triangle"], "--outcome", "Q")),
        Case("error-tip", ("tip", "--observed", "0.3", "--solve", "smd")),
        Case("error-evalue", ("evalue", "--estimate", "0.3", "--sigma", "1.2",
                              "--delta", "0.5", "--delta-range", "0.1:1:0.1")),
        Case("error-fit", ("fit", CSV, "--outcome", "y", "--predictors", "t,w")),
        Case("error-smd", ("smd", CSV, "--value", "y", "--group", "g", "--treat", "1",
                           "--ref", "1")),
        Case("error-simulate", ("simulate", SMALL_CONFIG, "-o", OUT, "--json")),
    ]
    return cases


CASES = _cases()

DEMOS = sorted((ROOT / "demos").glob("*.py"))
NUMERIC_DEMOS = {"demo-02", "demo-04"}  # their numbers pass through numpy


def demo_name(demo: Path) -> str:
    return f"demo-{demo.name[:2]}"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """Run a demo script from the repository root; its stdout is its golden output."""
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)

_MASKS = [
    (re.compile(r'"(version|timestamp)": "[^"]*"'), r'"\1": "<masked>"'),
    (re.compile(r"\b(version|time)=\S+"), r"\1=<masked>"),
]
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _mask(text: str) -> str:
    for pattern, replacement in _MASKS:
        text = pattern.sub(replacement, text)
    return text


def render(case: Case) -> str:
    """Run ``case`` from the repository root; its outputs as one masked text."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, OUT_FILES[0])
        argv = [out if arg == OUT else arg for arg in case.argv]
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
        parts = [f"$ ovbkit {' '.join(case.argv)}", f"exit {code}",
                 "--- stdout", stdout.getvalue(), "--- stderr", stderr.getvalue()]
        for name in OUT_FILES if OUT in case.argv else ():
            path = Path(tmp) / name
            parts += [f"--- {name}", path.read_text() if path.exists() else "(absent)\n"]
    return _mask("\n".join(parts))


def same_output(actual: str, expected: str, numeric: bool) -> bool:
    """Byte for byte, or with number tokens equal to ``RELATIVE_TOLERANCE``."""
    if actual == expected or not numeric:
        return actual == expected
    got, want = _NUMBER.split(actual), _NUMBER.split(expected)
    if len(got) != len(want):
        return False
    for i, (a, b) in enumerate(zip(got, want)):
        if a == b:
            continue
        if i % 2 == 0 or not math.isclose(float(a), float(b), rel_tol=RELATIVE_TOLERANCE):
            return False  # even parts are the text between numbers
    return True


def line_diff(expected: str, actual: str) -> str:
    """The start of a line diff: pytest's own diff of two long strings takes minutes."""
    diff = difflib.unified_diff(expected.splitlines(), actual.splitlines(),
                                "golden file", "this run", lineterm="")
    return "\n".join(itertools.islice(diff, 60)) or "line endings differ"


def regenerate() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for stale in EXPECTED.glob("*.txt"):
        stale.unlink()
    for case in CASES:
        (EXPECTED / f"{case.name}.txt").write_text(render(case))
    for demo in DEMOS:
        done = run_demo(demo)
        if done.returncode:
            raise SystemExit(f"{demo.name} failed:\n{done.stderr}")
        (EXPECTED / f"{demo_name(demo)}.txt").write_text(done.stdout)
    print(f"wrote {len(CASES) + len(DEMOS)} golden files to {EXPECTED.relative_to(ROOT)}")


if __name__ == "__main__":
    regenerate()
