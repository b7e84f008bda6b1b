"""Fuzzing of ``ovbkit.cli.main`` over arguments and input bytes.

Every generated command must end in exit code 0, 1 or 2; an exception that
escapes ``main`` would reach the user as a traceback.  The generators mix
well-formed inputs, so that the analyses themselves run, with malformed
ones.  Sizes are kept small on purpose: at most seven DAG nodes, twelve CSV
rows, and ``--delta-range`` ends and steps that give at most a few dozen
deltas, so that no example allocates more than a few MB.

``simulate`` is left out: a well-formed config may legitimately ask for
hours of work, since its sample sizes and repetitions are the user's to
choose.  Its malformed configs are covered by the config-parsing tests.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ovbkit.cli import main

NAMES = ["A", "B", "C", "D", "E", "F", "G"]
ODD = st.one_of(
    st.floats().map(repr),  # NaN, infinities and extremes included
    st.sampled_from(["", "x", "-0", "1e-320", "1e308", "-1e308", "0x1", " 2 ", '"1']),
)
NUMBERS = st.one_of(st.floats(-3, 3).map(repr), st.integers(-3, 3).map(str), ODD)
DELTAS = st.one_of(st.floats(0, 1).map(repr), ODD)
SIGMAS = st.one_of(st.floats(0.01, 3).map(repr), ODD)
RANGE_ENDS = st.sampled_from(["-1", "0", "0.05", "0.1", "0.5", "1", "2", "inf", "nan", "x"])
RANGE_STEPS = st.sampled_from(["0.05", "0.1", "0.5", "1", "0", "-0.1", "inf", "nan", "1e-320"])
COMMON = {"--json": None, "--explain": None}


def _exit_code(argv: list[str], data: bytes = b"") -> int:
    """Run ``main`` with ``data`` as the file named INPUT and output captured."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        argv = [arg.replace("INPUT", str(path)) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


@st.composite
def _options(draw, flags: dict, required: bool = False) -> list[str]:
    """``flags`` with drawn values (None: a bare switch), each present at random
    unless ``required``.  A value is joined with ``=``, so that argparse takes
    one starting with ``-`` as a value, not as an option."""
    argv: list[str] = []
    for flag, values in flags.items():
        if required or draw(st.booleans()):
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    return argv


@st.composite
def _dag(draw) -> tuple[bytes, list[str]]:
    """DAG text, mostly acyclic with roles declared, and the node names used."""
    if draw(st.sampled_from(["text"] * 5 + ["bytes"])) == "bytes":
        return draw(st.binary(max_size=120)), NAMES
    names = NAMES[: draw(st.integers(2, len(NAMES)))]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True))
    lines = [f"{a} -> {b}" for a, b in edges]
    lines += draw(st.lists(st.sampled_from(
        [f"latent {n}" for n in names] + [f"node {n}" for n in names]
        + ["B -> A", "A ->", "A -> B -> C", "node 1x", "# note", "treatment"]
    ), max_size=3))
    treatment, outcome = draw(st.permutations(names))[:2]
    for role, name in (("treatment", treatment), ("outcome", outcome)):
        if draw(st.sampled_from([True] * 4 + [False])):
            lines.append(f"{role} {name}")
    text = "\n".join(draw(st.permutations(lines)))
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode(), names


@st.composite
def _csv(draw) -> tuple[bytes, list[str]]:
    """CSV bytes and the column names used.  Half the tables are well formed:
    numeric columns, perhaps a last column of group tags A and B."""
    kind = draw(st.sampled_from(["clean"] * 3 + ["dirty", "duplicate", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200)), NAMES
    columns = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    if kind == "duplicate":
        columns.append(columns[0])
    width = len(columns)
    tags = st.sampled_from(NAMES[:2])
    if kind != "clean":
        cell = st.one_of(NUMBERS, tags)
        row = st.lists(cell, min_size=width, max_size=width) | st.lists(cell, max_size=width + 1)
    else:
        number = st.floats(-3, 3).map(repr) | st.integers(-3, 3).map(str)
        cells = [number] * (width - 1) + [draw(st.sampled_from([tags, number]))]
        row = st.tuples(*cells)
    rows = draw(st.lists(row, min_size=4 * (kind == "clean"), max_size=12))
    text = "\n".join(",".join(cells) for cells in [columns, *rows])
    return text.encode(), columns


def _column(data: st.DataObject, columns: list[str]) -> str:
    """Mostly one of ``columns``, sometimes a name that may not be a column."""
    return data.draw(st.sampled_from(columns + columns + NAMES[:1]))


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(dag=_dag(), data=st.data())
    def test_adjust_and_augment(self, dag, data):
        text, names = dag
        command = data.draw(st.sampled_from(["adjust", "augment"]))
        flags = {"--treatment": st.sampled_from(names), "--outcome": st.sampled_from(names),
                 **COMMON}
        if command == "adjust":
            flags["--with-latents"] = None
        argv = [command, "INPUT", *data.draw(_options(flags))]
        assert _exit_code(argv, text) in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        solve=st.sampled_from(["smd", "effect", "n", "bogus"]),
        options=_options({"--smd": NUMBERS, "--effect": NUMBERS, **COMMON}),
        observed=NUMBERS,
    )
    def test_tip(self, solve, options, observed):
        argv = ["tip", f"--solve={solve}", f"--observed={observed}", *options]
        assert _exit_code(argv) in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(csv=_csv(), data=st.data())
    def test_evalue(self, csv, data):
        text, columns = csv
        if data.draw(st.booleans()):
            source = ["--fit=INPUT", f"--outcome={_column(data, columns)}",
                      f"--treatment={_column(data, columns[::-1])}"]
        else:
            source = data.draw(_options({"--estimate": NUMBERS, "--sigma": SIGMAS},
                                        required=True))
        if data.draw(st.booleans()):
            delta = [f"--delta={data.draw(DELTAS)}"]
        else:
            low, high, step = data.draw(st.tuples(RANGE_ENDS, RANGE_ENDS, RANGE_STEPS))
            delta = [f"--delta-range={low}:{high}:{step}"]
        extra = data.draw(st.just([]) | _options({
            "--se": NUMBERS, "--covariates": st.lists(st.sampled_from(columns)).map(",".join),
            "--delta": DELTAS, "--estimate": NUMBERS, **COMMON,
        }))
        assert _exit_code(["evalue", *source, *delta, *extra], text) in (0, 1, 2)

    @settings(max_examples=120, deadline=None)
    @given(csv=_csv(), data=st.data())
    def test_fit(self, csv, data):
        text, columns = csv
        outcome = _column(data, columns)
        others = [c for c in columns if c != outcome] or columns
        predictors = data.draw(st.lists(st.sampled_from(others), max_size=4, unique=True))
        argv = ["fit", "INPUT", f"--outcome={outcome}", f"--predictors={','.join(predictors)}",
                *data.draw(_options(COMMON))]
        assert _exit_code(argv, text) in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(csv=_csv(), data=st.data())
    def test_smd(self, csv, data):
        text, columns = csv
        tags = st.sampled_from(NAMES[:2])
        argv = ["smd", "INPUT", f"--value={_column(data, columns)}",
                f"--group={_column(data, columns[-1:])}", f"--treat={data.draw(tags)}",
                f"--ref={data.draw(tags)}", *data.draw(_options(COMMON))]
        assert _exit_code(argv, text) in (0, 1, 2)
