"""Every ``ovbkit`` output recorded in ``tests/golden/`` is reproduced.

The cases, the masking and the comparison rules live in
``tests/golden/regenerate.py``, which also rewrites the recorded files.
"""

import hashlib
import re

import numpy as np
import pytest

from golden.regenerate import (
    CASES,
    DEMOS,
    EXPECTED,
    RELATIVE_TOLERANCE,
    ROOT,
    demo_name,
    line_diff,
    render,
    same_output,
)
from ovbkit.scm import _rng_from


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_output_matches_the_golden_file(case):
    expected = (EXPECTED / f"{case.name}.txt").read_text()
    actual = render(case)
    if not same_output(actual, expected, case.numeric):
        pytest.fail(line_diff(expected, actual), pytrace=False)


def test_every_golden_file_has_a_case():
    recorded = {path.stem for path in EXPECTED.glob("*.txt")}
    assert recorded == {case.name for case in CASES} | {demo_name(demo) for demo in DEMOS}


def test_readme_quotes_the_recorded_table5_hash():
    # The recorded stdout, not a live run: a live run may round differently
    # on another CPU or BLAS.  The format puts a separator line after it.
    readme = (ROOT / "README.md").read_text()
    quoted = re.search(r"`table5\.conf`\s+CSV\s+has\s+sha256\s+`([0-9a-f]{16})…`", readme)
    recorded = (EXPECTED / "simulate-table5.txt").read_text()
    stdout = recorded.split("\n--- stdout\n", 1)[1].split("\n--- stderr\n", 1)[0]
    assert quoted is not None
    assert hashlib.sha256(stdout.encode()).hexdigest()[:16] == quoted.group(1)


# The first values of each generator call that sample() and the sweep make,
# from one sweep seed.  Every simulate golden rests on this stream, so a numpy
# that draws another one fails here by the name of the call.
STREAM = {
    "random": (lambda rng: rng.random(4),
               [0.6483985277289604, 0.9122960115716838, 0.2509767722274828, 0.16518531837530115]),
    "standard_normal": (lambda rng: rng.standard_normal(4),
                        [-0.4603348427052993, 0.4805849544524075, 0.025944982755688982,
                         0.3038198729495721]),
    "multinomial": (lambda rng: rng.multinomial(10, [0.125] * 8, size=2),
                    [[2, 3, 0, 0, 3, 1, 1, 0], [3, 2, 1, 1, 1, 0, 1, 1]]),
    "chisquare": (lambda rng: rng.chisquare(np.array([1, 2, 3, 4])),
                  [0.91410038163166, 1.7913844916326174, 3.053120223596848, 8.774856782551137]),
}


@pytest.mark.parametrize("call", STREAM)
def test_numpy_draws_the_recorded_stream(call):
    draw, expected = STREAM[call]
    values = draw(_rng_from((20240211, 0, 0, 0)))
    np.testing.assert_allclose(values, expected, rtol=RELATIVE_TOLERANCE, atol=0)


@pytest.mark.parametrize("actual, numeric, same", [
    ("mean 0.30000000000000004\n", True, True),
    ("mean 0.3000000001\n", True, False),
    ("mean 0.30000000000000004\n", False, False),
    ("mean: 0.3\n", True, False),
    ("mean 0.3 0.3\n", True, False),
])
def test_numbers_compare_within_the_tolerance_only(actual, numeric, same):
    assert same_output(actual, "mean 0.3\n", numeric) is same
