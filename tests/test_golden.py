"""Every ``ovbkit`` output recorded in ``tests/golden/`` is reproduced.

The cases, the masking and the comparison rules live in
``tests/golden/regenerate.py``, which also rewrites the recorded files.
"""

import hashlib
import re

import pytest

from golden.regenerate import CASES, DEMOS, EXPECTED, ROOT, demo_name, line_diff, render, same_output


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


@pytest.mark.parametrize("actual, numeric, same", [
    ("mean 0.30000000000000004\n", True, True),
    ("mean 0.3000000001\n", True, False),
    ("mean 0.30000000000000004\n", False, False),
    ("mean: 0.3\n", True, False),
    ("mean 0.3 0.3\n", True, False),
])
def test_numbers_compare_within_the_tolerance_only(actual, numeric, same):
    assert same_output(actual, "mean 0.3\n", numeric) is same
