"""Every ``ovbkit`` output recorded in ``tests/golden/`` is reproduced.

The cases, the masking and the comparison rules live in
``tests/golden/regenerate.py``, which also rewrites the recorded files.
"""

import difflib
import itertools

import pytest

from golden.regenerate import CASES, EXPECTED, render, same_output


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_output_matches_the_golden_file(case):
    expected = (EXPECTED / f"{case.name}.txt").read_text()
    actual = render(case)
    if not same_output(actual, expected, case.numeric):
        # A line diff: pytest's own diff of two long strings takes minutes.
        diff = difflib.unified_diff(expected.splitlines(), actual.splitlines(),
                                    "golden file", "this run", lineterm="")
        pytest.fail("\n".join(itertools.islice(diff, 60)) or "line endings differ",
                    pytrace=False)


def test_every_golden_file_has_a_case():
    recorded = {path.stem for path in EXPECTED.glob("*.txt")}
    assert recorded == {case.name for case in CASES}


@pytest.mark.parametrize("actual, numeric, same", [
    ("mean 0.30000000000000004\n", True, True),
    ("mean 0.3000000001\n", True, False),
    ("mean 0.30000000000000004\n", False, False),
    ("mean: 0.3\n", True, False),
    ("mean 0.3 0.3\n", True, False),
])
def test_numbers_compare_within_the_tolerance_only(actual, numeric, same):
    assert same_output(actual, "mean 0.3\n", numeric) is same
