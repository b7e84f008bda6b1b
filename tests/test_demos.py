"""Every demo script runs to completion against this checkout and prints its
recorded output (``tests/golden/expected/demo-NN.txt``)."""

import functools

import pytest

from golden.regenerate import (
    DEMOS, EXPECTED, NUMERIC_DEMOS, demo_name, line_diff, run_demo, same_output,
)

# conftest puts this checkout's src/ on the children's PYTHONPATH.
run_once = functools.cache(run_demo)


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    done = run_once(demo)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_output_matches_the_golden_file(demo):
    name = demo_name(demo)
    expected = (EXPECTED / f"{name}.txt").read_text()
    actual = run_once(demo).stdout
    if not same_output(actual, expected, name in NUMERIC_DEMOS):
        pytest.fail(line_diff(expected, actual), pytrace=False)
