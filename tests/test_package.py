import ast
import inspect
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ovbkit
import ovbkit.cli

LAYERS = (ovbkit.adjustment, ovbkit.dag, ovbkit.scm, ovbkit.sensitivity, ovbkit.stats)


def test_star_import_gives_every_public_name_and_no_modules():
    namespace: dict = {}
    exec("from ovbkit import *", namespace)
    del namespace["__builtins__"]
    public = {
        name for name, value in vars(ovbkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(namespace) == public == set(ovbkit.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]


def test_the_package_exports_each_layers_all_once():
    assert ovbkit.__all__ == [name for layer in LAYERS for name in layer.__all__]
    assert len(set(ovbkit.__all__)) == len(ovbkit.__all__)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(ovbkit, name) is getattr(layer, name), name


def test_the_cli_imports_only_public_names_from_the_layers():
    layers = {layer.__name__.rpartition(".")[2]: layer for layer in LAYERS}
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(inspect.getsource(ovbkit.cli)))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in layers
        for alias in node.names
        if not alias.name.startswith("_")
    ]
    assert imported
    assert [(module, name) for module, name in imported
            if name not in layers[module].__all__] == []


# --- fresh interpreters ------------------------------------------------------
# The package loads its numpy layers (scm, stats) on first use, and caches what
# it serves; a fresh interpreter per check keeps other tests from filling that
# cache first.  conftest puts this checkout's src/ on the children's PYTHONPATH.

ROOT = Path(__file__).resolve().parents[1]
SMALL_CSV = str(ROOT / "tests" / "golden" / "small.csv")
SMALL_CONFIG = str(ROOT / "tests" / "golden" / "small.conf")
DAG = str(ROOT / "src" / "ovbkit" / "fixtures" / "productivity.dag")

# Runs ``ovbkit.cli.main`` on argv, exits with its status, and reports on
# stderr's last line whether numpy was loaded, also when argparse exits
# (``--version``).
MAIN_PROBE = """
import sys
from ovbkit.cli import main
try:
    code = main(sys.argv[1:])
finally:
    sys.stdout.flush()
    print("numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, cwd=ROOT, timeout=120)


def _main_loads_numpy(argv: tuple[str, ...], status: int = 0) -> bool:
    done = _python(MAIN_PROBE, *argv)
    *_, loaded = done.stderr.splitlines() or [""]
    assert (done.returncode, loaded in ("True", "False")) == (status, True), done.stderr
    return loaded == "True"


NUMPY_FREE = {
    "tip-smd": ("tip", "--observed", "0.3", "--solve", "smd", "--effect", "0.4"),
    "tip-effect": ("tip", "--observed", "0.3", "--solve", "effect", "--smd", "0.5"),
    "tip-n": ("tip", "--observed", "0.3", "--solve", "n", "--smd", "0.5", "--effect", "0.2"),
    "evalue-delta": ("evalue", "--estimate", "0.3", "--sigma", "1.2", "--delta", "0.5"),
    "evalue-delta-range": ("evalue", "--estimate", "0.3", "--sigma", "1.2",
                           "--delta-range", "0.1:1:0.1"),
    "adjust": ("adjust", DAG, "--json"),
    "augment": ("augment", DAG, "--json"),
    "version": ("--version",),
}
NUMPY_NEEDED = {
    "fit": ("fit", SMALL_CSV, "--outcome", "y", "--predictors", "t,x"),
    "smd": ("smd", SMALL_CSV, "--value", "y", "--group", "g", "--treat", "1", "--ref", "0"),
    "evalue-fit": ("evalue", "--fit", SMALL_CSV, "--outcome", "y", "--treatment", "t",
                   "--delta", "0.5"),
    "simulate": ("simulate", SMALL_CONFIG),
}


@pytest.mark.parametrize("argv", NUMPY_FREE.values(), ids=NUMPY_FREE)
def test_commands_without_array_math_do_not_load_numpy(argv):
    assert not _main_loads_numpy(argv)


def test_a_usage_error_does_not_load_numpy():
    # --fit without --outcome is refused before the CSV would be read.
    assert not _main_loads_numpy(("evalue", "--fit", "x.csv", "--delta", "0.5"), status=1)


@pytest.mark.parametrize("argv", NUMPY_NEEDED.values(), ids=NUMPY_NEEDED)
def test_commands_with_array_math_load_numpy(argv):
    assert _main_loads_numpy(argv)


@pytest.mark.parametrize("module", ["ovbkit", "ovbkit.cli"])
def test_importing_the_package_does_not_load_numpy(module):
    done = _python(f"import sys, {module}; assert 'numpy' not in sys.modules")
    assert done.returncode == 0, done.stderr


API_CHECKS = {
    "star-import-order": """
import importlib
namespace = {}
exec("from ovbkit import *", namespace)
del namespace["__builtins__"]
layers = [importlib.import_module(f"ovbkit.{name}")
          for name in ("adjustment", "dag", "scm", "sensitivity", "stats")]
expected = [name for layer in layers for name in layer.__all__]
assert list(namespace) == expected, list(namespace)
assert len(expected) == 63, len(expected)  # a public name added or gone shows here
""",
    "dir-lists-all": """
import ovbkit
names = dir(ovbkit)
missing = [name for name in ovbkit.__all__ if name not in names]
assert not missing, missing
assert names == sorted(names)
""",
    "unknown-name": """
import ovbkit
for name in ("no_such_name", "_no_such_name"):
    try:
        getattr(ovbkit, name)
    except AttributeError as exc:
        assert repr(name) in str(exc), exc
    else:
        raise AssertionError(name)
""",
    "layer-modules": """
import sys
import ovbkit
assert ovbkit.scm is sys.modules["ovbkit.scm"]
assert ovbkit.stats is sys.modules["ovbkit.stats"]
from ovbkit import scm, stats
assert (scm, stats) == (ovbkit.scm, ovbkit.stats)
""",
    "no-leaked-modules": """
from types import ModuleType
import ovbkit

def modules():
    return {name for name, value in vars(ovbkit).items()
            if isinstance(value, ModuleType) and not name.startswith("_")}

layers = {"adjustment", "dag", "sensitivity"}
assert modules() == layers, modules()
ovbkit.run_sweep, ovbkit.__all__
layers |= {"scm", "stats"}
assert modules() == layers, modules()
import ovbkit.cli, ovbkit.fixtures
assert modules() == layers | {"cli", "fixtures"}, modules()
""",
}


@pytest.mark.parametrize("code", API_CHECKS.values(), ids=API_CHECKS)
def test_package_api_in_a_fresh_interpreter(code):
    done = _python(code)
    assert done.returncode == 0, done.stderr
