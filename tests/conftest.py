import os
from pathlib import Path

import pytest


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_checkout():
    """Python processes that the tests start import ovbkit from this checkout's
    ``src/``, as the tests themselves do through pytest's ``pythonpath``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield
