"""ovbkit: causal DAGs, adjustment sets, and omitted-variable-bias sensitivity tools.

The package splits into five layers:

- :mod:`ovbkit.dag` — causal DAGs, a small text format, d-separation;
- :mod:`ovbkit.adjustment` — backdoor paths, minimal adjustment sets, and
  per-edge hypothetical-confounder analysis;
- :mod:`ovbkit.stats` — datasets, OLS with standard errors, HPD intervals,
  scaled-mean differences;
- :mod:`ovbkit.scm` — structural causal models, seeded sampling, and the
  simulation sensitivity sweep;
- :mod:`ovbkit.sensitivity` — tipping-point and E-value analyses.

:mod:`ovbkit.cli` wires everything into the ``ovbkit`` command.  Each layer's
``__all__`` lists its public names; the package re-exports all of them.

Only ``stats`` and ``scm`` import numpy, so ``import ovbkit`` loads just the
other three layers.  A module ``__getattr__`` (PEP 562) imports ``stats`` and
``scm`` on first use of one of their names, of the modules themselves, or of
``__all__`` (which ``from ovbkit import *`` reads), and caches the value in
the package namespace.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from . import adjustment, dag, sensitivity
from .adjustment import *
from .dag import *
from .sensitivity import *


def __getattr__(name: str):
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from . import scm`` here would look ``scm`` up through this hook again
    # and recurse.  import_module binds the submodule in this namespace, so
    # after these two calls ``scm`` and ``stats`` no longer reach the hook.
    scm = _import_module(f"{__name__}.scm")
    stats = _import_module(f"{__name__}.stats")
    if name == "__all__":
        value = (adjustment.__all__ + dag.__all__ + scm.__all__
                 + sensitivity.__all__ + stats.__all__)
    elif name in ("scm", "stats"):
        return globals()[name]
    else:
        layer = next((m for m in (scm, stats) if name in m.__all__), None)
        if layer is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(layer, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
