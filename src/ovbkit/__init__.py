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
"""

__version__ = "0.1.0"

from . import adjustment, dag, scm, sensitivity, stats
from .adjustment import *
from .dag import *
from .scm import *
from .sensitivity import *
from .stats import *

__all__ = adjustment.__all__ + dag.__all__ + scm.__all__ + sensitivity.__all__ + stats.__all__
