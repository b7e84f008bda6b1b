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

:mod:`ovbkit.cli` wires everything into the ``ovbkit`` command.
"""

__version__ = "0.1.0"

from .adjustment import (
    AdjustmentReport, CausalQuery, augment_with_confounder, backdoor_paths,
    edge_confounder_report, is_valid_adjustment, minimal_adjustment_sets,
)
from .dag import (
    CausalDag, CycleError, DagError, DagSyntaxError, SeparationQuery, ancestors,
    descendants, is_d_separated, parse_dag, serialize_dag, topological_order,
)
from .scm import (
    BernoulliExogenous, LinearGaussian, ScmSpec, SweepConfig, SweepResult,
    expected_treatment_estimate, load_sweep_config, run_sweep, sample,
    team_effort_template,
)
from .sensitivity import (
    EValueInput, EValueResult, TipInput, TipResult, adjusted_effect, evalue_curve,
    evalue_ols, tip_n_confounders, tip_outcome_effect, tip_smd, tipping_grid,
)
from .stats import (
    Dataset, FitResult, Interval, hpdi, ols_fit, read_csv, scaled_mean_diff,
)

__all__ = [
    "AdjustmentReport", "CausalQuery", "augment_with_confounder", "backdoor_paths",
    "edge_confounder_report", "is_valid_adjustment", "minimal_adjustment_sets",
    "CausalDag", "CycleError", "DagError", "DagSyntaxError", "SeparationQuery",
    "ancestors", "descendants", "is_d_separated", "parse_dag", "serialize_dag",
    "topological_order",
    "BernoulliExogenous", "LinearGaussian", "ScmSpec", "SweepConfig", "SweepResult",
    "expected_treatment_estimate", "load_sweep_config", "run_sweep", "sample",
    "team_effort_template",
    "EValueInput", "EValueResult", "TipInput", "TipResult", "adjusted_effect",
    "evalue_curve", "evalue_ols", "tip_n_confounders", "tip_outcome_effect", "tip_smd",
    "tipping_grid",
    "Dataset", "FitResult", "Interval", "hpdi", "ols_fit", "read_csv", "scaled_mean_diff",
]
