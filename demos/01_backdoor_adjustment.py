"""Walk through the graph layer: parse a DAG, query its structure, and find
which covariates a regression must condition on.

Run from the repository root:  python3 demos/01_backdoor_adjustment.py
"""

from ovbkit import (
    CausalQuery,
    SeparationQuery,
    backdoor_paths,
    edge_confounder_report,
    format_set,
    is_d_separated,
    minimal_adjustment_sets,
    parse_dag,
    topological_order,
)
from ovbkit.fixtures import fixture_text

# A ten-variable model of software-project effort.  T (team size) is the
# treatment, E (effort) the outcome; the other eight are context variables.
dag = parse_dag(fixture_text("productivity.dag"))
print(f"{len(dag.nodes)} nodes, {len(dag.edges)} edges")
print("topological order:", " ".join(topological_order(dag)))

# d-separation answers "which independencies does this graph imply?"
print("\nT and B, nothing conditioned:",
      "independent" if is_d_separated(dag, SeparationQuery("T", "B")) else "dependent")
print("T and B given {O, S}:",
      "independent" if is_d_separated(dag, SeparationQuery("T", "B", frozenset({"O", "S"})))
      else "dependent")

# Backdoor paths are the non-causal routes that bias a naive T ~ E regression.
query = CausalQuery(dag, "T", "E")
paths = backdoor_paths(query)
print(f"\n{len(paths)} backdoor paths from T to E; the two shortest:")
for path in paths[:2]:
    print("  " + " - ".join(path))

# Conditioning on a minimal adjustment set closes all of them at once.
sets = minimal_adjustment_sets(query)
print("\nminimal adjustment sets:", ", ".join(format_set(s) for s in sets))

# Robustness: confound each edge with a hypothetical latent cause and see
# whether measured covariates still suffice.
report = edge_confounder_report(query)
fragile = [e for e in report.entries if e.unadjustable]
print("\nafter confounding each edge in turn:")
print(report.to_text())
print("edges that no measured covariate set can repair:",
      ", ".join(f"{a} -> {b}" for a, b in (e.edge for e in fragile)))
