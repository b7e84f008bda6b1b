"""Backdoor analysis: adjustment sets, confounder augmentation, path listing.

The criterion used throughout is the classic backdoor criterion: a candidate
set is a valid adjustment set for (treatment, outcome) when it contains no
descendant of the treatment and blocks every backdoor path, i.e. every
undirected path whose first edge points into the treatment.  Validity is
decided without listing paths, as d-separation of treatment and outcome in
the backdoor graph (the DAG without the treatment's outgoing edges).
Minimal sets are found by scanning subsets by increasing size, pruning
supersets of sets already found, over the ancestral pool: the ancestors of
treatment and outcome that are not descendants of the treatment, which holds
every minimal set (van der Zander, Liskiewicz & Textor, 2019).  The scan runs
only after the whole pool is confirmed to separate, since some subset of it
separates exactly when the pool itself does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet, Iterable

from .dag import (
    CausalDag,
    DagError,
    SeparationQuery,
    ancestors,
    descendants,
    is_d_separated,
)

__all__ = [
    "AdjustmentReport",
    "CausalQuery",
    "EdgeEntry",
    "augment_with_confounder",
    "backdoor_paths",
    "edge_confounder_report",
    "format_set",
    "is_valid_adjustment",
    "minimal_adjustment_sets",
]


@dataclass(frozen=True)
class CausalQuery:
    """A treatment/outcome pair over a DAG."""

    dag: CausalDag
    treatment: str
    outcome: str

    def __post_init__(self):
        self.dag.require(self.treatment)
        self.dag.require(self.outcome)
        if self.treatment == self.outcome:
            raise DagError("treatment and outcome must differ")


def backdoor_paths(query: CausalQuery) -> list[tuple[str, ...]]:
    """All simple undirected treatment-outcome paths entering the treatment.

    Returned shortest first, ties broken lexicographically.  Explanatory
    only: the path count grows exponentially with graph size, and nothing
    in the package decides validity from this list.
    """
    dag = query.dag
    neighbors = {
        n: sorted(set(dag.parents(n)) | set(dag.children(n))) for n in dag.nodes
    }
    paths: list[tuple[str, ...]] = []

    def walk(path: list[str]) -> None:
        node = path[-1]
        if node == query.outcome:
            paths.append(tuple(path))
            return
        for nxt in neighbors[node]:
            if nxt not in path:
                path.append(nxt)
                walk(path)
                path.pop()

    for first in dag.parents(query.treatment):
        walk([query.treatment, first])
    return sorted(paths, key=lambda p: (len(p), p))


def _backdoor_graph(query: CausalQuery) -> CausalDag:
    """The DAG without the treatment's outgoing edges."""
    dag = query.dag
    return CausalDag(
        nodes=dag.nodes,
        edges=frozenset(e for e in dag.edges if e[0] != query.treatment),
        latent=dag.latent,
    )


def is_valid_adjustment(query: CausalQuery, adjustment: Iterable[str]) -> bool:
    """Backdoor criterion: no treatment descendants, every backdoor path blocked."""
    adjustment = frozenset(adjustment)
    for node in adjustment:
        query.dag.require(node)
    if query.treatment in adjustment or query.outcome in adjustment:
        raise DagError("adjustment set may not contain the treatment or outcome")
    if adjustment & descendants(query.dag, query.treatment):
        return False
    separation = SeparationQuery(query.treatment, query.outcome, adjustment)
    return is_d_separated(_backdoor_graph(query), separation)


def minimal_adjustment_sets(
    query: CausalQuery, observed_only: bool = False
) -> list[frozenset[str]]:
    """All inclusion-minimal valid adjustment sets, smallest first then lexicographic.

    With ``observed_only`` only the sets without a latent node are kept (see
    :func:`_observed`).  An empty list means no valid set exists under the
    constraint; a single empty set means no adjustment is needed.
    """
    dag, t, y = query.dag, query.treatment, query.outcome
    backdoor = _backdoor_graph(query)
    # Every minimal separator lies among the ancestors of t and y.
    pool = (ancestors(dag, t) | ancestors(dag, y)) - {t, y} - descendants(dag, t)
    # Some subset of the pool separates exactly when the whole pool does.
    if not is_d_separated(backdoor, SeparationQuery(t, y, pool)):
        return []
    candidates = sorted(pool)
    found: list[frozenset[str]] = []
    for size in range(len(candidates) + 1):
        for combo in combinations(candidates, size):
            subset = frozenset(combo)
            if any(prior <= subset for prior in found):
                continue
            if is_d_separated(backdoor, SeparationQuery(t, y, subset)):
                found.append(subset)
    return _observed(found, dag) if observed_only else found


def _observed(sets: list[frozenset[str]], dag: CausalDag) -> list[frozenset[str]]:
    """The latent-free sets: such a minimal set is minimal among observed sets, and conversely."""
    return [s for s in sets if not s & dag.latent]


def augment_with_confounder(dag: CausalDag, edge: tuple[str, str]) -> CausalDag:
    """Add a latent common cause of both endpoints of ``edge``.

    It is named ``Z_<From>_<To>``, or, if the DAG already has a node of that
    name, the first of ``Z_<From>_<To>_1``, ``Z_<From>_<To>_2``, ... it lacks.
    """
    edge = tuple(edge)
    if edge not in dag.edges:
        raise DagError(f"edge {edge[0]} -> {edge[1]} is not in the DAG")
    base = name = f"Z_{edge[0]}_{edge[1]}"
    suffix = 0
    while name in dag.nodes:
        suffix += 1
        name = f"{base}_{suffix}"
    return CausalDag(
        nodes=dag.nodes | {name},
        edges=dag.edges | {(name, edge[0]), (name, edge[1])},
        latent=dag.latent | {name},
        treatment=dag.treatment,
        outcome=dag.outcome,
    )


@dataclass(frozen=True)
class EdgeEntry:
    """Adjustment-set analysis of one edge's hypothetical confounder."""

    edge: tuple[str, str]
    sets: tuple[frozenset[str], ...]           # minimal sets, latents allowed
    observed_sets: tuple[frozenset[str], ...]  # minimal sets over observed nodes

    @property
    def unadjustable(self) -> bool:
        return not self.observed_sets


@dataclass(frozen=True)
class AdjustmentReport:
    """Per-edge confounder analysis for a fixed treatment/outcome pair."""

    treatment: str
    outcome: str
    entries: tuple[EdgeEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "treatment": self.treatment,
            "outcome": self.outcome,
            "edges": [
                {
                    "from": e.edge[0],
                    "to": e.edge[1],
                    "sets": [sorted(s) for s in e.sets],
                    "observed_sets": [sorted(s) for s in e.observed_sets],
                    "unadjustable": e.unadjustable,
                }
                for e in self.entries
            ],
        }

    def to_text(self) -> str:
        rows = []
        for i, e in enumerate(self.entries, start=1):
            sets = "  ".join(format_set(s) for s in e.sets) or "(none)"
            note = "  [unadjustable without latents]" if e.unadjustable else ""
            rows.append((str(i), f"{e.edge[0]} -> {e.edge[1]}", sets + note))
        if not rows:
            return "no edges to analyze\n"
        width = max(len(r[1]) for r in rows)
        num = max(len(r[0]) for r in rows)
        lines = [
            f"{i:>{num}}  {edge:<{width}}  {sets}" for i, edge, sets in rows
        ]
        header = f"{'':>{num}}  {'edge':<{width}}  adjustment sets"
        return "\n".join([header] + lines) + "\n"


def format_set(values: AbstractSet[str]) -> str:
    return "{" + ", ".join(sorted(values)) + "}"


def edge_confounder_report(query: CausalQuery) -> AdjustmentReport:
    """Re-derive adjustment sets after confounding each edge in turn.

    Every edge ``X -> Y`` of the DAG is augmented with a latent common cause
    (``Z_X_Y``, see :func:`augment_with_confounder`) and the minimal
    adjustment sets of the augmented graph are listed, both with latent nodes
    allowed and restricted to observed nodes.
    An edge is flagged unadjustable when no observed-only set exists.
    """
    entries = []
    for edge in sorted(query.dag.edges):
        augmented = augment_with_confounder(query.dag, edge)
        sub = CausalQuery(augmented, query.treatment, query.outcome)
        with_latents = minimal_adjustment_sets(sub)
        observed = _observed(with_latents, augmented)
        entries.append(EdgeEntry(edge, tuple(with_latents), tuple(observed)))
    return AdjustmentReport(query.treatment, query.outcome, tuple(entries))
