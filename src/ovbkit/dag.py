"""Causal DAGs: construction, a line-oriented text format, and structural queries.

A :class:`CausalDag` is an immutable set of named nodes plus directed edges.
Nodes can be flagged *latent*, meaning the variable is assumed to exist but
cannot be measured; latent nodes take part in every structural query and can
be excluded only where a caller asks for observed-only results.

The text format is line oriented (``#`` starts a comment):

    node <Name>         optional explicit declaration of an observed node
    latent <Name>       declares an unmeasured node
    <From> -> <To>      an edge; endpoints are implicitly declared observed
                        unless declared latent elsewhere in the file
    treatment <Name>    optional default role used by downstream queries
    outcome <Name>      optional default role

Node names match ``[A-Za-z_][A-Za-z0-9_]*`` and are case sensitive.
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

__all__ = [
    "CausalDag",
    "CycleError",
    "DagError",
    "DagSyntaxError",
    "SeparationQuery",
    "ancestors",
    "descendants",
    "is_d_separated",
    "parse_dag",
    "serialize_dag",
    "topological_order",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class DagError(ValueError):
    """Invalid DAG structure or query."""


class DagSyntaxError(DagError):
    """Malformed DAG text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CycleError(DagError):
    """The edge set admits a directed cycle; ``cycle`` lists a witness."""

    def __init__(self, cycle: Iterable[str]):
        self.cycle = tuple(cycle)
        loop = " -> ".join(self.cycle + self.cycle[:1])
        super().__init__(f"cycle detected: {loop}")


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise DagError(f"invalid node name {name!r}")
    return name


def _kahn(dag: CausalDag) -> tuple[str, ...]:
    """Topological order with lexicographic tie-breaking; raises CycleError."""
    indegree = {n: len(ps) for n, ps in dag._parent_map.items()}
    ready = [n for n, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in dag._child_map[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    if len(order) < len(indegree):
        raise CycleError(_find_cycle(dag, {n for n, d in indegree.items() if d > 0}))
    return tuple(order)


def _find_cycle(dag: CausalDag, remaining: set[str]) -> list[str]:
    # Every node left after Kahn's algorithm has a parent among the leftovers,
    # so walking parent links (the smallest such parent) must revisit a node.
    node = min(remaining)
    seen: list[str] = []
    while node not in seen:
        seen.append(node)
        node = next(p for p in dag._parent_map[node] if p in remaining)
    cycle = seen[seen.index(node):]
    return list(reversed(cycle))


@dataclass(frozen=True)
class CausalDag:
    """An immutable directed acyclic graph over named variables.

    ``treatment`` and ``outcome`` are optional default roles carried along
    from the text format; they do not constrain the graph itself.
    """

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    latent: frozenset[str] = frozenset()
    treatment: str | None = None
    outcome: str | None = None
    # Parents-before-children order, kept from the acyclicity check.
    _order: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        object.__setattr__(self, "latent", frozenset(self.latent))
        for name in self.nodes:
            _check_name(name)
        for tail, head in self.edges:
            if tail == head:
                raise DagError(f"self-loop on node {tail!r}")
            for end in (tail, head):
                if end not in self.nodes:
                    raise DagError(f"edge endpoint {end!r} is not a declared node")
        stray = self.latent - self.nodes
        if stray:
            raise DagError(f"latent flag on undeclared node(s): {sorted(stray)}")
        for role in (self.treatment, self.outcome):
            if role is not None and role not in self.nodes:
                raise DagError(f"role refers to undeclared node {role!r}")
        object.__setattr__(self, "_order", _kahn(self))  # raises CycleError

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]],
        latent: Iterable[str] = (),
        nodes: Iterable[str] = (),
        treatment: str | None = None,
        outcome: str | None = None,
    ) -> "CausalDag":
        """Build a DAG from an edge list, declaring endpoints implicitly."""
        edge_set = frozenset(tuple(e) for e in edges)
        node_set = frozenset(nodes) | {n for e in edge_set for n in e} | frozenset(latent)
        return cls(node_set, edge_set, frozenset(latent), treatment, outcome)

    @cached_property
    def _parent_map(self) -> Mapping[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for tail, head in self.edges:
            out[head].append(tail)
        return {n: tuple(sorted(ps)) for n, ps in out.items()}

    @cached_property
    def _child_map(self) -> Mapping[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for tail, head in self.edges:
            out[tail].append(head)
        return {n: tuple(sorted(cs)) for n, cs in out.items()}

    def parents(self, node: str) -> tuple[str, ...]:
        self.require(node)
        return self._parent_map[node]

    def children(self, node: str) -> tuple[str, ...]:
        self.require(node)
        return self._child_map[node]

    def require(self, node: str) -> None:
        if node not in self.nodes:
            raise DagError(f"unknown node {node!r}")


@dataclass(frozen=True)
class SeparationQuery:
    """Ask whether ``x`` and ``y`` are d-separated given the ``given`` set."""

    x: str
    y: str
    given: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "given", frozenset(self.given))
        if self.x == self.y:
            raise DagError("query endpoints must differ")
        if self.x in self.given or self.y in self.given:
            raise DagError("query endpoints may not appear in the conditioning set")


def _decode(data: bytes, error: type[ValueError]) -> str:
    """The UTF-8 text of any input file, less a leading byte-order mark; an
    undecodable byte raises ``error`` naming its line and its offset in the file."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b"x").splitlines())
        raise error(f"line {line}: {exc}") from None


def parse_dag(text: str) -> CausalDag:
    """Parse the line-oriented DAG format into a :class:`CausalDag`.

    Raises :class:`DagSyntaxError` with line/column on malformed input,
    :class:`DagError` on duplicate edges or conflicting declarations, and
    :class:`CycleError` when the declared edges form a cycle.
    """
    explicit: dict[str, bool] = {}  # name -> declared latent?
    mentioned: set[str] = set()
    edges: dict[tuple[str, str], int] = {}
    roles: dict[str, str] = {}

    def declare(name: str, line: int, col: int, as_latent: bool | None) -> None:
        if not _NAME_RE.match(name):
            raise DagSyntaxError(f"invalid node name {name!r}", line, col)
        mentioned.add(name)
        if as_latent is None:
            return
        if explicit.setdefault(name, as_latent) != as_latent:
            kind = "latent" if as_latent else "observed"
            raise DagSyntaxError(
                f"node {name!r} declared both {kind} and its opposite", line, col
            )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]
        if not tokens:
            continue
        if len(tokens) == 2 and tokens[0][1] in ("node", "latent", "treatment", "outcome"):
            keyword, (col, name) = tokens[0][1], tokens[1]
            if keyword == "node":
                declare(name, lineno, col, as_latent=False)
            elif keyword == "latent":
                declare(name, lineno, col, as_latent=True)
            else:
                declare(name, lineno, col, as_latent=None)
                if roles.get(keyword, name) != name:
                    raise DagSyntaxError(
                        f"conflicting {keyword} declarations ({roles[keyword]!r} vs {name!r})",
                        lineno, col,
                    )
                roles[keyword] = name
        elif len(tokens) == 3 and tokens[1][1] == "->":
            (tail_col, tail), _, (head_col, head) = tokens
            declare(tail, lineno, tail_col, as_latent=None)
            declare(head, lineno, head_col, as_latent=None)
            if tail == head:
                raise DagSyntaxError(f"self-loop on node {tail!r}", lineno, tail_col)
            if (tail, head) in edges:
                raise DagSyntaxError(
                    f"duplicate edge {tail} -> {head} (first on line {edges[tail, head]})",
                    lineno, tail_col,
                )
            edges[tail, head] = lineno
        else:
            col = tokens[0][0] if len(tokens) == 1 else tokens[1][0]
            raise DagSyntaxError(
                "expected 'node/latent/treatment/outcome <Name>' or '<From> -> <To>'",
                lineno, col,
            )

    latent = frozenset(name for name, is_latent in explicit.items() if is_latent)
    return CausalDag(
        nodes=frozenset(mentioned),
        edges=frozenset(edges),
        latent=latent,
        treatment=roles.get("treatment"),
        outcome=roles.get("outcome"),
    )


def serialize_dag(dag: CausalDag) -> str:
    """Canonical text for ``dag``; ``parse_dag`` round-trips it exactly."""
    lines = [
        f"latent {name}" if name in dag.latent else f"node {name}"
        for name in sorted(dag.nodes)
    ]
    if dag.treatment is not None:
        lines.append(f"treatment {dag.treatment}")
    if dag.outcome is not None:
        lines.append(f"outcome {dag.outcome}")
    lines.extend(f"{tail} -> {head}" for tail, head in sorted(dag.edges))
    return "\n".join(lines) + "\n"


def topological_order(dag: CausalDag) -> list[str]:
    """Parents-before-children order, ties broken by node name."""
    return list(dag._order)


def _reachable(start: str, step: Mapping[str, tuple[str, ...]]) -> set[str]:
    seen: set[str] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in step[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def ancestors(dag: CausalDag, node: str) -> set[str]:
    """All nodes with a directed path into ``node`` (the node itself excluded)."""
    dag.require(node)
    return _reachable(node, dag._parent_map)


def descendants(dag: CausalDag, node: str) -> set[str]:
    """All nodes reachable from ``node`` along directed edges (itself excluded)."""
    dag.require(node)
    return _reachable(node, dag._child_map)


def is_d_separated(dag: CausalDag, query: SeparationQuery) -> bool:
    """True iff every undirected path between the endpoints is blocked.

    Blocking follows the usual rules: a chain or fork is blocked when its
    middle node is conditioned on; a collider blocks unless it, or one of its
    descendants, is conditioned on.  Implemented as Shachter's Bayes-ball
    sweep over (direction, node) states, which is linear in the number of
    edges and needs no ancestor sets.
    """
    for name in (query.x, query.y, *query.given):
        dag.require(name)
    given = query.given
    parents, children = dag._parent_map, dag._child_map
    # A state tags how the trail arrived at a node: down (True) along an edge
    # into it (u -> v), up (False) against an edge out of it (u <- v).  A trail
    # arriving down at a conditioned node bounces back up to its parents; the
    # bounce is what opens a collider that has a conditioned descendant.
    # Breadth-first, so an open trail to y is found after the fewest states.
    start = [(True, c) for c in children[query.x]]
    start += [(False, p) for p in parents[query.x]]
    seen = set(start)
    frontier = deque(start)
    while frontier:
        down, node = frontier.popleft()
        if node == query.y:
            return False
        moves: list[tuple[bool, str]] = []
        if node not in given:  # chain u -> v -> c, fork u <- v -> c
            moves += [(True, c) for c in children[node]]
        if down == (node in given):  # chain u <- v <- p, collider u -> v <- p
            moves += [(False, p) for p in parents[node]]
        for state in moves:
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return True
