import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovbkit.dag import (
    CausalDag,
    CycleError,
    DagError,
    DagSyntaxError,
    SeparationQuery,
    ancestors,
    descendants,
    is_d_separated,
    parse_dag,
    serialize_dag,
    topological_order,
)
from ovbkit.fixtures import fixture_text
from ovbkit.scm import confounded_scm

from _oracles import d_separated_oracle, random_dag

CHAIN = CausalDag.from_edges([("X", "Z"), ("Z", "Y")])
FORK = CausalDag.from_edges([("Z", "X"), ("Z", "Y")])
COLLIDER = CausalDag.from_edges([("X", "Z"), ("Y", "Z")])
TRIANGLE = CausalDag.from_edges([("Z", "X"), ("Z", "Y"), ("X", "Y")])


@pytest.fixture(scope="module")
def fig3():
    return parse_dag(fixture_text("productivity.dag"))


@st.composite
def small_dags(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    names = [f"N{i}" for i in range(count)]
    order = draw(st.permutations(names))
    edges = frozenset(
        (order[i], order[j])
        for i in range(count)
        for j in range(i + 1, count)
        if draw(st.booleans())
    )
    latent = frozenset(draw(st.sets(st.sampled_from(names))))
    treatment = draw(st.none() | st.sampled_from(names))
    outcome = draw(st.none() | st.sampled_from(names))
    return CausalDag(frozenset(names), edges, latent, treatment, outcome)


class TestParsing:
    def test_smallest_dag(self):
        dag = parse_dag("X -> Y")
        assert dag.nodes == {"X", "Y"}
        assert dag.edges == {("X", "Y")}
        assert dag.latent == frozenset()

    def test_fig3_fixture_shape(self, fig3):
        assert len(fig3.nodes) == 10
        assert len(fig3.edges) == 18
        assert fig3.treatment == "T"
        assert fig3.outcome == "E"

    def test_cycle_reported_with_witness(self):
        with pytest.raises(CycleError) as err:
            parse_dag("A -> B\nB -> A")
        assert set(err.value.cycle) == {"A", "B"}
        # Of the leftover nodes, the walk starts at the smallest (B) and
        # follows each node's smallest leftover parent.
        edges = "X -> A\nA -> B\nB -> C\nC -> A\nC -> D\nD -> E\nE -> D"
        with pytest.raises(CycleError) as err:
            parse_dag(edges)
        assert str(err.value) == "cycle detected: B -> C -> A -> B"
        # The smallest node, A, is a root outside the cycle: the walk starts
        # only from nodes Kahn's algorithm left over.
        with pytest.raises(CycleError, match="^cycle detected: C -> B -> C$"):
            parse_dag("A -> B\nB -> C\nC -> B")

    def test_comments_and_blank_lines(self):
        dag = parse_dag("# header\n\nX -> Y  # trailing\nlatent Z\nZ -> Y\n")
        assert dag.latent == {"Z"}
        assert dag.edges == {("X", "Y"), ("Z", "Y")}

    def test_latent_declared_after_edge_still_latent(self):
        dag = parse_dag("Z -> Y\nlatent Z")
        assert dag.latent == {"Z"}

    def test_roles_declare_nodes(self):
        dag = parse_dag("treatment X\noutcome Y\nX -> Y")
        assert dag.treatment == "X" and dag.outcome == "Y"

    @pytest.mark.parametrize(
        "text",
        [
            "X - > Y",
            "X -> ",
            "north -> south -> east",
            "node",
            "latent 1bad",
            "frobnicate X",
            "X -> X",
            "X -> Y\nX -> Y",
            "node X\nlatent X",
            "latent X\nnode X",
            "treatment X\ntreatment Y",
        ],
    )
    def test_malformed_input(self, text):
        with pytest.raises(DagSyntaxError):
            parse_dag(text)

    def test_error_carries_position(self):
        with pytest.raises(DagSyntaxError) as err:
            parse_dag("X -> Y\nY -> 2Y")
        assert err.value.line == 2
        assert err.value.column == 6

    @settings(max_examples=150)
    @given(small_dags())
    def test_serialize_round_trip(self, dag):
        assert parse_dag(serialize_dag(dag)) == dag


class TestStructure:
    def test_invalid_construction(self):
        with pytest.raises(DagError):
            CausalDag(frozenset({"X"}), frozenset({("X", "Y")}))
        with pytest.raises(DagError):
            CausalDag(frozenset({"X"}), frozenset({("X", "X")}))
        with pytest.raises(DagError):
            CausalDag(frozenset({"X"}), frozenset(), latent=frozenset({"Q"}))
        with pytest.raises(CycleError):
            CausalDag.from_edges([("A", "B"), ("B", "C"), ("C", "A")])
        for name in ("1X", "X Y", "", 3):  # a string that is no name, and no string
            with pytest.raises(DagError, match="^invalid node name"):
                CausalDag(frozenset({name}), frozenset())

    def test_topological_order_chain(self):
        assert topological_order(CHAIN) == ["X", "Z", "Y"]

    def test_topological_order_forced_by_edges(self):
        assert topological_order(TRIANGLE) == ["Z", "X", "Y"]

    def test_topological_order_fig3(self, fig3):
        order = topological_order(fig3)
        position = {name: i for i, name in enumerate(order)}
        for tail, head in fig3.edges:
            assert position[tail] < position[head]
        for early in "BKO":
            assert position[early] < position["S"] and position[early] < position["T"]
        assert order[-1] == "E"
        assert topological_order(fig3) == order  # repeated calls identical

    def test_topological_order_is_a_fresh_list(self):
        spec = confounded_scm()
        order = topological_order(spec.dag)
        order.reverse()
        order.append("W")
        assert topological_order(spec.dag) == ["Z", "X", "Y"]
        assert spec.order == ("Z", "X", "Y")
        assert "_order" not in repr(spec.dag)

    def test_ancestors_and_descendants(self, fig3):
        assert descendants(fig3, "T") == {"E"}
        assert ancestors(TRIANGLE, "Y") == {"X", "Z"}
        assert descendants(fig3, "E") == set()
        with pytest.raises(DagError):
            descendants(fig3, "Q")

    @settings(max_examples=100)
    @given(small_dags())
    def test_ancestors_descendants_disjoint(self, dag):
        for node in dag.nodes:
            assert not (ancestors(dag, node) & descendants(dag, node))


class TestDSeparation:
    def test_chain_blocked_by_conditioning(self):
        assert is_d_separated(CHAIN, SeparationQuery("X", "Y", frozenset({"Z"})))
        assert not is_d_separated(CHAIN, SeparationQuery("X", "Y"))

    def test_collider_rules(self):
        assert is_d_separated(COLLIDER, SeparationQuery("X", "Y"))
        assert not is_d_separated(COLLIDER, SeparationQuery("X", "Y", frozenset({"Z"})))

    def test_collider_opened_by_descendant(self):
        dag = CausalDag.from_edges([("X", "Z"), ("Y", "Z"), ("Z", "W")])
        assert not is_d_separated(dag, SeparationQuery("X", "Y", frozenset({"W"})))

    def test_open_fork(self):
        assert not is_d_separated(FORK, SeparationQuery("X", "Y"))
        assert is_d_separated(FORK, SeparationQuery("X", "Y", frozenset({"Z"})))

    def test_query_invariants(self):
        with pytest.raises(DagError):
            SeparationQuery("X", "X")
        with pytest.raises(DagError):
            SeparationQuery("X", "Y", frozenset({"X"}))
        with pytest.raises(DagError):
            is_d_separated(CHAIN, SeparationQuery("X", "Q"))

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(20240817)
        for _ in range(120):
            dag = random_dag(rng)
            names = sorted(dag.nodes)
            x, y = rng.sample(names, 2)
            rest = [n for n in names if n not in (x, y)]
            given = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
            expected = d_separated_oracle(dag, x, y, given)
            assert is_d_separated(dag, SeparationQuery(x, y, given)) == expected
