import itertools
import json
import random

import pytest

from ovbkit.adjustment import (
    CausalQuery,
    augment_with_confounder,
    backdoor_paths,
    edge_confounder_report,
    is_valid_adjustment,
    minimal_adjustment_sets,
)
from ovbkit.dag import CausalDag, DagError, parse_dag
from ovbkit.fixtures import fixture_text
from ovbkit.scm import LinearGaussian, ScmSpec, sample
from ovbkit.stats import ols_fit

from _oracles import (
    closure_below,
    directed_paths,
    minimal_sets_oracle,
    random_dag,
    valid_adjustment_oracle,
)

TRIANGLE = CausalDag.from_edges([("Z", "X"), ("Z", "Y"), ("X", "Y")])
NO_BACKDOOR = CausalDag.from_edges([("X", "Y"), ("Z", "Y")])


@pytest.fixture(scope="module")
def fig3_query():
    dag = parse_dag(fixture_text("productivity.dag"))
    return CausalQuery(dag, "T", "E")


class TestBackdoorPaths:
    def test_single_confounding_path(self):
        query = CausalQuery(TRIANGLE, "X", "Y")
        assert backdoor_paths(query) == [("X", "Z", "Y")]

    def test_no_edge_into_treatment(self):
        assert backdoor_paths(CausalQuery(NO_BACKDOOR, "X", "Y")) == []

    def test_fig3_contains_short_paths(self, fig3_query):
        paths = backdoor_paths(fig3_query)
        assert ("T", "O", "E") in paths
        assert ("T", "S", "E") in paths
        assert all(p[0] == "T" and p[-1] == "E" for p in paths)
        assert all((p[1], "T") in fig3_query.dag.edges for p in paths)


class TestValidity:
    def test_fig3_spec_sets(self, fig3_query):
        assert is_valid_adjustment(fig3_query, {"O", "S"})
        assert not is_valid_adjustment(fig3_query, {"O"})

    def test_triangle(self):
        query = CausalQuery(TRIANGLE, "X", "Y")
        assert not is_valid_adjustment(query, set())
        assert is_valid_adjustment(query, {"Z"})

    def test_treatment_descendants_rejected(self):
        dag = CausalDag.from_edges([("Z", "X"), ("Z", "Y"), ("X", "M"), ("M", "Y")])
        query = CausalQuery(dag, "X", "Y")
        assert not is_valid_adjustment(query, {"Z", "M"})

    def test_overlap_is_an_error(self, fig3_query):
        with pytest.raises(DagError):
            is_valid_adjustment(fig3_query, {"T"})
        with pytest.raises(DagError):
            is_valid_adjustment(fig3_query, {"E", "O"})

    def test_agrees_with_validity_oracle(self):
        rng = random.Random(5150)
        for _ in range(60):
            dag = random_dag(rng)
            t, y = rng.sample(sorted(dag.nodes), 2)
            query = CausalQuery(dag, t, y)
            others = sorted(dag.nodes - {t, y})
            for size in range(len(others) + 1):
                for combo in itertools.combinations(others, size):
                    subset = frozenset(combo)
                    assert is_valid_adjustment(query, subset) == valid_adjustment_oracle(
                        dag, t, y, subset
                    )


class TestMinimalSets:
    def test_fig3(self, fig3_query):
        assert minimal_adjustment_sets(fig3_query) == [frozenset({"O", "S"})]

    def test_triangle(self):
        assert minimal_adjustment_sets(CausalQuery(TRIANGLE, "X", "Y")) == [frozenset({"Z"})]

    def test_no_backdoor_means_empty_set(self):
        assert minimal_adjustment_sets(CausalQuery(NO_BACKDOOR, "X", "Y")) == [frozenset()]

    def test_observed_only_can_rule_everything_out(self):
        dag = parse_dag(fixture_text("confounder-triangle.dag"))
        query = CausalQuery(dag, "X", "Y")
        assert minimal_adjustment_sets(query, observed_only=True) == []
        assert minimal_adjustment_sets(query) == [frozenset({"Z"})]

    def test_returned_sets_are_valid_and_minimal(self, fig3_query):
        rng = random.Random(915)
        queries = [fig3_query]
        for _ in range(25):
            dag = random_dag(rng)
            t, y = rng.sample(sorted(dag.nodes), 2)
            queries.append(CausalQuery(dag, t, y))
        for query in queries:
            for found in minimal_adjustment_sets(query):
                assert is_valid_adjustment(query, found)
                for drop in found:
                    assert not is_valid_adjustment(query, found - {drop})

    def test_agrees_with_subset_oracle(self):
        rng = random.Random(214)
        for _ in range(60):
            dag = random_dag(rng)
            t, y = rng.sample(sorted(dag.nodes), 2)
            query = CausalQuery(dag, t, y)
            for observed_only in (False, True):
                got = sorted(
                    minimal_adjustment_sets(query, observed_only),
                    key=lambda s: (len(s), tuple(sorted(s))),
                )
                assert got == minimal_sets_oracle(dag, t, y, observed_only)

    def test_observed_sets_are_the_latent_free_sets(self):
        # The CLI and the per-edge report take the observed-only sets from
        # one scan with latents allowed.
        rng = random.Random(1717)
        for _ in range(200):
            dag = random_dag(rng, max_nodes=10, edge_prob=0.5, min_nodes=5)
            t, y = rng.sample(sorted(dag.nodes), 2)
            query = CausalQuery(dag, t, y)
            with_latents = minimal_adjustment_sets(query)
            assert [s for s in with_latents if not s & dag.latent] == (
                minimal_adjustment_sets(query, observed_only=True)
            )

    def test_regression_on_adjustment_set_recovers_edge_weight(self):
        # Semantic check: conditioning on any minimal adjustment set makes the
        # regression coefficient match the generating edge weight.
        rng = random.Random(77)
        checked = 0
        while checked < 8:
            dag = random_dag(rng, edge_prob=0.5)
            if not dag.edges:
                continue
            treatment, outcome = sorted(dag.edges)[rng.randrange(len(dag.edges))]
            if len(directed_paths(dag, treatment, outcome)) != 1:
                continue  # mediated paths would add to the direct weight
            weights = {
                node: {p: rng.uniform(-1.0, 1.0) for p in dag.parents(node)}
                for node in dag.nodes
            }
            spec = ScmSpec(
                dag,
                {n: LinearGaussian(0.0, w, 1.0) for n, w in weights.items()},
            )
            sets = minimal_adjustment_sets(CausalQuery(dag, treatment, outcome))
            if not sets:
                continue
            data = sample(spec, 20_000, seed=1000 + checked)
            for adjustment in sets:
                fit = ols_fit(data, outcome, [treatment, *sorted(adjustment)])
                estimate = fit.coefficients[treatment]
                error = fit.std_errors[treatment]
                truth = weights[outcome][treatment]
                assert abs(estimate - truth) <= 3 * error
            checked += 1

    def test_agrees_with_networkx_on_larger_graphs(self):
        # Beyond the subset oracle's reach: every listed set must be a minimal
        # separator of the backdoor graph within the allowed pool, and the
        # list may be empty only when no separator exists there.
        nx = pytest.importorskip("networkx")
        rng = random.Random(2019)
        for _ in range(20):
            dag = random_dag(rng, max_nodes=20, edge_prob=0.25, min_nodes=16)
            t, y = rng.sample(sorted(dag.nodes), 2)
            query = CausalQuery(dag, t, y)
            backdoor = nx.DiGraph([e for e in dag.edges if e[0] != t])
            backdoor.add_nodes_from(dag.nodes)
            for observed_only in (False, True):
                pool = dag.nodes - {t, y} - closure_below(dag, t)
                if observed_only:
                    pool -= dag.latent
                found = minimal_adjustment_sets(query, observed_only)
                for adjustment in found:
                    assert nx.is_minimal_d_separator(
                        backdoor, t, y, adjustment, restricted=pool
                    )
                separator = nx.find_minimal_d_separator(backdoor, t, y, restricted=pool)
                assert (not found) == (separator is None)


class TestAugmentation:
    def test_makes_the_confounding_triangle(self):
        dag = CausalDag.from_edges([("X", "Y")])
        augmented = augment_with_confounder(dag, ("X", "Y"))
        assert augmented.nodes == {"X", "Y", "Z_X_Y"}
        assert augmented.latent == {"Z_X_Y"}
        assert augmented.edges == {("X", "Y"), ("Z_X_Y", "X"), ("Z_X_Y", "Y")}
        assert dag.nodes == {"X", "Y"}  # original untouched

    def test_fig3_sizes(self, fig3_query):
        for edge in (("S", "T"), ("T", "E")):
            augmented = augment_with_confounder(fig3_query.dag, edge)
            assert len(augmented.nodes) == 11
            assert len(augmented.edges) == 20
        assert "Z_T_E" in augment_with_confounder(fig3_query.dag, ("T", "E")).latent

    def test_errors(self, fig3_query):
        with pytest.raises(DagError):
            augment_with_confounder(fig3_query.dag, ("E", "T"))

    def test_a_taken_name_gets_the_first_free_suffix(self):
        taken = CausalDag.from_edges([("X", "Y"), ("Z_X_Y", "X")])
        assert augment_with_confounder(taken, ("X", "Y")).latent == {"Z_X_Y_1"}
        taken = CausalDag.from_edges([("X", "Y"), ("Z_X_Y", "X"), ("Z_X_Y_1", "Y")])
        augmented = augment_with_confounder(taken, ("X", "Y"))
        assert augmented.latent == {"Z_X_Y_2"}
        assert augmented.edges - taken.edges == {("Z_X_Y_2", "X"), ("Z_X_Y_2", "Y")}


class TestEdgeConfounderReport:
    def test_reproduces_reference_table(self, fig3_query):
        report = edge_confounder_report(fig3_query)
        assert len(report.entries) == 18
        by_edge = {entry.edge: entry for entry in report.entries}
        for edge, entry in by_edge.items():
            if edge == ("S", "T"):
                assert set(entry.sets) == {
                    frozenset({"B", "K", "O", "S"}),
                    frozenset({"O", "S", "Z_S_T"}),
                }
                assert list(entry.observed_sets) == [frozenset({"B", "K", "O", "S"})]
                assert not entry.unadjustable
            elif edge == ("T", "E"):
                assert list(entry.sets) == [frozenset({"O", "S", "Z_T_E"})]
                assert entry.observed_sets == ()
                assert entry.unadjustable
            else:
                assert list(entry.sets) == [frozenset({"O", "S"})]
                assert not entry.unadjustable

    def test_single_edge_dag_is_unadjustable(self):
        dag = parse_dag("X -> Y")
        report = edge_confounder_report(CausalQuery(dag, "X", "Y"))
        assert len(report.entries) == 1
        assert report.entries[0].unadjustable

    @pytest.mark.parametrize("fixture", ["productivity.dag", "confounder-triangle.dag"])
    def test_unadjustable_means_no_observed_set(self, fixture):
        dag = parse_dag(fixture_text(fixture))
        report = edge_confounder_report(CausalQuery(dag, dag.treatment, dag.outcome))
        assert [e.unadjustable for e in report.entries] == [
            not e.observed_sets for e in report.entries
        ]
        assert any(e.unadjustable for e in report.entries)

    def test_isolated_nodes_do_not_add_rows(self):
        dag = parse_dag("X -> Y\nnode W")
        report = edge_confounder_report(CausalQuery(dag, "X", "Y"))
        assert [e.edge for e in report.entries] == [("X", "Y")]

    def test_json_shape(self, fig3_query):
        payload = json.loads(json.dumps(edge_confounder_report(fig3_query).to_json_dict()))
        assert payload["treatment"] == "T"
        assert len(payload["edges"]) == 18
        first = payload["edges"][0]
        assert set(first) == {"from", "to", "sets", "observed_sets", "unadjustable"}

    def test_text_layout(self, fig3_query):
        text = edge_confounder_report(fig3_query).to_text()
        lines = text.splitlines()
        assert len(lines) == 19  # header + 18 rows
        assert any("S -> T" in line and "{B, K, O, S}" in line for line in lines)
        assert any("T -> E" in line and "unadjustable" in line for line in lines)
