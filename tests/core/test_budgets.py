"""Unit tests for anytime node/time budgets on the solver."""

import pytest

from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.coverage import CoverageContext
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.core.strategies import VKCOrdering
from repro.obs.hooks import SolverHooks
from tests.conftest import make_random_attributed_graph


@pytest.fixture(scope="module")
def setting():
    graph = make_random_attributed_graph(num_vertices=60, seed=2, vocabulary_size=10)
    labels = sorted(graph.keyword_table)[:6]
    query = KTGQuery(keywords=tuple(labels), group_size=4, tenuity=2, top_n=3)
    return graph, query


class TestValidation:
    def test_bad_budgets_rejected(self, figure1):
        with pytest.raises(ValueError):
            BranchAndBoundSolver(figure1, node_budget=0)
        with pytest.raises(ValueError):
            BranchAndBoundSolver(figure1, time_budget=0.0)


class TestNodeBudget:
    def test_unbudgeted_run_is_exact(self, setting):
        graph, query = setting
        result = BranchAndBoundSolver(graph).solve(query)
        assert result.is_exact
        assert not result.stats.budget_exhausted

    def test_budget_caps_nodes(self, setting):
        graph, query = setting
        result = BranchAndBoundSolver(graph, node_budget=50).solve(query)
        assert result.stats.nodes_expanded <= 51
        assert not result.is_exact

    def test_budget_result_is_anytime_valid(self, setting):
        """Budgeted results are still feasible k-distance groups."""
        graph, query = setting
        result = BranchAndBoundSolver(graph, node_budget=500).solve(query)
        context = CoverageContext(graph, query.keywords)
        for group in result.groups:
            assert len(group.members) == query.group_size
            for member in group.members:
                assert context.masks[member]
            for i, u in enumerate(group.members):
                for v in group.members[i + 1 :]:
                    distance = graph.hop_distance(u, v)
                    assert distance is None or distance > query.tenuity

    def test_budget_never_beats_exact(self, setting):
        graph, query = setting
        exact = BranchAndBoundSolver(graph).solve(query)
        capped = BranchAndBoundSolver(graph, node_budget=300).solve(query)
        assert capped.best_coverage <= exact.best_coverage + 1e-12

    def test_large_budget_equals_exact(self, setting):
        graph, query = setting
        exact = BranchAndBoundSolver(graph).solve(query)
        roomy = BranchAndBoundSolver(graph, node_budget=10_000_000).solve(query)
        assert roomy.is_exact
        assert [g.coverage for g in roomy.groups] == [g.coverage for g in exact.groups]


class _CountingVKC(VKCOrdering):
    """VKC ordering that counts its re-sorts."""

    def __init__(self) -> None:
        self.reorders = 0

    def reorder(self, candidates, covered_mask, context):
        self.reorders += 1
        return super().reorder(candidates, covered_mask, context)


class TestReplayedChildren:
    """Children decided without being built (exhausted before their list
    exists, or keyword-pruned before their re-sort) are replayed through
    the same prologue as entered nodes.  The hooked solve builds every
    child, so a budget must trip at the same node either way."""

    @pytest.mark.parametrize("engine", ["oracle", "bitset"])
    def test_budget_trips_at_the_same_node(self, setting, engine):
        graph, query = setting
        for node_budget in range(1, 61):
            solver = BranchAndBoundSolver(
                graph, distance_engine=engine, node_budget=node_budget
            )
            fast = solver.solve(query)
            full = solver.solve(query, hooks=SolverHooks())
            assert fast.stats.budget_exhausted == full.stats.budget_exhausted
            assert fast.stats.nodes_expanded == full.stats.nodes_expanded
            assert fast.stats.node_prunes == full.stats.node_prunes
            assert fast.groups == full.groups

    def test_pruned_children_skip_their_resort(self, setting):
        """Most children of this query are cut on entry; unhooked, they
        are decided before their re-sort, with identical counters."""
        graph, query = setting
        strategy = _CountingVKC()
        solver = BranchAndBoundSolver(graph, strategy=strategy)
        fast = solver.solve(query)
        fast_reorders, strategy.reorders = strategy.reorders, 0
        full = solver.solve(query, hooks=SolverHooks())
        assert fast.stats.node_prunes > fast.stats.nodes_expanded // 2
        assert fast_reorders < strategy.reorders // 2
        assert fast.groups == full.groups
        assert fast.stats.node_prunes == full.stats.node_prunes
        assert fast.stats.nodes_expanded == full.stats.nodes_expanded


class TestLeafScanDeadline:
    """Regression: the deadline must also be honoured inside the
    ``_complete_groups`` leaf scan, not just between tree nodes — one
    dense leaf with thousands of remaining candidates used to blow far
    past ``time_budget`` before the next node-level check fired."""

    def test_single_dense_leaf_respects_deadline(self):
        # An edgeless graph where every vertex carries the query keyword:
        # with p=2 the very first leaf scans ~n candidates, all feasible.
        # keyword_pruning=False disables the sorted-gain early break, so
        # without an in-leaf deadline check the scan would run all the
        # way through (~n^2/2 offers over the whole search).
        n = 4000
        graph = AttributedGraph(n, [], {v: ["a"] for v in range(n)})
        query = KTGQuery(keywords=("a",), group_size=2, tenuity=1, top_n=3)
        solver = BranchAndBoundSolver(
            graph, time_budget=0.001, keyword_pruning=False
        )
        result = solver.solve(query)
        assert not result.is_exact
        assert result.stats.budget_exhausted
        # Bounded overshoot: the scan stops within one 256-candidate
        # amortisation window of the deadline, far below the multi-second
        # full enumeration.
        assert result.stats.elapsed_seconds < 0.5


class TestTimeBudget:
    def test_time_budget_trips(self, setting):
        graph, query = setting
        result = BranchAndBoundSolver(graph, time_budget=0.001).solve(query)
        # The search is large enough that 1ms cannot finish it.
        assert not result.is_exact
        assert result.stats.elapsed_seconds < 1.0

    def test_generous_time_budget_is_exact(self, figure1, figure1_q):
        result = BranchAndBoundSolver(figure1, time_budget=60.0).solve(figure1_q)
        assert result.is_exact
        assert [round(g.coverage, 9) for g in result.groups] == [0.8, 0.8]
