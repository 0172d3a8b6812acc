"""Unit tests for the branch-and-bound solver (Algorithm 1 variants)."""

import random

import pytest

from repro.core.branch_and_bound import BranchAndBoundSolver, make_solver
from repro.core.bruteforce import BruteForceSolver
from repro.core.coverage import CoverageContext
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.core.strategies import (
    OrderingStrategy,
    QKCOrdering,
    VKCDegreeOrdering,
    VKCOrdering,
)
from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.index.nlrnl import NLRNLIndex


def coverages(result):
    return [round(group.coverage, 9) for group in result.groups]


def assert_valid_result(graph, query, result):
    """Structural invariants every KTG result must satisfy."""
    context = CoverageContext(graph, query.keywords)
    for group in result.groups:
        assert len(group.members) == query.group_size
        assert group.coverage == pytest.approx(context.group_coverage(group.members))
        for member in group.members:
            assert context.masks[member] != 0, "member covers no query keyword"
        for i, u in enumerate(group.members):
            for v in group.members[i + 1 :]:
                distance = graph.hop_distance(u, v)
                assert distance is None or distance > query.tenuity


class TestRunningExample:
    def test_figure1_optimum(self, figure1, figure1_q):
        result = BranchAndBoundSolver(figure1).solve(figure1_q)
        assert coverages(result) == [0.8, 0.8]
        assert_valid_result(figure1, figure1_q, result)

    @pytest.mark.parametrize("oracle_cls", [BFSOracle, NLIndex, NLRNLIndex])
    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda g: QKCOrdering(),
            lambda g: VKCOrdering(),
            lambda g: VKCDegreeOrdering(g.degrees()),
        ],
    )
    def test_all_variants_agree_on_coverage(
        self, figure1, figure1_q, oracle_cls, strategy_factory
    ):
        solver = BranchAndBoundSolver(
            figure1, oracle=oracle_cls(figure1), strategy=strategy_factory(figure1)
        )
        result = solver.solve(figure1_q)
        assert coverages(result) == [0.8, 0.8]
        assert_valid_result(figure1, figure1_q, result)

    def test_matches_brute_force(self, figure1, figure1_q):
        brute = BruteForceSolver(figure1).solve(figure1_q)
        fast = BranchAndBoundSolver(figure1).solve(figure1_q)
        assert coverages(fast) == coverages(brute)


class TestPruningToggles:
    @pytest.mark.parametrize("keyword_pruning", [True, False])
    @pytest.mark.parametrize("kline_filtering", [True, False])
    @pytest.mark.parametrize("use_union_bound", [True, False])
    def test_toggles_preserve_exactness(
        self, figure1, figure1_q, keyword_pruning, kline_filtering, use_union_bound
    ):
        solver = BranchAndBoundSolver(
            figure1,
            keyword_pruning=keyword_pruning,
            kline_filtering=kline_filtering,
            use_union_bound=use_union_bound,
        )
        result = solver.solve(figure1_q)
        assert coverages(result) == [0.8, 0.8]
        assert_valid_result(figure1, figure1_q, result)

    def test_pruning_reduces_nodes(self, figure1, figure1_q):
        pruned = BranchAndBoundSolver(figure1).solve(figure1_q)
        unpruned = BranchAndBoundSolver(figure1, keyword_pruning=False).solve(figure1_q)
        assert pruned.stats.nodes_expanded <= unpruned.stats.nodes_expanded
        assert pruned.stats.keyword_prunes > 0

    def test_kline_filtering_counts_removals(self, figure1, figure1_q):
        result = BranchAndBoundSolver(figure1).solve(figure1_q)
        assert result.stats.kline_removed > 0

    def test_leaf_completion_probes_prefix_once(self):
        # With k-line filtering off, the leaf completion certifies the
        # p-1 prefix once and checks only the p-1 new pairs per
        # candidate.  On an edgeless graph every pair is tenuous and
        # nothing short-circuits, so re-certifying the prefix per
        # candidate (the old behaviour) would cost exactly
        # C(p,2) probes per visited leaf candidate.
        from math import comb

        from repro.core.graph import AttributedGraph

        n, p = 7, 4
        graph = AttributedGraph(n, [], {v: ["a"] for v in range(n)})
        query = KTGQuery(keywords=("a",), group_size=p, tenuity=1, top_n=50)
        oracle = BFSOracle(graph)
        solver = BranchAndBoundSolver(graph, oracle=oracle, kline_filtering=False)
        result = solver.solve(query)
        leaves = comb(n, p)
        assert len(result.groups) == min(50, leaves)
        old_cost = leaves * comb(p, 2)
        assert oracle.stats.probes < old_cost


class TestEdgeCases:
    def test_group_size_one(self, figure1):
        query = KTGQuery(keywords=("SN", "QP"), group_size=1, tenuity=1, top_n=2)
        result = BranchAndBoundSolver(figure1).solve(query)
        assert len(result.groups) == 2
        assert result.best_coverage == pytest.approx(1.0)  # u10 covers both

    def test_infeasible_group_size_returns_empty(self, figure1):
        query = KTGQuery(keywords=("SN",), group_size=9, tenuity=1, top_n=1)
        result = BranchAndBoundSolver(figure1).solve(query)
        assert result.groups == ()
        assert result.best_coverage == 0.0

    def test_no_qualified_vertices(self, figure1):
        query = KTGQuery(keywords=("UNKNOWN-KW",), group_size=2, tenuity=1)
        result = BranchAndBoundSolver(figure1).solve(query)
        assert result.groups == ()

    def test_tenuity_zero_allows_neighbors(self, path_graph):
        query = KTGQuery(
            keywords=("a", "b", "c", "d", "e"), group_size=5, tenuity=0, top_n=1
        )
        result = BranchAndBoundSolver(path_graph).solve(query)
        assert len(result.groups) == 1
        assert result.best_coverage == pytest.approx(1.0)

    def test_large_tenuity_blocks_everything(self, path_graph):
        query = KTGQuery(keywords=("a", "e"), group_size=2, tenuity=4, top_n=1)
        result = BranchAndBoundSolver(path_graph).solve(query)
        assert result.groups == ()

    def test_disconnected_components_are_tenuous(self, disconnected_graph):
        query = KTGQuery(keywords=("x", "y", "z"), group_size=3, tenuity=3, top_n=1)
        result = BranchAndBoundSolver(disconnected_graph).solve(query)
        # One vertex per component: e.g. {0 or 2, 3 or 4, 5}.
        assert len(result.groups) == 1
        assert_valid_result(disconnected_graph, query, result)

    def test_candidate_restriction(self, figure1, figure1_q):
        solver = BranchAndBoundSolver(figure1)
        result = solver.solve(figure1_q, candidates=[0, 1, 2, 3])
        for group in result.groups:
            assert set(group.members) <= {0, 1, 3}  # 2 has no query keyword


class TestAnchors:
    def test_anchor_excludes_neighbourhood(self, figure1):
        query = KTGQuery(
            keywords=("SN", "QP", "DQ", "GQ", "GD"),
            group_size=3,
            tenuity=1,
            top_n=2,
            excluded_anchors=(10,),
        )
        result = BranchAndBoundSolver(figure1).solve(query)
        blocked = {10, 6, 11}  # u10 and its 1-hop neighbours
        for group in result.groups:
            assert not blocked & set(group.members)
        assert_valid_result(figure1, query, result)

    def test_anchor_itself_never_in_result(self, figure1):
        query = KTGQuery(
            keywords=("SN", "GD"), group_size=2, tenuity=1, excluded_anchors=(0,)
        )
        result = BranchAndBoundSolver(figure1).solve(query)
        for group in result.groups:
            assert 0 not in group.members


class TestInstrumentation:
    def test_stats_populated(self, figure1, figure1_q):
        result = BranchAndBoundSolver(figure1).solve(figure1_q)
        stats = result.stats
        assert stats.nodes_expanded > 0
        assert stats.feasible_groups >= 2
        assert stats.offers_accepted >= 2
        assert stats.elapsed_seconds > 0
        assert stats.first_feasible_node is not None

    def test_algorithm_name_composition(self, figure1):
        solver = BranchAndBoundSolver(
            figure1,
            oracle=NLRNLIndex(figure1),
            strategy=VKCDegreeOrdering(figure1.degrees()),
        )
        assert solver.algorithm_name == "KTG-VKC-DEG-NLRNL"

    def test_result_str_lists_groups(self, figure1, figure1_q):
        result = BranchAndBoundSolver(figure1).solve(figure1_q)
        text = str(result)
        assert "1." in text and "coverage" in text

    def test_result_str_empty(self, figure1):
        query = KTGQuery(keywords=("UNKNOWN",), group_size=2)
        result = BranchAndBoundSolver(figure1).solve(query)
        assert "no feasible group" in str(result)

    def test_member_sets(self, figure1, figure1_q):
        result = BranchAndBoundSolver(figure1).solve(figure1_q)
        assert len(result.member_sets()) == 2


class TestFactory:
    def test_make_solver_defaults_to_vkc_deg(self, figure1):
        solver = make_solver(figure1)
        assert isinstance(solver.strategy, VKCDegreeOrdering)

    def test_make_solver_forwards_options(self, figure1):
        solver = make_solver(figure1, "vkc", keyword_pruning=False)
        assert isinstance(solver.strategy, VKCOrdering)
        assert solver.keyword_pruning is False


class AscendingDegreeOrdering(OrderingStrategy):
    """A public-API strategy that re-sorts, but not by VKC."""

    name = "asc-degree"

    def __init__(self, degrees):
        self._degrees = degrees

    def initial_order(self, candidates, context):
        return sorted(candidates, key=self._degrees.__getitem__)

    def reorder(self, candidates, covered_mask, context):
        return sorted(candidates, key=self._degrees.__getitem__)


class TestCustomStrategies:
    def test_only_vkc_orders_claim_vkc_descending(self, figure1):
        assert VKCOrdering().vkc_descending
        assert VKCDegreeOrdering(figure1.degrees()).vkc_descending
        assert not QKCOrdering().vkc_descending
        strategy = AscendingDegreeOrdering(figure1.degrees())
        assert strategy.resorts and not strategy.vkc_descending

    def test_resorting_custom_strategy_stays_exact(self):
        # A strategy that re-sorts by something other than VKC must get
        # the scanning Theorem-2 bound and a full leaf scan: head-sum
        # bounds and early leaf breaks would prune admissible groups.
        rng = random.Random(14)
        pool = ["a", "b", "c", "d", "e", "f", "g"]
        for _ in range(200):
            n = 14
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, rng.randrange(2 * n))
            keywords = {v: rng.sample(pool, rng.randrange(4)) for v in range(n)}
            graph = AttributedGraph(n, edges, keywords)
            query = KTGQuery(
                keywords=tuple(rng.sample(pool, 5)), group_size=3, tenuity=1, top_n=2
            )
            solver = BranchAndBoundSolver(
                graph,
                oracle=NLRNLIndex(graph),
                strategy=AscendingDegreeOrdering(graph.degrees()),
            )
            expected = BruteForceSolver(graph).solve(query)
            assert coverages(solver.solve(query)) == coverages(expected)
