"""Unit tests for anytime node/time budgets on the solver."""

import pytest

from repro.core import branch_and_bound as bnb
from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.bruteforce import BruteForceSolver
from repro.core.coverage import CoverageContext
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.core.strategies import VKCOrdering
from repro.index.bfs import BFSOracle
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
    """VKC ordering that logs its re-sorts."""

    def __init__(self, log: list) -> None:
        self.log = log

    def reorder(self, candidates, covered_mask, context):
        self.log.append(("reorder",))
        return super().reorder(candidates, covered_mask, context)


class _CountingOracle(BFSOracle):
    """BFS oracle that logs each k-line filter call."""

    def __init__(self, graph, log: list) -> None:
        super().__init__(graph)
        self.log = log

    def filter_candidates(self, candidates, member, k):
        self.log.append(("filter", member))
        return super().filter_candidates(candidates, member, k)


class _EventLog(SolverHooks):
    """Logs node entries and prunes into the same list as the oracle and
    the strategy, so each child's filter/re-sort calls can be told apart."""

    def __init__(self, log: list) -> None:
        self.log = log

    def node_entered(self, members, slots, remaining):
        self.log.append(("entered", members, remaining))

    def node_pruned(self, members, rule, bound, threshold):
        self.log.append(("pruned", members))


class _LateClock:
    """``time`` stand-in: the solve starts at 0 and every later reading
    is far past any deadline, so the first clock check trips."""

    def __init__(self) -> None:
        self.readings = 0

    def perf_counter(self) -> float:
        self.readings += 1
        return 0.0 if self.readings == 1 else 1e9


def _record_bulk_runs(solver) -> list:
    """Wrap the unhooked suffix replay; return the list it fills with
    the node range ``(start, end]`` of every run it is asked to replay."""
    runs = []
    replay = solver._replay_pruned_run

    def recording(count, stats):
        runs.append((stats.nodes_expanded, stats.nodes_expanded + count))
        replay(count, stats)

    solver._replay_pruned_run = recording
    return runs


class TestReplayedChildren:
    """Children decided without being built (exhausted before their list
    exists, or keyword-pruned before their filter or re-sort) are
    replayed through the same prologue as entered nodes.  Unhooked, a
    cut suffix of children is replayed in one step; hooked, child by
    child.  A budget must trip at the same node either way."""

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

    @pytest.mark.parametrize("engine", ["oracle", "bitset"])
    def test_time_budget_trips_inside_a_bulk_run(self, setting, monkeypatch, engine):
        """The first clock check (node 256) falls inside a replayed run:
        the bulk replay must read the clock there and trip at that node,
        as the per-child replay of the hooked solve does."""
        graph, query = setting
        query = query.with_(group_size=4, tenuity=1)
        outcomes = []
        for hooks in (None, SolverHooks()):
            monkeypatch.setattr(bnb, "time", _LateClock())
            solver = BranchAndBoundSolver(
                graph, distance_engine=engine, time_budget=1.0
            )
            runs = _record_bulk_runs(solver)
            outcomes.append(solver.solve(query, hooks=hooks))
            if hooks is None:
                assert any(start < 256 <= end for start, end in runs)
        fast, full = outcomes
        assert fast.stats.budget_exhausted and full.stats.budget_exhausted
        assert fast.stats.nodes_expanded == full.stats.nodes_expanded == 256
        assert fast.stats.node_prunes == full.stats.node_prunes
        assert fast.groups == full.groups

    def test_pruned_children_skip_their_resort(self, setting):
        """Most children of this query are cut before their k-line
        filter: they make neither a filter nor a re-sort call, every
        other child makes exactly one filter call, and the answer is
        still the exhaustive optimum."""
        graph, query = setting
        log: list = []
        solver = BranchAndBoundSolver(
            graph, oracle=_CountingOracle(graph, log), strategy=_CountingVKC(log)
        )
        fast = solver.solve(query)
        fast_calls = log.count(("reorder",)), sum(e[0] == "filter" for e in log)
        log.clear()
        full = solver.solve(query, hooks=_EventLog(log))

        children = cut_before_filter = 0
        for index, event in enumerate(log):
            if event[0] != "entered" or not event[1]:
                continue  # the root
            children += 1
            before = log[index - 1]
            if before[0] == "reorder":
                before = log[index - 2]
            if before == ("filter", event[1][-1]):
                continue
            # No filter (and no re-sort) for this child: it must be cut
            # on entry, announced with its whole unfiltered tail.
            assert log[index + 1] == ("pruned", event[1])
            assert before[0] != "reorder"
            cut_before_filter += 1
        filters = sum(event[0] == "filter" for event in log)
        assert children == full.stats.nodes_expanded - 1
        assert filters == children - cut_before_filter
        assert cut_before_filter > full.stats.nodes_expanded // 2
        assert fast_calls == (log.count(("reorder",)), filters)
        assert fast.groups == full.groups
        expected = BruteForceSolver(graph).solve(query)
        assert [g.coverage for g in fast.groups] == [g.coverage for g in expected.groups]


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
    def test_time_budget_trips(self):
        # The search is large enough that 1ms cannot finish it: ~36,000
        # nodes, ~30 ms unbudgeted (the 60-vertex ``setting`` search now
        # ends in under 1 ms, inside its first clock check).
        graph = make_random_attributed_graph(num_vertices=200, seed=2, vocabulary_size=10)
        labels = sorted(graph.keyword_table)[:6]
        query = KTGQuery(keywords=tuple(labels), group_size=4, tenuity=2, top_n=3)
        result = BranchAndBoundSolver(graph, time_budget=0.001).solve(query)
        assert not result.is_exact
        assert result.stats.elapsed_seconds < 1.0

    def test_generous_time_budget_is_exact(self, figure1, figure1_q):
        result = BranchAndBoundSolver(figure1, time_budget=60.0).solve(figure1_q)
        assert result.is_exact
        assert [round(g.coverage, 9) for g in result.groups] == [0.8, 0.8]
