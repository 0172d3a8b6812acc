"""Property tests: deciding a child's keyword prune before its filter is exact.

Under a VKC order with keyword pruning on, the solver decides each
child's Theorem 2 prune from the parent's candidate order, before the
child's k-line filter (and, failing that, before its re-sort), and
replays the child's entry.  The first child cut before its filter
proves every later sibling cut: unhooked, that suffix is replayed in
one arithmetic step; with a no-op :class:`SolverHooks` subscriber,
child by child.  The two solves must agree on the groups and on every
search counter, in both distance engines, with and without a node
budget (up to 400 nodes, so budgets trip inside replayed suffixes), and
unbudgeted they must also agree with exhaustive enumeration.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.bruteforce import BruteForceSolver
from repro.core.query import KTGQuery
from repro.core.strategies import VKCDegreeOrdering, VKCOrdering
from repro.obs.hooks import SolverHooks
from tests.conftest import make_random_attributed_graph
from tests.properties.test_prop_solver import (
    attributed_graphs,
    coverage_profile,
    queries,
)

STRATEGIES = (
    lambda graph: VKCOrdering(),
    lambda graph: VKCDegreeOrdering(graph.degrees(), degree_order="ascending"),
    lambda graph: VKCDegreeOrdering(graph.degrees(), degree_order="descending"),
)


def counters(result) -> dict:
    """Every :class:`SearchStats` field except the wall time."""
    fields = asdict(result.stats)
    del fields["elapsed_seconds"]
    return fields


@settings(max_examples=150, deadline=None)
@given(
    graph=attributed_graphs(),
    query=queries(),
    strategy=st.sampled_from(range(len(STRATEGIES))),
    engine=st.sampled_from(("oracle", "bitset")),
    node_budget=st.one_of(st.none(), st.integers(min_value=1, max_value=400)),
)
def test_bound_before_resort_matches_full_path(
    graph, query, strategy, engine, node_budget
):
    solver = BranchAndBoundSolver(
        graph,
        strategy=STRATEGIES[strategy](graph),
        distance_engine=engine,
        node_budget=node_budget,
    )
    fast = solver.solve(query)
    full = solver.solve(query, hooks=SolverHooks())
    assert fast.groups == full.groups
    assert counters(fast) == counters(full)
    if node_budget is None:
        expected = BruteForceSolver(graph).solve(query)
        assert coverage_profile(fast) == coverage_profile(expected)


@pytest.mark.parametrize("seed", range(12))
def test_bound_before_filter_matches_brute_force(seed):
    """Denser instances than the strategy above draws: 24 vertices, 8
    labels, 6 query keywords, so gains differ along each window and a
    bound that undercounts (a window shifted by one, or gains taken
    against the child's mask) cuts an optimal branch."""
    graph = make_random_attributed_graph(num_vertices=24, seed=seed, vocabulary_size=8)
    labels = tuple(sorted(graph.keyword_table)[:6])
    for tenuity in (1, 2):
        query = KTGQuery(keywords=labels, group_size=3, tenuity=tenuity, top_n=3)
        expected = BruteForceSolver(graph).solve(query)
        for hooks in (None, SolverHooks()):
            result = BranchAndBoundSolver(graph).solve(query, hooks=hooks)
            assert coverage_profile(result) == coverage_profile(expected)
