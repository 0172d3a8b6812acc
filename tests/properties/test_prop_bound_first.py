"""Property tests: deciding a child's keyword prune before its re-sort is exact.

Under a VKC order with keyword pruning on, the solver decides each
child's Theorem 2 prune from the parent's candidate order and replays
the child's entry instead of re-sorting its candidates.  That shortcut
is taken only when no hooks are attached, so a solve with a no-op
:class:`SolverHooks` subscriber runs the unchanged full path.  The two
solves must agree on the groups and on every search counter, in both
distance engines, with and without a node budget, and unbudgeted they
must also agree with exhaustive enumeration.
"""

from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.bruteforce import BruteForceSolver
from repro.core.strategies import VKCDegreeOrdering, VKCOrdering
from repro.obs.hooks import SolverHooks
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
    node_budget=st.one_of(st.none(), st.integers(min_value=1, max_value=25)),
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
