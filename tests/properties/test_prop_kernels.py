"""Property tests: the ball-bitset engine is a pure view of its oracle.

Two contracts, exercised over random graphs and queries:

* **Ball fidelity** — ``engine.decode(engine.ball(v, k))`` equals
  ``oracle.within_k(v, k)`` for every backing oracle (BFS, NL, NLRNL,
  PLL) and every ``k`` in 1..4, regardless of the cache budget.
* **Engine equivalence** — ``solve(distance_engine="bitset")`` returns
  ranked groups (members AND coverages) *and* search stats identical to
  the oracle engine, for every strategy, with k-line filtering on or
  off, with budgets on or off.
* **Backend equivalence** — balls built by the numpy kernels equal the
  ones built with numpy hidden (``vec._np = None``), and bitset solves
  on either return identical ranked groups and identical
  :class:`SearchStats` ledgers, across strategies and pruning
  ablations.
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.bruteforce import BruteForceSolver
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.core.strategies import QKCOrdering, VKCDegreeOrdering, VKCOrdering
from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.index.nlrnl import NLRNLIndex
from repro.index.pll import PLLIndex
from repro.kernels import BallBitsetEngine, vec

KEYWORD_POOL = ["a", "b", "c", "d", "e", "f"]

ORACLES = [BFSOracle, NLIndex, NLRNLIndex, PLLIndex]

STRATEGIES = [
    ("qkc", lambda g: QKCOrdering()),
    ("vkc", lambda g: VKCOrdering()),
    ("vkc-deg", lambda g: VKCDegreeOrdering(g.degrees())),
]


@st.composite
def attributed_graphs(draw):
    """Random graphs of 4-14 vertices with random keyword sets."""
    n = draw(st.integers(min_value=4, max_value=14))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), unique=True, max_size=2 * n)
    )
    keywords = {
        v: draw(st.lists(st.sampled_from(KEYWORD_POOL), unique=True, max_size=3))
        for v in range(n)
    }
    return AttributedGraph(n, edges, keywords)


@st.composite
def queries(draw):
    keywords = tuple(
        draw(
            st.lists(
                st.sampled_from(KEYWORD_POOL), unique=True, min_size=1, max_size=4
            )
        )
    )
    return KTGQuery(
        keywords=keywords,
        group_size=draw(st.integers(min_value=2, max_value=4)),
        tenuity=draw(st.integers(min_value=0, max_value=3)),
        top_n=draw(st.integers(min_value=1, max_value=4)),
    )


def ranked_groups(result):
    return [(group.members, round(group.coverage, 12)) for group in result.groups]


def stats_profile(stats):
    return (
        stats.nodes_expanded,
        stats.keyword_prunes,
        stats.kline_removed,
        stats.offers_accepted,
        stats.feasible_groups,
        stats.budget_exhausted,
    )


# ----------------------------------------------------------------------
# Ball fidelity
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    graph=attributed_graphs(),
    oracle_index=st.integers(0, len(ORACLES) - 1),
    max_balls=st.sampled_from([0, 3, 8192]),
)
def test_ball_decodes_to_within_k(graph, oracle_index, max_balls):
    oracle = ORACLES[oracle_index](graph)
    engine = BallBitsetEngine(oracle, max_balls=max_balls)
    for vertex in range(graph.num_vertices):
        for k in (1, 2, 3, 4):
            assert engine.decode(engine.ball(vertex, k)) == oracle.within_k(
                vertex, k
            ), (type(oracle).__name__, vertex, k)


@contextlib.contextmanager
def scalar_kernels():
    """Context in which the kernels see no numpy (the ``vec._np`` seam)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec, "_np", None)
        yield


@pytest.mark.skipif(vec.numpy_or_none() is None, reason="numpy not importable")
@settings(max_examples=30, deadline=None)
@given(graph=attributed_graphs())
def test_ball_builds_identical_without_numpy(graph):
    """The numpy ball builders and their scalar twins produce identical
    bitsets."""
    keys = [(v, k) for v in range(graph.num_vertices) for k in (1, 2, 3, 4)]
    fast = BallBitsetEngine(BFSOracle(graph))
    fast_balls = [fast.ball(v, k) for v, k in keys]
    with scalar_kernels():
        scalar = BallBitsetEngine(BFSOracle(graph))
        scalar_balls = [scalar.ball(v, k) for v, k in keys]
    assert (fast.backend, scalar.backend) == ("numpy", "python")
    assert fast.vec_sweeps > 0 and scalar.vec_sweeps == 0
    assert scalar_balls == fast_balls


# ----------------------------------------------------------------------
# Engine equivalence
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    graph=attributed_graphs(),
    query=queries(),
    strategy_index=st.integers(0, 2),
    kline=st.booleans(),
)
def test_bitset_solve_identical_to_oracle(graph, query, strategy_index, kline):
    _, factory = STRATEGIES[strategy_index]
    outcomes = []
    for engine_name in ("oracle", "bitset"):
        solver = BranchAndBoundSolver(
            graph,
            oracle=BFSOracle(graph),
            strategy=factory(graph),
            kline_filtering=kline,
            distance_engine=engine_name,
        )
        result = solver.solve(query)
        outcomes.append((ranked_groups(result), stats_profile(result.stats)))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=20, deadline=None)
@given(
    graph=attributed_graphs(),
    query=queries(),
    node_budget=st.integers(min_value=1, max_value=30),
)
def test_bitset_identical_under_node_budget(graph, query, node_budget):
    outcomes = []
    for engine_name in ("oracle", "bitset"):
        solver = BranchAndBoundSolver(
            graph,
            oracle=BFSOracle(graph),
            strategy=STRATEGIES[2][1](graph),
            node_budget=node_budget,
            distance_engine=engine_name,
        )
        result = solver.solve(query)
        outcomes.append((ranked_groups(result), stats_profile(result.stats)))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=15, deadline=None)
@given(
    graph=attributed_graphs(),
    query=queries(),
    anchors=st.lists(st.integers(min_value=0, max_value=13), max_size=2),
)
def test_bitset_identical_with_anchors(graph, query, anchors):
    anchors = tuple(a for a in anchors if a < graph.num_vertices)
    query = query.with_(excluded_anchors=anchors)
    outcomes = []
    for engine_name in ("oracle", "bitset"):
        solver = BranchAndBoundSolver(
            graph,
            oracle=BFSOracle(graph),
            distance_engine=engine_name,
        )
        result = solver.solve(query)
        outcomes.append((ranked_groups(result), stats_profile(result.stats)))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=15, deadline=None)
@given(graph=attributed_graphs(), query=queries())
def test_bitset_bruteforce_identical(graph, query):
    base = BruteForceSolver(graph, oracle=BFSOracle(graph)).solve(query)
    fast = BruteForceSolver(
        graph, oracle=BFSOracle(graph), distance_engine="bitset"
    ).solve(query)
    assert ranked_groups(fast) == ranked_groups(base)


# ----------------------------------------------------------------------
# Backend equivalence (numpy vs scalar ball kernels)
# ----------------------------------------------------------------------
def full_stats_profile(stats):
    """Every SearchStats counter except wall time — the full ledger both
    kernel backends must reproduce bit for bit."""
    profile = dataclasses.asdict(stats)
    profile.pop("elapsed_seconds")
    return profile


@settings(max_examples=40, deadline=None)
@given(
    graph=attributed_graphs(),
    query=queries(),
    strategy_index=st.integers(0, 2),
    kline=st.booleans(),
    union=st.booleans(),
)
def test_solver_backend_bit_identical(graph, query, strategy_index, kline, union):
    """Bitset solves with the numpy kernels and with numpy hidden answer
    every configuration with identical ranked groups AND an identical
    SearchStats ledger (on the numpy-absent CI lane both runs are
    scalar)."""
    _, factory = STRATEGIES[strategy_index]

    def run():
        result = BranchAndBoundSolver(
            graph,
            oracle=BFSOracle(graph),
            strategy=factory(graph),
            distance_engine="bitset",
            kline_filtering=kline,
            use_union_bound=union,
        ).solve(query)
        return ranked_groups(result), full_stats_profile(result.stats)

    fast = run()
    with scalar_kernels():
        scalar = run()
    assert fast == scalar, (kline, union)


@settings(max_examples=15, deadline=None)
@given(graph=attributed_graphs(), query=queries())
def test_shared_kernel_across_solves_stays_exact(graph, query):
    """One kernel serving many queries (the service pattern) stays a
    pure cache: answers match fresh-engine solves."""
    oracle = BFSOracle(graph)
    kernel = BallBitsetEngine(oracle, max_balls=4)  # tiny budget: evict a lot
    shared = BranchAndBoundSolver(graph, oracle=oracle, kernel=kernel)
    fresh = BranchAndBoundSolver(graph, oracle=BFSOracle(graph))
    for top_n in (1, query.top_n):
        probe = query.with_(top_n=top_n)
        assert ranked_groups(shared.solve(probe)) == ranked_groups(
            fresh.solve(probe)
        )
