"""Property tests: the ball-bitset engine is a pure view of its oracle.

Two contracts, exercised over random graphs and queries:

* **Ball fidelity** — ``engine.decode(engine.ball(v, k))`` equals
  ``oracle.within_k(v, k)`` for every backing oracle (BFS, NL, NLRNL,
  PLL) and every ``k`` in 1..4, regardless of the cache budget.
* **Engine equivalence** — ``solve(distance_engine="bitset")`` returns
  ranked groups (members AND coverages) *and* search stats identical to
  the oracle engine, for every strategy, with k-line filtering on or
  off, with budgets on or off.
* **Backend equivalence** — the two kernel backends (scalar vs numpy,
  which on numpy also engages the batched expansion core of
  :mod:`repro.kernels.solve`) return identical ranked groups and
  identical :class:`SearchStats` ledgers, across strategies and pruning
  ablations.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

import repro.kernels.solve as solve_mod
from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.bruteforce import BruteForceSolver
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.core.strategies import QKCOrdering, VKCDegreeOrdering, VKCOrdering
from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.index.nlrnl import NLRNLIndex
from repro.index.pll import PLLIndex
from repro.kernels import BallBitsetEngine
from repro.kernels.vec import numpy_available

KEYWORD_POOL = ["a", "b", "c", "d", "e", "f"]

ORACLES = [BFSOracle, NLIndex, NLRNLIndex, PLLIndex]

# Scalar vs vectorized when numpy is importable; scalar vs the auto
# fallback otherwise (the numpy-absent CI job runs that branch).
KERNEL_BACKENDS = ["python", "numpy"] if numpy_available() else ["python", "auto"]

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
    backend=st.sampled_from(KERNEL_BACKENDS),
    layout=st.sampled_from(["adjacency", "csr"]),
)
def test_ball_decodes_to_within_k(graph, oracle_index, max_balls, backend, layout):
    oracle = ORACLES[oracle_index](graph)
    engine = BallBitsetEngine(
        oracle, max_balls=max_balls, graph_layout=layout, kernel_backend=backend
    )
    for vertex in range(graph.num_vertices):
        for k in (1, 2, 3, 4):
            assert engine.decode(engine.ball(vertex, k)) == oracle.within_k(
                vertex, k
            ), (type(oracle).__name__, vertex, k, backend, layout)


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
# Backend equivalence (scalar vs batched expansion core)
# ----------------------------------------------------------------------
def full_stats_profile(stats):
    """Every SearchStats counter except wall time — the full ledger the
    batched solver core must reproduce bit for bit."""
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
    """The two kernel backends answer every configuration with identical
    ranked groups AND an identical SearchStats ledger.  On numpy this
    pins the batched expansion core (repro.kernels.solve) against the
    scalar path; on the numpy-absent CI lane it pins scalar vs the auto
    fallback.  BATCH_MIN_CANDIDATES drops to 0 so the tiny property
    graphs exercise the batched path at every node."""
    _, factory = STRATEGIES[strategy_index]

    def run(backend):
        return BranchAndBoundSolver(
            graph,
            oracle=BFSOracle(graph),
            strategy=factory(graph),
            distance_engine="bitset",
            kernel_backend=backend,
            kline_filtering=kline,
            use_union_bound=union,
        ).solve(query)

    saved = solve_mod.BATCH_MIN_CANDIDATES
    solve_mod.BATCH_MIN_CANDIDATES = 0
    try:
        outcomes = [
            (ranked_groups(result), full_stats_profile(result.stats))
            for result in (run(backend) for backend in KERNEL_BACKENDS)
        ]
    finally:
        solve_mod.BATCH_MIN_CANDIDATES = saved
    assert outcomes[0] == outcomes[1], (kline, union)


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
