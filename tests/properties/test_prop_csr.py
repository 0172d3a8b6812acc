"""Property tests: ``graph_layout="csr"`` is bit-identical to adjacency.

The CSR port's correctness contract, exercised over random graphs and
queries: for every ordering strategy and both distance engines, the
csr layout returns the same ranked groups and the same ``SearchStats``
as the set-based adjacency layout.  The oracle-level properties pin the
underlying traversals (BFS levels, balls, NL/PLL builds) to the same
guarantee.  Shared-memory attach and segment release are covered by
``tests/core/test_csr.py`` and ``tests/core/test_epoch.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.core.strategies import QKCOrdering, VKCDegreeOrdering, VKCOrdering
from repro.index._traversal import bfs_levels, bfs_levels_csr
from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.index.pll import PLLIndex
from repro.kernels import vec

KEYWORD_POOL = ["a", "b", "c", "d", "e", "f"]

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


def comparable_stats(stats):
    """SearchStats minus wall-clock (the only layout-dependent field)."""
    return dataclasses.replace(stats, elapsed_seconds=0.0)


def solve(graph, query, strategy_factory, layout, distance_engine):
    solver = BranchAndBoundSolver(
        graph,
        oracle=BFSOracle(graph, graph_layout=layout),
        strategy=strategy_factory(graph),
        distance_engine=distance_engine,
        graph_layout=layout,
    )
    return solver.solve(query)


# ----------------------------------------------------------------------
# Solver-level parity
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    graph=attributed_graphs(),
    query=queries(),
    strategy_index=st.integers(0, 2),
    distance_engine=st.sampled_from(["oracle", "bitset"]),
)
def test_csr_layout_bit_identical(graph, query, strategy_index, distance_engine):
    _, factory = STRATEGIES[strategy_index]
    adjacency = solve(graph, query, factory, "adjacency", distance_engine)
    csr = solve(graph, query, factory, "csr", distance_engine)
    assert ranked_groups(csr) == ranked_groups(adjacency)
    assert comparable_stats(csr.stats) == comparable_stats(adjacency.stats)


@settings(max_examples=30, deadline=None)
@given(
    graph=attributed_graphs(),
    query=queries(),
    strategy_index=st.integers(0, 2),
    layout=st.sampled_from(["adjacency", "csr"]),
)
def test_kernel_backend_bit_identical(graph, query, strategy_index, layout):
    """The numpy kernels return the same ranked groups and the same
    ``SearchStats`` as the scalar ones (numpy hidden through the
    ``vec._np`` seam), across strategy x layout.  On the numpy-absent
    CI lane both runs are scalar."""
    _, factory = STRATEGIES[strategy_index]
    fast = solve(graph, query, factory, layout, "bitset")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec, "_np", None)
        base = solve(graph, query, factory, layout, "bitset")
    assert ranked_groups(fast) == ranked_groups(base)
    assert comparable_stats(fast.stats) == comparable_stats(base.stats)


# ----------------------------------------------------------------------
# Traversal / oracle-level parity
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(graph=attributed_graphs(), source=st.integers(0, 13))
def test_bfs_levels_csr_matches_set_kernel(graph, source):
    source %= graph.num_vertices
    snapshot = graph.csr_snapshot()
    set_levels = bfs_levels(graph.adjacency_view(), source)
    csr_levels = bfs_levels_csr(snapshot.indptr, snapshot.indices, source)
    assert [sorted(level) for level in csr_levels] == [
        sorted(level) for level in set_levels
    ]


@settings(max_examples=30, deadline=None)
@given(graph=attributed_graphs(), k=st.integers(1, 4))
def test_bfs_oracle_balls_layout_invariant(graph, k):
    adjacency = BFSOracle(graph)
    csr = BFSOracle(graph, graph_layout="csr")
    for vertex in graph.vertices():
        assert csr.within_k(vertex, k) == adjacency.within_k(vertex, k)


@settings(max_examples=20, deadline=None)
@given(graph=attributed_graphs())
def test_nl_and_pll_builds_layout_invariant(graph):
    nl_a, nl_c = NLIndex(graph), NLIndex(graph, graph_layout="csr")
    assert nl_c.depth == nl_a.depth
    assert nl_c.stats.entries == nl_a.stats.entries
    pll_a, pll_c = PLLIndex(graph), PLLIndex(graph, graph_layout="csr")
    assert pll_c.stats.entries == pll_a.stats.entries
    for v in graph.vertices():
        assert nl_c.level_sets(v) == nl_a.level_sets(v)
        assert pll_c.label_of(v) == pll_a.label_of(v)
        for u in graph.vertices():
            assert pll_c.query_distance(u, v) == pll_a.query_distance(u, v)
