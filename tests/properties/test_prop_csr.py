"""Property test: the numpy ball kernels leave bitset solves unchanged.

Over random graphs and queries, for every ordering strategy, a bitset
solve whose balls are packed by numpy returns the same ranked groups
and the same ``SearchStats`` as one with numpy hidden.  CSR snapshots
themselves (structure, shared-memory attach and segment release) are
covered by ``tests/core/test_csr.py`` and ``tests/core/test_epoch.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.core.strategies import QKCOrdering, VKCDegreeOrdering, VKCOrdering
from repro.index.bfs import BFSOracle
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
    """SearchStats minus wall-clock (the only run-dependent field)."""
    return dataclasses.replace(stats, elapsed_seconds=0.0)


def solve(graph, query, strategy_factory):
    solver = BranchAndBoundSolver(
        graph,
        oracle=BFSOracle(graph),
        strategy=strategy_factory(graph),
        distance_engine="bitset",
    )
    return solver.solve(query)


@settings(max_examples=30, deadline=None)
@given(
    graph=attributed_graphs(),
    query=queries(),
    strategy_index=st.integers(0, 2),
)
def test_kernel_backend_bit_identical(graph, query, strategy_index):
    """The numpy kernels return the same ranked groups and the same
    ``SearchStats`` as the scalar ones (numpy hidden through the
    ``vec._np`` seam), across strategies.  On the numpy-absent CI lane
    both runs are scalar."""
    _, factory = STRATEGIES[strategy_index]
    fast = solve(graph, query, factory)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec, "_np", None)
        base = solve(graph, query, factory)
    assert ranked_groups(fast) == ranked_groups(base)
    assert comparable_stats(fast.stats) == comparable_stats(base.stats)
