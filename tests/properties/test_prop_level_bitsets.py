"""Property-based tests: the bitset BFS pass equals per-source BFS.

:func:`bfs_level_bitsets` runs every source's BFS at once; these tests
hold it, and the NLRNL index built from it, to the per-source
:func:`bfs_levels` definition on random graphs that include isolated
vertices, several components, and the empty and one-vertex graphs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import AttributedGraph, component_labels
from repro.datasets.registry import load_dataset
from repro.index._traversal import (
    UNREACHABLE,
    bfs_distance_array,
    bfs_level_bitsets,
    bfs_levels,
)
from repro.index.nl import choose_peak_level
from repro.index.nlrnl import NLRNLIndex


@st.composite
def sparse_graphs(draw):
    """0-16 vertices, at most ~n edges: isolated vertices and several
    components are common."""
    n = draw(st.integers(min_value=0, max_value=16))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(possible_edges), unique=True, max_size=n + 2))
        if possible_edges
        else []
    )
    return AttributedGraph(n, edges)


def bitset(vertices):
    return sum(1 << v for v in vertices)


def reference_index_state(graph, frozen_c=None):
    """The per-source NLRNL construction: one BFS per vertex, ``c`` from
    the level sizes (or *frozen_c*, as repairs keep it), and the
    id-halved map without level ``c``."""
    adjacency = graph.adjacency_view()
    maps, c_values = [], []
    for vertex in graph.vertices():
        levels = bfs_levels(adjacency, vertex)
        if frozen_c is None:
            c = choose_peak_level([len(level) for level in levels])
        else:
            c = frozen_c[vertex]
        c_values.append(c)
        maps.append(
            {
                w: depth
                for depth, level in enumerate(levels, start=1)
                if depth != c
                for w in level
                if w > vertex
            }
        )
    return maps, c_values, component_labels(adjacency), sum(map(len, maps))


def index_state(index):
    return index._depth_of, index._c, index._component, index.stats.entries


@pytest.mark.parametrize("n", [0, 1])
def test_trivial_graphs(n):
    graph = AttributedGraph(n, [])
    assert bfs_level_bitsets(graph.adjacency_view()) == [[] for _ in range(n)]
    assert index_state(NLRNLIndex(graph)) == reference_index_state(graph)


@settings(max_examples=120, deadline=None)
@given(graph=sparse_graphs())
def test_rows_are_each_vertexs_own_levels(graph):
    adjacency = graph.adjacency_view()
    rows = bfs_level_bitsets(adjacency)
    assert rows == [
        [bitset(level) for level in bfs_levels(adjacency, v)] for v in graph.vertices()
    ]


@settings(max_examples=120, deadline=None)
@given(graph=sparse_graphs(), data=st.data())
def test_source_subset_bits_are_hop_distances(graph, data):
    n = graph.num_vertices
    sources = data.draw(
        st.lists(st.integers(0, max(n - 1, 0)), unique=True, max_size=n).map(sorted)
        if n
        else st.just([])
    )
    adjacency = graph.adjacency_view()
    rows = bfs_level_bitsets(adjacency, sources)
    distances = [bfs_distance_array(adjacency, source) for source in sources]
    for v in graph.vertices():
        expected = [0] * max(
            (d[v] for d in distances if d[v] != UNREACHABLE), default=0
        )
        for position, from_source in enumerate(distances):
            if from_source[v] > 0:
                expected[from_source[v] - 1] |= 1 << position
        assert rows[v] == expected


@settings(max_examples=120, deadline=None)
@given(graph=sparse_graphs())
def test_nlrnl_build_equals_per_source_construction(graph):
    assert index_state(NLRNLIndex(graph)) == reference_index_state(graph)


def test_nlrnl_equals_per_source_construction_on_a_profile_under_edits():
    graph, _ = load_dataset("gowalla", scale=0.2)
    index = NLRNLIndex(graph)
    assert index_state(index) == reference_index_state(graph)
    frozen_c = list(index._c)
    rng = random.Random(5)
    edges = sorted(graph.edges())
    for u, v in rng.sample(edges, 8):
        index.delete_edge(u, v)
    n = graph.num_vertices
    inserted = 0
    while inserted < 8:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            index.insert_edge(u, v)
            inserted += 1
    # Repairs keep c frozen, so compare against the per-source maps at
    # the build-time c values.
    assert index_state(index) == reference_index_state(graph, frozen_c)
