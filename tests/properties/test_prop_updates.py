"""Property-based tests: dynamic NLRNL maintenance equals a fresh rebuild."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.graph import AttributedGraph
from repro.index._traversal import UNREACHABLE, bfs_distance_array, bfs_levels
from repro.index.nlrnl import NLRNLIndex, _unreachable_code


@st.composite
def graph_and_updates(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), unique=True, max_size=2 * n)
    )
    seed = draw(st.integers(0, 10_000))
    steps = draw(st.integers(min_value=1, max_value=8))
    return AttributedGraph(n, edges), seed, steps


@settings(max_examples=50, deadline=None)
@given(data=graph_and_updates())
def test_update_sequence_equals_rebuild(data):
    graph, seed, steps = data
    index = NLRNLIndex(graph)
    rng = random.Random(seed)
    for _ in range(steps):
        u = rng.randrange(graph.num_vertices)
        v = rng.randrange(graph.num_vertices)
        if u == v:
            continue
        if graph.has_edge(u, v):
            index.delete_edge(u, v)
        else:
            index.insert_edge(u, v)
    # The incrementally maintained index must decode exactly the same
    # distances as one built from scratch on the final graph, up to the
    # frozen-c convention (compare probes, not internals).
    for u in graph.vertices():
        for v in graph.vertices():
            expected = graph.hop_distance(u, v)
            for k in range(0, 5):
                truth = (
                    False
                    if u == v
                    else (expected is None or expected > k)
                )
                assert index.is_tenuous(u, v, k) == truth


@settings(max_examples=30, deadline=None)
@given(data=graph_and_updates())
def test_entry_accounting_survives_updates(data):
    graph, seed, steps = data
    index = NLRNLIndex(graph)
    rng = random.Random(seed)
    for _ in range(steps):
        u = rng.randrange(graph.num_vertices)
        v = rng.randrange(graph.num_vertices)
        if u == v:
            continue
        if graph.has_edge(u, v):
            index.delete_edge(u, v)
        else:
            index.insert_edge(u, v)
    assert index.stats.entries == sum(len(m) for m in index._depth_of)


@st.composite
def multi_component_edits(draw):
    """A forest-heavy graph of 2-3 components plus a list of edit kinds.

    Sparse blocks make most edges bridges, so ``"split"`` edits really
    disconnect a component; ``"merge"`` edits join two components.
    """
    n = draw(st.integers(min_value=4, max_value=14))
    blocks = draw(st.integers(min_value=2, max_value=3))
    block_of = [v % blocks for v in range(n)]
    possible_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if block_of[u] == block_of[v]
    ]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), unique=True, max_size=n + 2)
    )
    kinds = draw(
        st.lists(
            st.sampled_from(["split", "merge", "insert", "delete"]),
            min_size=1,
            max_size=10,
        )
    )
    return AttributedGraph(n, edges), kinds, draw(st.integers(0, 10_000))


def _all_distances(graph):
    adjacency = graph.adjacency_view()
    return [bfs_distance_array(adjacency, a) for a in graph.vertices()]


def _pick_edit(graph, kind, rng):
    """``(insert?, u, v)`` for *kind*, falling back to any valid edit."""
    n = graph.num_vertices
    edges = sorted(graph.edges())
    components = graph.connected_components()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not graph.has_edge(u, v)]
    if kind == "split":
        probe = AttributedGraph(n, edges)
        bridges = []
        for u, v in edges:
            probe.remove_edge(u, v)
            if probe.hop_distance(u, v) is None:
                bridges.append((u, v))
            probe.add_edge(u, v)
        if bridges:
            return (False, *rng.choice(bridges))
    if kind == "merge":
        across = [(u, v) for u, v in pairs if components[u] != components[v]]
        if across:
            return (True, *rng.choice(across))
    if kind == "delete" and edges:
        return (False, *rng.choice(edges))
    if pairs:
        return (True, *rng.choice(pairs))
    return (False, *rng.choice(edges))


def _assert_equals_frozen_c_rebuild(index, graph):
    """The maps, entry count and labels equal a per-source construction
    on the current graph with the index's frozen c values."""
    adjacency = graph.adjacency_view()
    assert index._depth_of == [
        NLRNLIndex._map_from_levels(a, bfs_levels(adjacency, a), index.c_value(a))
        for a in graph.vertices()
    ]
    assert index._component == graph.connected_components()
    assert index.stats.entries == sum(len(m) for m in index._depth_of)


@settings(max_examples=60, deadline=None)
@given(data=multi_component_edits())
def test_repairs_rebuild_exactly_the_changed_vertices(data):
    graph, kinds, seed = data
    index = NLRNLIndex(graph)
    rng = random.Random(seed)
    members = list(graph.vertices())
    ks = (1, 2, 3)
    for kind in kinds:
        # Warm every member's rows so the edit has rows to keep or evict.
        for member in members:
            for k in ks:
                index.filter_candidates(members, member, k)
        before = _all_distances(graph)
        repaired = index.stats.extra.get("repaired_vertices", 0)
        pairs = index.stats.extra.get("repaired_pairs", 0)
        insert, u, v = _pick_edit(graph, kind, rng)
        (index.insert_edge if insert else index.delete_edge)(u, v)
        after = _all_distances(graph)
        changed = {a for a in members if before[a] != after[a]}
        assert index.stats.extra["repaired_vertices"] - repaired == len(changed)
        # Exactly the pairs whose distance moved are patched.
        assert index.stats.extra["repaired_pairs"] - pairs == sum(
            before[a][w] != after[a][w] for a in members for w in members if a < w
        )
        # Rows of the vertices that were not rebuilt survive the edit and
        # still answer exactly.
        assert {member for member, _ in index._rows} == set(members) - changed
        for (member, k), row in index._rows.items():
            truth = after[member]
            if k == -1:
                code = _unreachable_code("B" if isinstance(row, bytes) else row.typecode)
                assert [None if d == code else d for d in row] == [
                    None if d == UNREACHABLE else d for d in truth
                ]
            else:
                assert list(row) == [int(d == UNREACHABLE or d > k) for d in truth]
        # The repaired maps and labels equal a rebuild of every vertex on
        # the edited graph with the same frozen c values.
        _assert_equals_frozen_c_rebuild(index, graph)
