"""Property tests: snapshot ⊕ delta reads are bit-identical to rebuilds.

The epoch layer's correctness contract
(:mod:`repro.core.epoch`): at *every* delta depth, an
:class:`EpochGraphView` must read exactly like the live mutated graph,
and compacting the view must produce byte-identical CSR to compacting
the graph itself.  On top of that, an epoch-mode
:class:`~repro.service.service.QueryService` must answer queries
bit-identically (ranked groups *and* ``SearchStats``) to a plain
read-only service over an equivalently mutated graph — across ordering
strategy, distance engine and kernel backend.

Random mutation streams (edge flips, keyword rewrites, vertex appends)
are drawn by hypothesis; the manager applies them through its write
gate while the reference applies them to a second graph directly.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.csr import CsrSnapshot
from repro.core.epoch import EpochManager
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.service.service import QueryService

KEYWORD_POOL = ["a", "b", "c", "d", "e", "f"]

ALGORITHMS = ["KTG-QKC-NLRNL", "KTG-VKC-NLRNL", "KTG-VKC-DEG-NLRNL"]


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
def mutation_streams(draw, max_ops: int = 12):
    """A list of abstract mutation ops, resolved against a graph later."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        kind = draw(st.sampled_from(["flip", "flip", "keywords", "vertex"]))
        if kind == "flip":
            ops.append(("flip", draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))))
        elif kind == "keywords":
            labels = draw(
                st.lists(st.sampled_from(KEYWORD_POOL), unique=True, max_size=3)
            )
            ops.append(("keywords", draw(st.integers(0, 10**6)), tuple(labels)))
        else:
            labels = draw(
                st.lists(st.sampled_from(KEYWORD_POOL), unique=True, max_size=2)
            )
            ops.append(("vertex", tuple(labels)))
    return ops


def resolve(op, graph):
    """Map an abstract op onto concrete vertices of *graph*."""
    n = graph.num_vertices
    if op[0] == "flip":
        u, v = op[1] % n, op[2] % n
        if u == v:
            v = (v + 1) % n
        return ("flip", u, v)
    if op[0] == "keywords":
        return ("keywords", op[1] % n, op[2])
    return op


def apply_to_manager(op, manager):
    if op[0] == "flip":
        _, u, v = op
        if manager.graph.has_edge(u, v):
            manager.remove_edge(u, v)
        else:
            manager.add_edge(u, v)
    elif op[0] == "keywords":
        manager.set_keywords(op[1], list(op[2]))
    else:
        manager.add_vertex(list(op[1]))


def apply_to_graph(op, graph):
    if op[0] == "flip":
        _, u, v = op
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        else:
            graph.add_edge(u, v)
    elif op[0] == "keywords":
        graph.set_keywords(op[1], list(op[2]))
    else:
        graph.add_vertex(list(op[1]))


def clone_graph(graph):
    return AttributedGraph(
        graph.num_vertices,
        graph.edges(),
        keywords={v: graph.keyword_labels(v) for v in range(graph.num_vertices)},
    )


def assert_view_matches_graph(view, graph):
    assert view.num_vertices == graph.num_vertices
    assert view.num_edges == graph.num_edges
    assert view.version == graph.version
    for vertex in graph.vertices():
        assert view.neighbors(vertex) == graph.neighbors(vertex)
        assert view.keywords_of(vertex) == graph.keywords_of(vertex)
        assert view.degree(vertex) == graph.degree(vertex)
    assert sorted(view.edges()) == sorted(graph.edges())


def ranked_groups(result):
    return [(group.members, round(group.coverage, 12)) for group in result.groups]


def comparable_stats(stats):
    """SearchStats minus wall-clock (the only serving-dependent field)."""
    return dataclasses.replace(stats, elapsed_seconds=0.0)


# ----------------------------------------------------------------------
# View-level parity at every delta depth
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(graph=attributed_graphs(), stream=mutation_streams())
def test_view_reads_match_live_graph_at_every_depth(graph, stream):
    manager = EpochManager(graph, rotate_after=10**9, max_delta=10**9)
    try:
        for op in stream:
            apply_to_manager(resolve(op, graph), manager)
            assert_view_matches_graph(manager.view(), graph)
            with manager._lock:
                assert (
                    manager._epoch.snapshot.graph_version + manager._delta.depth
                    == graph.version
                )
    finally:
        manager.close()


@settings(max_examples=30, deadline=None)
@given(graph=attributed_graphs(), stream=mutation_streams())
def test_compacting_the_view_equals_compacting_the_graph(graph, stream):
    """from_graph(snapshot ⊕ delta) is byte-identical to from_graph(graph)
    — the rotation step can never produce a divergent next epoch."""
    manager = EpochManager(graph, rotate_after=10**9, max_delta=10**9)
    try:
        for op in stream:
            apply_to_manager(resolve(op, graph), manager)
        via_view = CsrSnapshot.from_graph(manager.view())
        via_graph = CsrSnapshot.from_graph(graph)
        assert bytes(via_view._buf) == bytes(via_graph._buf)
    finally:
        manager.close()


@settings(max_examples=25, deadline=None)
@given(
    graph=attributed_graphs(),
    stream=mutation_streams(),
    rotate_after=st.integers(min_value=1, max_value=4),
)
def test_rotation_preserves_view_parity(graph, stream, rotate_after):
    """Same property with rotations interleaved mid-stream: compaction
    plus tail replay must be invisible to readers."""
    manager = EpochManager(
        graph, rotate_after=rotate_after, max_delta=64, rotate_sync=True
    )
    try:
        for op in stream:
            apply_to_manager(resolve(op, graph), manager)
            assert_view_matches_graph(manager.view(), graph)
        if len(stream) >= rotate_after:
            assert manager.stats().rotations >= 1
    finally:
        manager.close()


# ----------------------------------------------------------------------
# Service-level parity: epoch mode vs read-only over the mutated graph
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    graph=attributed_graphs(),
    stream=mutation_streams(max_ops=8),
    keywords=st.lists(
        st.sampled_from(KEYWORD_POOL), unique=True, min_size=1, max_size=3
    ),
    group_size=st.integers(min_value=2, max_value=3),
    tenuity=st.integers(min_value=0, max_value=3),
    algorithm=st.sampled_from(ALGORITHMS),
    distance_engine=st.sampled_from(["oracle", "bitset"]),
)
def test_epoch_service_solves_bit_identical(
    graph,
    stream,
    keywords,
    group_size,
    tenuity,
    algorithm,
    distance_engine,
):
    query = KTGQuery(
        keywords=tuple(keywords), group_size=group_size, tenuity=tenuity, top_n=3
    )
    live = clone_graph(graph)
    reference = clone_graph(graph)

    with QueryService(
        live,
        algorithm,
        cache_capacity=0,
        distance_engine=distance_engine,
        mutations=True,
        epoch_rotate_after=3,
        epoch_max_delta=64,
        epoch_rotate_sync=True,
    ) as epoch_service:
        # Interleave a solve mid-stream so repairs actually run against
        # a built oracle, then mutate some more and solve again.
        resolved = [resolve(op, live) for op in stream]
        half = len(resolved) // 2
        for op in resolved[:half]:
            apply_to_manager(op, epoch_service.epochs)
        epoch_service.submit(query)
        for op in resolved[half:]:
            apply_to_manager(op, epoch_service.epochs)
        epoch_answer = epoch_service.submit(query)

    for op in resolved:
        # Replay the identical concrete ops against the reference graph
        # (vertex counts track, so resolution is stable across both).
        apply_to_graph(op, reference)
    assert sorted(reference.edges()) == sorted(live.edges())

    with QueryService(
        reference,
        algorithm,
        cache_capacity=0,
        distance_engine=distance_engine,
    ) as reference_service:
        reference_answer = reference_service.submit(query)

    assert ranked_groups(epoch_answer.result) == ranked_groups(
        reference_answer.result
    )
    assert comparable_stats(epoch_answer.result.stats) == comparable_stats(
        reference_answer.result.stats
    )
