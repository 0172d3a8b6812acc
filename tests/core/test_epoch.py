"""Mutation tests for :mod:`repro.core.epoch` and mutable services.

* the write gate: a mutation issued while a solve holds the read side
  waits for that solve; a waiting writer blocks new readers; the next
  solve after a mutation reads the new graph version;
* mutation validation against the live graph and a closed manager;
* service parity: a ``QueryService(mutations=True)`` that mutates
  between solves answers bit-identically (ranked groups *and*
  ``SearchStats``) to a fresh service over the equally mutated graph,
  across ordering strategy and distance engine.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.epoch import EpochManager
from repro.core.errors import EpochError, GraphConstructionError
from repro.core.graph import AttributedGraph
from repro.core.query import KTGQuery
from repro.core.validate import validate_ktg_result
from repro.index.nlrnl import NLRNLIndex
from repro.service.service import QueryService
from tests.conftest import make_random_attributed_graph

#: Upper bound on any single wait; the tests never sleep this long on a
#: correct gate.
TIMEOUT = 10.0

KEYWORD_POOL = ["a", "b", "c", "d", "e", "f"]

ALGORITHMS = ["KTG-QKC-NLRNL", "KTG-VKC-NLRNL", "KTG-VKC-DEG-NLRNL"]


def fresh_graph(seed: int = 3):
    return make_random_attributed_graph(num_vertices=18, seed=seed)


def clone_graph(graph):
    return AttributedGraph(
        graph.num_vertices,
        graph.edges(),
        keywords={v: graph.keyword_labels(v) for v in range(graph.num_vertices)},
    )


def ranked_groups(result):
    return [(group.members, round(group.coverage, 12)) for group in result.groups]


def comparable_stats(stats):
    """SearchStats minus wall-clock (the only serving-dependent field)."""
    return dataclasses.replace(stats, elapsed_seconds=0.0)


def wait_until(predicate) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


def gate_query(graph) -> KTGQuery:
    labels = sorted(graph.keyword_table)[:3]
    return KTGQuery(keywords=tuple(labels), group_size=2, tenuity=1, top_n=2)


def answer_breaking_edge(graph, query):
    """An absent edge inside the best group: adding it puts two members
    within ``k`` hops, so the group stops being tenuous."""
    with QueryService(graph) as service:
        best = service.submit(query).result.groups[0].members
    u, v = best[0], best[1]
    assert not graph.has_edge(u, v)
    return u, v


# ----------------------------------------------------------------------
# The write gate
# ----------------------------------------------------------------------
def test_mutation_waits_for_the_solve_holding_the_read_side():
    graph = make_random_attributed_graph(num_vertices=30, seed=5)
    query = gate_query(graph)
    u, v = answer_breaking_edge(graph, query)
    before = clone_graph(graph)

    oracle = NLRNLIndex(graph)
    in_solve, release = threading.Event(), threading.Event()
    filter_candidates = oracle.filter_candidates

    def blocking_filter(*args, **kwargs):
        # Park the first solve mid-search, holding the read side.
        if not in_solve.is_set():
            in_solve.set()
            assert release.wait(TIMEOUT)
        return filter_candidates(*args, **kwargs)

    oracle.filter_candidates = blocking_filter
    served = []
    with QueryService(graph, oracle=oracle, mutations=True) as service:
        solve = threading.Thread(target=lambda: served.append(service.submit(query)))
        solve.start()
        assert in_solve.wait(TIMEOUT)
        version = graph.version
        mutate = threading.Thread(target=service.add_edge, args=(u, v))
        mutate.start()
        wait_until(lambda: service.epochs._gate._writers_waiting == 1)
        assert graph.version == version and not graph.has_edge(u, v)
        release.set()
        solve.join(TIMEOUT)
        mutate.join(TIMEOUT)
        assert not solve.is_alive() and not mutate.is_alive()
    assert graph.has_edge(u, v) and graph.version == version + 1
    # The parked solve finished on the graph it started on.
    with QueryService(before) as reference:
        expected = reference.submit(query).result
    assert ranked_groups(served[0].result) == ranked_groups(expected)


def test_waiting_writer_blocks_new_readers():
    graph = fresh_graph()
    u, v = next(
        (a, b) for a in graph.vertices() for b in graph.vertices()
        if a < b and not graph.has_edge(a, b)
    )
    manager = EpochManager(graph)
    seen_by_late_reader = []

    def late_reader():
        with manager.read():
            seen_by_late_reader.append(graph.has_edge(u, v))

    with manager.read():
        writer = threading.Thread(target=manager.add_edge, args=(u, v))
        writer.start()
        wait_until(lambda: manager._gate._writers_waiting == 1)
        reader = threading.Thread(target=late_reader)
        reader.start()
        # A reader-priority gate would admit the late reader beside us.
        reader.join(0.2)
        assert reader.is_alive() and seen_by_late_reader == []
    writer.join(TIMEOUT)
    reader.join(TIMEOUT)
    # The writer went first: the late reader saw the new edge.
    assert seen_by_late_reader == [True]


def test_next_solve_after_a_mutation_sees_it():
    graph = make_random_attributed_graph(num_vertices=30, seed=5)
    query = gate_query(graph)
    u, v = answer_breaking_edge(graph, query)
    with QueryService(graph, mutations=True) as service:
        first = service.submit(query)
        old_key = service.cache_key(query)
        assert service.submit(query).from_cache
        service.add_edge(u, v)
        assert service.cache_key(query) != old_key
        assert service.cache_key(query)[1] == graph.version
        after = service.submit(query)
    assert not after.from_cache
    assert ranked_groups(after.result) != ranked_groups(first.result)
    validate_ktg_result(graph, after.result)
    with QueryService(clone_graph(graph)) as fresh:
        expected = fresh.submit(query).result
    assert ranked_groups(after.result) == ranked_groups(expected)


# ----------------------------------------------------------------------
# Validation and lifecycle
# ----------------------------------------------------------------------
def test_mutations_validate_against_live_graph():
    graph = fresh_graph()
    with EpochManager(graph) as manager:
        u, v = next(iter(graph.edges()))
        with pytest.raises(GraphConstructionError):
            manager.add_edge(u, v)  # duplicate
        with pytest.raises(GraphConstructionError):
            manager.add_edge(u, u)  # self-loop
        version = graph.version
        manager.remove_edge(u, v)
        with pytest.raises(GraphConstructionError):
            manager.remove_edge(u, v)  # already gone
        assert graph.version == version + 1


def test_add_vertex_then_connect_it():
    graph = fresh_graph()
    with EpochManager(graph) as manager:
        before = graph.num_vertices
        vertex = manager.add_vertex(["zz-epoch"])
        assert vertex == before
        assert graph.num_vertices == before + 1
        assert graph.neighbors(vertex) == frozenset()
        assert "zz-epoch" in graph.keyword_labels(vertex)
        manager.add_edge(vertex, 0)
        assert graph.has_edge(vertex, 0)


def test_closed_manager_rejects_everything():
    graph = fresh_graph()
    manager = EpochManager(graph)
    manager.close()
    version = graph.version
    u, v = next(iter(graph.edges()))
    with pytest.raises(EpochError):
        manager.add_edge(0, 1)
    with pytest.raises(EpochError):
        manager.remove_edge(u, v)
    with pytest.raises(EpochError):
        manager.set_keywords(0, ["a"])
    with pytest.raises(EpochError):
        manager.add_vertex(["a"])
    assert graph.version == version
    manager.close()  # idempotent


# ----------------------------------------------------------------------
# Service-level parity: mutable service vs fresh service
# ----------------------------------------------------------------------
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


def apply_op(op, target):
    """Apply a resolved op to a manager or directly to a graph."""
    graph = target.graph if isinstance(target, EpochManager) else target
    if op[0] == "flip":
        _, u, v = op
        if graph.has_edge(u, v):
            target.remove_edge(u, v)
        else:
            target.add_edge(u, v)
    elif op[0] == "keywords":
        target.set_keywords(op[1], list(op[2]))
    else:
        target.add_vertex(list(op[1]))


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
    ) as epoch_service:
        # Interleave a solve mid-stream so repairs actually run against
        # a built oracle, then mutate some more and solve again.
        resolved = [resolve(op, live) for op in stream]
        half = len(resolved) // 2
        for op in resolved[:half]:
            apply_op(op, epoch_service.epochs)
        epoch_service.submit(query)
        for op in resolved[half:]:
            apply_op(op, epoch_service.epochs)
        epoch_answer = epoch_service.submit(query)

    for op in resolved:
        # Replay the identical concrete ops against the reference graph
        # (vertex counts track, so resolution is stable across both).
        apply_op(op, reference)
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
