"""Property tests: the table-driven per-node primitives are exact.

* **k-line filtering** — ``NLRNLIndex.filter_candidates`` (keep-rows
  from the row cache) equals the BFS oracle on random and disconnected
  graphs for every ``k`` from 0 past the diameter, on paths longer
  than 256 vertices with ``k >= 255``, and while the cache stays warm
  across interleaved edge, vertex and keyword edits.
* **VKC re-sorting** — ``reorder`` of VKC and VKC-DEG (both degree
  orders), served from the per-context sort-key memo, equals sorting
  by the reference key, for unqualified vertices and repeated covered
  masks too.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.coverage import CoverageContext
from repro.core.graph import AttributedGraph
from repro.core.strategies import VKCDegreeOrdering, VKCOrdering
from repro.index.bfs import BFSOracle
from repro.index.nlrnl import NLRNLIndex

LABELS = ("a", "b", "c", "d", "e")


@st.composite
def graphs(draw, min_vertices=2, max_vertices=16):
    """Random simple graphs; sparse draws are often disconnected."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), unique=True, max_size=2 * n)
    )
    keywords = draw(
        st.lists(
            st.lists(st.sampled_from(LABELS), unique=True, max_size=3),
            min_size=n,
            max_size=n,
        )
    )
    return AttributedGraph(n, edges, keywords)


def assert_filters_exact(index, graph, candidates):
    reference = BFSOracle(graph)
    # k runs from 0 to past the largest possible finite distance.
    for member in graph.vertices():
        for k in range(graph.num_vertices + 1):
            assert index.filter_candidates(candidates, member, k) == (
                reference.filter_candidates(candidates, member, k)
            ), (member, k)


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), seed=st.integers(0, 10_000))
def test_nlrnl_filter_matches_bfs(graph, seed):
    rng = random.Random(seed)
    candidates = list(graph.vertices()) * 2
    rng.shuffle(candidates)
    index = NLRNLIndex(graph)
    assert_filters_exact(index, graph, candidates)
    assert_filters_exact(index, graph, candidates)  # warm cache


@settings(max_examples=40, deadline=None)
@given(graph=graphs(min_vertices=3, max_vertices=12), seed=st.integers(0, 10_000))
def test_nlrnl_filter_exact_across_interleaved_mutations(graph, seed):
    rng = random.Random(seed)
    index = NLRNLIndex(graph)
    for _ in range(6):
        assert_filters_exact(index, graph, list(graph.vertices()))
        op = rng.choice(("edge", "edge", "vertex", "keywords"))
        if op == "vertex":
            index.insert_vertex([rng.choice(LABELS)])
        elif op == "keywords":
            graph.set_keywords(rng.randrange(graph.num_vertices), [rng.choice(LABELS)])
            index.note_keywords_changed()
        else:
            u = rng.randrange(graph.num_vertices)
            v = rng.randrange(graph.num_vertices)
            if u == v:
                continue
            if graph.has_edge(u, v):
                index.delete_edge(u, v)
            else:
                index.insert_edge(u, v)
    assert_filters_exact(index, graph, list(graph.vertices()))


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(257, 300),
    chords=st.lists(st.tuples(st.integers(0, 299), st.integers(0, 299)), max_size=2),
    members=st.lists(st.integers(0, 299), min_size=1, max_size=3),
    ks=st.lists(st.integers(250, 320), min_size=1, max_size=4),
)
def test_nlrnl_filter_exact_on_long_paths(n, chords, members, ks):
    """Distances >= 255 (wide distance rows) stay exact, with and
    without chords that shorten the path."""
    edges = {(i, i + 1) for i in range(n - 1)}
    edges |= {(min(u, v), max(u, v)) for u, v in chords if u != v and max(u, v) < n}
    graph = AttributedGraph(n, sorted(edges))
    index = NLRNLIndex(graph)
    reference = BFSOracle(graph)
    candidates = list(graph.vertices())
    for member in members:
        for k in [0, 1, *ks]:
            assert index.filter_candidates(candidates, member % n, k) == (
                reference.filter_candidates(candidates, member % n, k)
            ), (member, k)


def reference_vkc(candidates, covered_mask, context):
    masks = context.masks
    uncovered = ~covered_mask
    return sorted(candidates, key=lambda v: -(masks[v] & uncovered).bit_count())


def reference_vkc_deg(degrees, sign):
    def order(candidates, covered_mask, context):
        masks = context.masks
        uncovered = ~covered_mask
        return sorted(
            candidates,
            key=lambda v: -((masks[v] & uncovered).bit_count() << 32) + sign * degrees[v],
        )

    return order


@settings(max_examples=60, deadline=None)
@given(
    graph=graphs(min_vertices=2, max_vertices=20),
    query=st.lists(st.sampled_from(LABELS), min_size=1, max_size=5, unique=True),
    seed=st.integers(0, 10_000),
)
def test_vkc_reorder_matches_reference_sort(graph, query, seed):
    rng = random.Random(seed)
    context = CoverageContext(graph, query)
    degrees = graph.degrees()
    pairs = [
        (VKCOrdering(), reference_vkc),
        (VKCDegreeOrdering(degrees, "ascending"), reference_vkc_deg(degrees, 1)),
        (VKCDegreeOrdering(degrees, "descending"), reference_vkc_deg(degrees, -1)),
    ]
    masks = [rng.randrange(context.full_mask + 1) for _ in range(4)]
    masks += masks  # repeated covered masks hit the memo
    vertices = list(graph.vertices())
    qualified = context.qualified_vertices()
    for covered_mask in masks:
        # Qualified-only lists (the solver's case) and lists that mix in
        # unqualified vertices (outside the memo table).
        for pool in (qualified, vertices):
            candidates = rng.sample(pool, rng.randint(0, len(pool)))
            for strategy, reference in pairs:
                assert strategy.reorder(candidates, covered_mask, context) == (
                    reference(candidates, covered_mask, context)
                )
                assert strategy.initial_order(candidates, context) == (
                    reference(candidates, 0, context)
                )
