"""Shared breadth-first-search primitives for index construction.

These helpers operate on a raw adjacency list (``Sequence[set[int]]``,
as returned by :meth:`repro.core.graph.AttributedGraph.adjacency_view`)
and use flat integer arrays instead of dicts, which is measurably faster
for the thousands of BFS runs an index build performs.

Callers always pass the graph's live ``adjacency_view()``, so a
traversal never reads a stale version.

:func:`bfs_level_bitsets` runs the BFS of many sources at once, one
bitset per vertex and depth, which is how the NLRNL index builds every
vertex's levels in one pass instead of one BFS per vertex.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

from repro.core.graph import component_labels

__all__ = [
    "bfs_levels",
    "bfs_level_bitsets",
    "bfs_distance_array",
    "UNREACHABLE",
]

#: Sentinel distance for unreachable vertices in distance arrays.
UNREACHABLE = -1


def bfs_levels(
    adjacency: Sequence[set[int]],
    source: int,
    max_depth: Optional[int] = None,
) -> list[list[int]]:
    """Return BFS levels from *source*: ``levels[d-1]`` is the vertex list
    at hop distance exactly ``d``.

    The source (distance 0) is not included.  Search stops at *max_depth*
    hops when given, otherwise when the component is exhausted.  Trailing
    empty levels are never produced.
    """
    n = len(adjacency)
    seen = bytearray(n)
    seen[source] = 1
    levels: list[list[int]] = []
    frontier = [source]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier: list[int] = []
        append = next_frontier.append
        for u in frontier:
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = 1
                    append(v)
        if not next_frontier:
            break
        levels.append(next_frontier)
        frontier = next_frontier
    return levels


def bfs_distance_array(
    adjacency: Sequence[set[int]],
    source: int,
    max_depth: Optional[int] = None,
) -> list[int]:
    """Return hop distances from *source* to every vertex.

    Unreachable vertices get :data:`UNREACHABLE`; the source gets 0.
    Search stops at *max_depth* hops when given (same semantics as
    :func:`bfs_levels`), so vertices farther than *max_depth* keep
    :data:`UNREACHABLE` instead of forcing a whole-component sweep.
    """
    n = len(adjacency)
    distances = [UNREACHABLE] * n
    distances[source] = 0
    frontier = [source]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier: list[int] = []
        append = next_frontier.append
        for u in frontier:
            for v in adjacency[u]:
                if distances[v] == UNREACHABLE:
                    distances[v] = depth
                    append(v)
        frontier = next_frontier
    return distances


def bfs_level_bitsets(
    adjacency: Sequence[set[int]],
    sources: Optional[Sequence[int]] = None,
    labels: Optional[Sequence[int]] = None,
) -> list[list[int]]:
    """Run the BFS of every source at once, as integer bitsets.

    Bit ``j`` of ``rows[v][d-1]`` is set iff vertex ``v`` is at hop
    distance exactly ``d`` from ``sources[j]``.  *sources* defaults to
    every vertex (``j`` is then the vertex id), and because the graph is
    undirected ``rows[v]`` is then ``v``'s own BFS levels as bitsets:
    the sets :func:`bfs_levels` returns for *v*, trailing empty levels
    dropped the same way.

    Each depth is one pass over the vertices that still miss a source
    of their component::

        next[v] = OR(frontier[u] for u in adjacency[v]) & ~seen[v]

    where ``frontier[u]`` holds the sources at distance ``d`` from ``u``.
    A vertex at distance ``d + 1`` from a source has a neighbour at
    distance ``d`` from it, and the undirected edge makes that neighbour
    relation symmetric, so the OR is exact.  With a source subset,
    ``rows[v]`` runs to ``v``'s largest distance to a source of its
    component and may hold zero bitsets for the depths between.
    *labels* are the graph's :func:`component_labels`, computed when not
    given.
    """
    n = len(adjacency)
    if sources is None:
        sources = range(n)
    if labels is None:
        labels = component_labels(adjacency)
    # unseen[v]: the sources of v's component not yet at distance <= d.
    component_sources: dict[int, int] = {}
    frontier = [0] * n
    for position, source in enumerate(sources):
        bit = 1 << position
        frontier[source] = bit
        label = labels[source]
        component_sources[label] = component_sources.get(label, 0) | bit
    unseen = [component_sources.get(labels[v], 0) & ~frontier[v] for v in range(n)]
    rows: list[list[int]] = [[] for _ in range(n)]
    active = [v for v in range(n) if unseen[v]]
    while active:
        next_frontier = [0] * n
        still_active = []
        for v in active:
            reached = 0
            for u in adjacency[v]:
                reached |= frontier[u]
            reached &= unseen[v]
            next_frontier[v] = reached
            rows[v].append(reached)
            unseen[v] ^= reached
            if unseen[v]:
                still_active.append(v)
        frontier = next_frontier
        active = still_active
    return rows
