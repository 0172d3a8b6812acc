"""2-hop label index (pruned landmark labeling).

Section V opens with "Inspired by the 1-hop or 2-hop label index [37]";
this module implements that inspiration directly as a fourth distance
oracle: **pruned landmark labeling** (Akiba-Iwata-Yoshida style) over
unweighted graphs.

Every vertex ``v`` stores a label ``L(v) = {(landmark, dist), ...}``;
the distance of a pair is ``min over common landmarks of
L(u)[w] + L(v)[w]``.  Labels are built by running one BFS per vertex in
degree-descending order with *pruning*: when a BFS from landmark ``w``
reaches ``v`` at distance ``d`` but the already-built labels certify
``dist(w, v) <= d``, the search does not expand ``v``.  On social
networks, high-degree hubs cover most shortest paths, so labels stay
small and probes are fast.

This oracle is exact for all distances (unlike NL, it never expands on
demand; unlike NLRNL, it stores no full BFS levels), giving the
benchmark suite a third point in the space/probe-cost trade-off that
Figure 9 explores.
"""

from __future__ import annotations

import time

from repro.index.base import DistanceOracle, GraphLike

__all__ = ["PLLIndex"]

_INF = float("inf")


class PLLIndex(DistanceOracle):
    """Pruned 2-hop labels for exact hop distances.

    Examples
    --------
    >>> g = AttributedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    >>> pll = PLLIndex(g)
    >>> pll.query_distance(0, 4)
    4
    >>> pll.is_tenuous(0, 4, 3)
    True
    >>> pll.is_tenuous(0, 4, 4)
    False
    """

    name = "pll"

    def __init__(self, graph: GraphLike) -> None:
        super().__init__(graph)
        # _labels[v]: dict landmark -> distance.  Landmarks are vertex
        # ids; every vertex is its own landmark at distance 0 (stored
        # implicitly: the build inserts it explicitly for O(1) probes).
        self._labels: list[dict[int, int]] = []
        self._order: list[int] = []
        self.rebuild()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        started = time.perf_counter()
        graph = self.graph
        n = graph.num_vertices

        adjacency = graph.adjacency_view()

        # Degree-descending landmark order: hubs first prune the most.
        order = sorted(range(n), key=lambda v: -len(adjacency[v]))
        labels: list[dict[int, int]] = [dict() for _ in range(n)]

        for landmark in order:
            landmark_label = labels[landmark]
            # BFS from the landmark with label-based pruning.
            distances = {landmark: 0}
            frontier = [landmark]
            depth = 0
            while frontier:
                next_frontier: list[int] = []
                for vertex in frontier:
                    # Prune: if existing labels already certify a path
                    # through an earlier landmark that is as short, the
                    # landmark adds nothing for `vertex` or beyond it.
                    certified = _query(labels[vertex], landmark_label)
                    if certified <= depth:
                        continue
                    labels[vertex][landmark] = depth
                    for neighbor in adjacency[vertex]:
                        if neighbor not in distances:
                            distances[neighbor] = depth + 1
                            next_frontier.append(neighbor)
                frontier = next_frontier
                depth += 1

        self._labels = labels
        self._order = order
        self._rank = {vertex: position for position, vertex in enumerate(order)}
        self.stats.entries = sum(len(label) for label in labels)
        self.stats.build_seconds = time.perf_counter() - started
        super().rebuild()

    # ------------------------------------------------------------------
    # Dynamic maintenance
    # ------------------------------------------------------------------
    def supports_incremental_updates(self) -> bool:
        return True

    def insert_edge(self, u: int, v: int) -> None:
        """Add edge ``(u, v)`` and repair labels with resumed pruned BFS.

        The incremental-insertion rule for pruned landmark labels: every
        landmark ``w`` that labels one endpoint may now reach vertices
        beyond the *other* endpoint more cheaply, so its pruned BFS is
        resumed from that endpoint at distance ``d(w, endpoint) + 1``.
        Distances only shrink on insertion, so surviving entries stay
        exact and the resumed searches add exactly the labels needed to
        certify every improved pair.  Landmarks are resumed in rank
        order so higher-rank labels prune the lower-rank resumes.
        """
        graph = self.graph
        graph.add_edge(u, v)
        rank = self._rank
        resumes = sorted(
            [(w, d, v) for w, d in self._labels[u].items()]
            + [(w, d, u) for w, d in self._labels[v].items()],
            key=lambda item: rank[item[0]],
        )
        for w, d, start in resumes:
            self._resume_pruned_bfs(w, start, d + 1)
        self._built_version = graph.version

    def _resume_pruned_bfs(self, landmark: int, start: int, start_depth: int) -> None:
        labels = self._labels
        landmark_label = labels[landmark]
        adjacency = self.graph.adjacency_view()
        distances = {start: start_depth}
        frontier = [start]
        depth = start_depth
        added = 0
        while frontier:
            next_frontier: list[int] = []
            for vertex in frontier:
                if _query(labels[vertex], landmark_label) <= depth:
                    continue
                labels[vertex][landmark] = depth
                added += 1
                for neighbor in adjacency[vertex]:
                    if neighbor not in distances:
                        distances[neighbor] = depth + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
            depth += 1
        self.stats.entries += added

    def delete_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)``; labels are rebuilt from scratch.

        Decremental 2-hop maintenance has no sound local repair: a
        deletion can invalidate entries whose *pruning certificates*
        (labels of unaffected, higher-rank landmarks) pass through the
        affected region, so the damage is not confined to vertices whose
        own distances changed.  The incremental-PLL literature leaves
        deletions to a rebuild, and so do we — counted so operators can
        see the cost.
        """
        self.graph.remove_edge(u, v)
        self.stats.extra["delete_rebuilds"] = (
            self.stats.extra.get("delete_rebuilds", 0) + 1
        )
        self.rebuild()

    def insert_vertex(self, labels=()) -> int:
        """Append an isolated vertex: its label is just itself at 0."""
        vertex = self.graph.add_vertex(labels)
        self._labels.append({vertex: 0})
        self._order.append(vertex)
        self._rank[vertex] = len(self._order) - 1
        self.stats.entries += 1
        self._built_version = self.graph.version
        return vertex

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def query_distance(self, u: int, v: int) -> float:
        """Exact hop distance (``inf`` when unreachable)."""
        if u == v:
            return 0
        return _query(self._labels[u], self._labels[v])

    def is_tenuous(self, u: int, v: int, k: int) -> bool:
        self.check_k(k)
        self.stats.probes += 1
        if u == v:
            return False
        if k == 0:
            return True
        distance = _query(self._labels[u], self._labels[v])
        if distance < _INF:
            self.stats.memo_hits += 1
        else:
            self.stats.memo_misses += 1
        return distance > k

    def within_k(self, vertex: int, k: int) -> set[int]:
        self.check_k(k)
        return {
            other
            for other in range(self.graph.num_vertices)
            if other != vertex and not self.is_tenuous(vertex, other, k)
        }

    def filter_candidates(self, candidates: list[int], member: int, k: int) -> list[int]:
        """k-line filtering with the label intersection inlined."""
        self.stats.probes += len(candidates)
        if k == 0:
            return [v for v in candidates if v != member]
        labels = self._labels
        member_label = labels[member]
        surviving: list[int] = []
        append = surviving.append
        for v in candidates:
            if v == member:
                continue
            if _query(labels[v], member_label) > k:
                append(v)
        return surviving

    # ------------------------------------------------------------------
    def label_of(self, vertex: int) -> dict[int, int]:
        """Copy of a vertex's 2-hop label (for tests/inspection)."""
        return dict(self._labels[vertex])

    def average_label_size(self) -> float:
        """Mean entries per label — the PLL quality number."""
        if not self._labels:
            return 0.0
        return self.stats.entries / len(self._labels)


def _query(label_a: dict[int, int], label_b: dict[int, int]) -> float:
    """Distance certified by two 2-hop labels (inf if no common landmark)."""
    if len(label_a) > len(label_b):
        label_a, label_b = label_b, label_a
    best = _INF
    get = label_b.get
    for landmark, distance_a in label_a.items():
        distance_b = get(landmark)
        if distance_b is not None:
            total = distance_a + distance_b
            if total < best:
                best = total
    return best
