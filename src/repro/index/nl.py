"""NL index: h-hop neighbour lists with on-demand expansion (Section V-A).

The NL index precomputes, for every vertex, the exact set of vertices at
each hop distance ``1..h``.  A tenuity probe ``dist(u, v) > k`` then
becomes at most ``min(k, h)`` set-membership tests (Algorithm 2 of the
paper).  When ``k`` exceeds the stored depth, the missing levels are
*expanded on demand* — the neighbours of the deepest stored level are
explored one hop further — and the expansion is cached so repeated deep
probes pay once.

Depth selection
---------------
The paper selects the stored depth as "the number of m-hop neighbors
with the maximal one", i.e. the hop level whose neighbour count peaks.
``depth="auto"`` reproduces this by sampling BFS level profiles;
``depth=<int>`` pins a global depth for experiments.

Storage is *unhalved* (each of ``u``'s level sets may contain vertices
with any id); the paper's Section VII-C attributes NL's larger footprint
partly to this doubled storage, and Figure 9(a) is reproduced on that
basis.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Literal, Union

from repro.core.errors import IndexBuildError
from repro.index._traversal import bfs_levels
from repro.index.base import DistanceOracle, GraphLike

__all__ = ["NLIndex", "choose_peak_level"]

#: Sample size for the auto depth heuristic on large graphs.
_AUTO_SAMPLE = 64


def choose_peak_level(level_counts: list[float]) -> int:
    """Return the 1-based hop level with the largest neighbour count.

    Ties favour the smaller level (cheaper storage for the same benefit).
    An empty profile (isolated vertex / empty graph) maps to level 1.
    """
    if not level_counts:
        return 1
    best_level = 1
    best_count = level_counts[0]
    for index, count in enumerate(level_counts[1:], start=2):
        if count > best_count:
            best_count = count
            best_level = index
    return best_level


class NLIndex(DistanceOracle):
    """Precomputed h-hop neighbour lists (NL index of Section V-A).

    Parameters
    ----------
    graph:
        The attributed social network.
    depth:
        Stored hop depth ``h``.  ``"auto"`` (default) picks the hop level
        with the peak average neighbour count, following the paper's
        heuristic; an explicit positive int pins the depth.
    rng:
        Random source for the auto-depth BFS sample (injectable for
        reproducibility).

    The build and on-demand expansion both walk ``adjacency_view()``.

    Examples
    --------
    >>> g = AttributedGraph(4, [(0, 1), (1, 2), (2, 3)])
    >>> nl = NLIndex(g, depth=1)
    >>> nl.is_tenuous(0, 3, 2)   # dist(0,3)=3 > 2, needs one expansion
    True
    >>> nl.is_tenuous(0, 2, 2)   # dist=2, not tenuous
    False
    """

    name = "nl"

    def __init__(
        self,
        graph: GraphLike,
        depth: Union[int, Literal["auto"]] = "auto",
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(graph)
        if depth != "auto" and (not isinstance(depth, int) or depth < 1):
            raise IndexBuildError(f"depth must be a positive int or 'auto', got {depth!r}")
        self._requested_depth = depth
        self._rng = rng if rng is not None else random.Random(0)
        # _levels[v][d-1] is the set of vertices at distance exactly d
        # from v.  _stored_depth[v] counts *materialised* levels,
        # including on-demand expansions.  _exhausted[v] is True once the
        # component of v is fully enumerated (no deeper level exists).
        self._levels: list[list[set[int]]] = []
        self._stored_depth: list[int] = []
        self._exhausted: list[bool] = []
        self.depth: int = 1
        # On-demand expansion mutates the shared level lists; concurrent
        # probes from QueryService worker threads serialise expansions so
        # two threads never materialise (and double-append) the same
        # level.  Read-only probes against already-stored levels do not
        # take the lock.
        self._expand_lock = threading.Lock()
        self.rebuild()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        started = time.perf_counter()
        graph = self.graph
        n = graph.num_vertices

        adjacency = graph.adjacency_view()
        if self._requested_depth == "auto":
            self.depth = self._auto_depth(adjacency, n)
        else:
            self.depth = int(self._requested_depth)

        levels: list[list[set[int]]] = []
        stored_depth: list[int] = []
        exhausted: list[bool] = []
        entries = 0
        for vertex in range(n):
            vertex_levels = [
                set(level) for level in bfs_levels(adjacency, vertex, self.depth)
            ]
            entries += sum(len(level) for level in vertex_levels)
            levels.append(vertex_levels)
            stored_depth.append(len(vertex_levels))
            # BFS returned fewer levels than requested only when the
            # component ran out of vertices.
            exhausted.append(len(vertex_levels) < self.depth)
        self._levels = levels
        self._stored_depth = stored_depth
        self._exhausted = exhausted

        self.stats.entries = entries
        self.stats.build_seconds = time.perf_counter() - started
        self.stats.extra["depth"] = self.depth
        super().rebuild()

    def _auto_depth(self, adjacency, n: int) -> int:
        """Pick ``h`` as the hop level with peak average neighbour count."""
        if n == 0:
            return 1
        if n <= _AUTO_SAMPLE:
            sample = list(range(n))
        else:
            sample = self._rng.sample(range(n), _AUTO_SAMPLE)
        totals: list[float] = []
        for vertex in sample:
            for position, level in enumerate(bfs_levels(adjacency, vertex)):
                if position == len(totals):
                    totals.append(0.0)
                totals[position] += len(level)
        averages = [total / len(sample) for total in totals]
        return choose_peak_level(averages)

    # ------------------------------------------------------------------
    # Probing (Algorithm 2)
    # ------------------------------------------------------------------
    def is_tenuous(self, u: int, v: int, k: int) -> bool:
        self.check_k(k)
        self.stats.probes += 1
        if u == v:
            return False
        if k == 0:
            return True
        # Probe against the endpoint whose levels reach deeper, so that
        # on-demand expansion is needed as rarely as possible.
        if self._stored_depth[u] > self._stored_depth[v]:
            u, v = v, u
        levels = self._levels[v]
        upto = min(k, len(levels))
        for depth in range(upto):
            if u in levels[depth]:
                self.stats.memo_hits += 1
                return False
        if len(levels) >= k or self._exhausted[v]:
            self.stats.memo_hits += 1
            return True
        # Case 2 of Algorithm 2: expand (h+1)..k on demand.
        self.stats.memo_misses += 1
        return not self._expand_and_find(v, u, k)

    def within_k(self, vertex: int, k: int) -> set[int]:
        self.check_k(k)
        if k == 0:
            return set()
        self._ensure_depth(vertex, k)
        combined: set[int] = set()
        for level in self._levels[vertex][:k]:
            combined |= level
        return combined

    # ``filter_candidates`` is inherited: the base one-set-subtraction
    # default over :meth:`within_k` is exactly the NL fast path.

    # ------------------------------------------------------------------
    # On-demand expansion
    # ------------------------------------------------------------------
    def _expand_and_find(self, vertex: int, target: int, k: int) -> bool:
        """Expand *vertex*'s levels up to depth *k*, returning whether
        *target* shows up in one of the newly materialised levels."""
        with self._expand_lock:
            return self._expand_and_find_locked(vertex, target, k)

    def _expand_and_find_locked(self, vertex: int, target: int, k: int) -> bool:
        found = False
        levels = self._levels[vertex]
        seen: set[int] = {vertex}
        for position, level in enumerate(levels):
            seen |= level
            if position < k and target in level:
                # Another thread materialised this level between the
                # caller's lock-free scan and acquiring the expansion
                # lock; only levels within depth k count as "found".
                found = True
        adjacency = self.graph.adjacency_view()
        while len(levels) < k and not self._exhausted[vertex]:
            self.stats.expansions += 1
            frontier = levels[-1] if levels else {vertex}
            next_level: set[int] = set()
            for u in frontier:
                next_level |= adjacency[u]
            next_level -= seen
            if not next_level:
                self._exhausted[vertex] = True
                break
            levels.append(next_level)
            self._stored_depth[vertex] = len(levels)
            self.stats.entries += len(next_level)
            seen |= next_level
            if target in next_level:
                found = True
        return found

    def _ensure_depth(self, vertex: int, k: int) -> None:
        if self._stored_depth[vertex] < k and not self._exhausted[vertex]:
            self._expand_and_find(vertex, -1, k)

    # ------------------------------------------------------------------
    # Dynamic maintenance (affected-label repair, Section V-B)
    # ------------------------------------------------------------------
    def supports_incremental_updates(self) -> bool:
        return True

    def insert_edge(self, u: int, v: int) -> None:
        self.graph.add_edge(u, v)
        self._repair_affected(u, v)

    def delete_edge(self, u: int, v: int) -> None:
        self.graph.remove_edge(u, v)
        self._repair_affected(u, v)

    def insert_vertex(self, labels=()) -> int:
        # An isolated vertex changes no existing level set; its own
        # profile is the empty one the full build would produce.
        vertex = self.graph.add_vertex(labels)
        with self._expand_lock:
            self._levels.append([])
            self._stored_depth.append(0)
            self._exhausted.append(True)
            self._built_version = self.graph.version
        return vertex

    def _repair_affected(self, u: int, v: int) -> None:
        """Recompute level sets only where the edited edge can matter.

        A path of length <= d from *x* that the edit created or
        destroyed passes through ``u`` or ``v`` at distance < d, so a
        vertex whose materialised levels contain neither endpoint (and
        is not an endpoint itself) keeps exactly its old levels.
        Affected vertices are rebuilt to the base depth ``h`` —
        on-demand expansions beyond it are cache and re-expand lazily.
        """
        with self._expand_lock:
            adjacency = self.graph.adjacency_view()
            affected = [
                x
                for x in range(len(self._levels))
                if x == u
                or x == v
                or any(u in level or v in level for level in self._levels[x])
            ]
            for x in affected:
                old_entries = sum(len(level) for level in self._levels[x])
                new_levels = [set(level) for level in bfs_levels(adjacency, x, self.depth)]
                self._levels[x] = new_levels
                self._stored_depth[x] = len(new_levels)
                self._exhausted[x] = len(new_levels) < self.depth
                self.stats.entries += (
                    sum(len(level) for level in new_levels) - old_entries
                )
            self.stats.extra["repaired_vertices"] = (
                self.stats.extra.get("repaired_vertices", 0) + len(affected)
            )
            self._built_version = self.graph.version

    # ------------------------------------------------------------------
    def level_sets(self, vertex: int) -> list[frozenset[int]]:
        """Materialised levels of *vertex* (read-only copies, for tests)."""
        return [frozenset(level) for level in self._levels[vertex]]

    # ------------------------------------------------------------------
    # Pickling (ProcessPoolExecutor workers): the expansion lock is
    # per-process state and not picklable.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_expand_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._expand_lock = threading.Lock()
