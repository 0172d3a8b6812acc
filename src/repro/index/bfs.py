"""Index-free distance oracle: cutoff breadth-first search.

This is the baseline every index is validated against and the fallback
when index build cost is not worth paying (one-shot queries on small
graphs).  A tiny bounded memo of ``within_k`` frontiers is kept because
k-line filtering tends to re-probe the handful of vertices that the
branch-and-bound search repeatedly pushes into ``S_I``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.core.graph import AttributedGraph
from repro.index.base import DistanceOracle

__all__ = ["BFSOracle"]


class BFSOracle(DistanceOracle):
    """Answer distance probes with cutoff BFS, no precomputation.

    Parameters
    ----------
    graph:
        The attributed social network.
    cache_size:
        Maximum number of ``(vertex, k)`` frontier sets to memoise
        (the LRU budget; overflow evictions are counted in
        ``stats.memo_evictions``).  ``0`` disables the memo entirely
        (useful for measuring raw BFS cost in the oracle ablation
        bench).

    Balls grow over the live ``graph.adjacency_view()``, so a probe
    always reads the graph as it is now.
    """

    name = "bfs"

    def __init__(
        self,
        graph: AttributedGraph,
        cache_size: int = 1024,
    ) -> None:
        super().__init__(graph)
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self._cache_size = cache_size
        # Memo entries are (seen, frontier, exhausted): *seen* is the
        # 1..k ball (vertex excluded), *frontier* the vertices at exactly
        # depth k (the resume point for a later, larger k), *exhausted*
        # whether BFS saturated before depth k — in which case every
        # larger k has the identical ball.
        self._cache: OrderedDict[
            tuple[int, int], tuple[set[int], list[int], bool]
        ] = OrderedDict()
        # The memo is shared mutable state: concurrent filter_candidates
        # calls from QueryService worker threads would otherwise race
        # move_to_end/popitem mid-iteration.  Cached entries are never
        # mutated after insertion, so readers outside the lock are safe
        # once they hold a reference.
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    def is_tenuous(self, u: int, v: int, k: int) -> bool:
        self.check_k(k)
        self.stats.probes += 1
        if u == v:
            return False
        if k == 0:
            return True
        # Probe from whichever endpoint is already cached, else the
        # lower-degree endpoint (smaller expected frontier).
        if (u, k) in self._cache:
            return v not in self._grow(u, k)
        if (v, k) in self._cache:
            return u not in self._grow(v, k)
        if self.graph.degree(u) > self.graph.degree(v):
            u, v = v, u
        return v not in self._grow(u, k)

    def within_k(self, vertex: int, k: int) -> set[int]:
        self.check_k(k)
        if k == 0:
            return set()
        return set(self._grow(vertex, k))

    # ------------------------------------------------------------------
    def _grow(self, vertex: int, k: int) -> set[int]:
        """Return (and memoise) the set of vertices at distance 1..k.

        A miss at ``(vertex, k)`` first looks for a memoised smaller-k
        ball of the same vertex and *resumes* BFS from its stored
        frontier instead of restarting from scratch — the solver probes
        the same vertices at growing k (leaf pairwise checks after
        depth-limited filters), so the resume path is common.  Resumes
        (and saturated smaller-k balls served directly) count as
        ``memo_hits``; only a from-scratch BFS is a ``memo_miss``.
        """
        resume: Optional[tuple[int, tuple[set[int], list[int], bool]]] = None
        with self._memo_lock:
            entry = self._cache.get((vertex, k))
            if entry is not None:
                self._cache.move_to_end((vertex, k))
                self.stats.memo_hits += 1
                return entry[0]
            for depth in range(k - 1, 0, -1):
                prev = self._cache.get((vertex, depth))
                if prev is not None:
                    resume = (depth, prev)
                    break
        if resume is not None:
            self.stats.memo_hits += 1
            depth, (prev_seen, prev_frontier, prev_exhausted) = resume
            if prev_exhausted:
                # BFS saturated at or before *depth*: the k-ball is the
                # same set.  Memoise it under (vertex, k) too so the
                # next probe is a direct hit.
                self._store(vertex, k, prev_seen, prev_frontier, True)
                return prev_seen
            seen = set(prev_seen)
            seen.add(vertex)
            frontier: list[int] = prev_frontier
            rounds = k - depth
        else:
            self.stats.memo_misses += 1
            seen = {vertex}
            frontier = [vertex]
            rounds = k
        exhausted = False
        adjacency = self.graph.adjacency_view()
        for _ in range(rounds):
            next_frontier = []
            for u in frontier:
                for w in adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        next_frontier.append(w)
            if not next_frontier:
                exhausted = True
                break
            frontier = next_frontier
        seen.discard(vertex)
        self._store(vertex, k, seen, frontier, exhausted)
        return seen

    def _store(
        self, vertex: int, k: int, seen: set[int], frontier: list[int], exhausted: bool
    ) -> None:
        if not self._cache_size:
            return
        with self._memo_lock:
            self._cache[(vertex, k)] = (seen, frontier, exhausted)
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
                self.stats.memo_evictions += 1

    def filter_candidates(self, candidates: list[int], member: int, k: int) -> list[int]:
        if k == 0:
            self.stats.probes += len(candidates)
            return [v for v in candidates if v != member]
        blocked = self._grow(member, k)
        self.stats.probes += len(candidates)
        return [v for v in candidates if v != member and v not in blocked]

    # ------------------------------------------------------------------
    # Dynamic maintenance: the only materialised state is the frontier
    # memo, and a ball B(c, k) can only change if an endpoint of the
    # edited edge lies in it (any new/destroyed path of length <= k
    # through the edge puts that endpoint within k of c).  Evicting just
    # those entries keeps the warm memo alive under a mutation stream.
    # ------------------------------------------------------------------
    def supports_incremental_updates(self) -> bool:
        return True

    def insert_edge(self, u: int, v: int) -> None:
        self.graph.add_edge(u, v)
        self._evict_touching(u, v)

    def delete_edge(self, u: int, v: int) -> None:
        self.graph.remove_edge(u, v)
        self._evict_touching(u, v)

    def insert_vertex(self, labels=()) -> int:
        # An isolated vertex is in no memoised ball; nothing to evict.
        vertex = self.graph.add_vertex(labels)
        self._built_version = self.graph.version
        return vertex

    def _evict_touching(self, u: int, v: int) -> None:
        with self._memo_lock:
            stale = [
                key
                for key, (seen, _frontier, _exhausted) in self._cache.items()
                if key[0] == u or key[0] == v or u in seen or v in seen
            ]
            for key in stale:
                del self._cache[key]
        self._built_version = self.graph.version

    def rebuild(self) -> None:
        with self._memo_lock:
            self._cache.clear()
        super().rebuild()

    # ------------------------------------------------------------------
    # Pickling (ProcessPoolExecutor workers): locks are not picklable
    # and the memo is a per-process concern, so both are dropped.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_memo_lock"] = None
        state["_cache"] = OrderedDict()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo_lock = threading.Lock()
