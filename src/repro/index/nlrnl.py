"""NLRNL index: (c-1)-hop lists + reverse c-hop lists (Section V-B).

For each vertex the paper picks ``c`` — the hop level with the largest
neighbour count — and stores every BFS level *except* level ``c``:

* the **near** lists hold levels ``1..c-1``;
* the **reverse** (far) lists hold levels ``c+1..ecc``.

Skipping the single biggest level is what makes NLRNL smaller than NL
despite covering *all* distances, and covering all distances is what
removes NL's on-demand expansion from the probe path.

Representation note: the two lists are stored jointly as one flat
``neighbour -> depth`` map per vertex (depths ``< c`` are the near list,
depths ``> c`` the reverse list).  The entry count — the unit the
paper's space analysis and Figure 9(a) use — is identical to the
two-list layout, but a probe is a single hash lookup instead of one
membership test per level, which is what lets NLRNL beat NL on probe
latency as reported in Section VII-A.

Construction runs no per-vertex BFS: :func:`bfs_level_bitsets` computes
every vertex's levels at once as integer bitsets, one pass per depth,
``c`` is read off the level popcounts, and each map is decoded from the
bits of the ids above its vertex outside level ``c`` only.

Two storage rules from the paper are implemented faithfully:

* **Id-halving** — vertex ``v``'s map only contains vertices with id
  greater than ``v``; a probe for the pair ``(u, v)`` always consults
  the smaller id's map ("we only store the hop neighbor whose id is
  greater than the user").
* **Missing-pair convention** — a same-component pair found in no list
  sits at distance exactly ``c``.  The paper leaves the
  "distance == c vs unreachable" ambiguity unaddressed; we disambiguate
  with a per-vertex connected-component id (O(n) extra space), recorded
  as a substitution in DESIGN.md.

Dynamic maintenance (edge insert/delete) follows the paper's sketch
and patches exactly the distance pairs an edit changes, not whole maps.
Both edits read the endpoints' old rows from the index itself; an
insert runs no BFS at all.

* **insert (u, v)** — a shortest path uses the new edge at most once,
  so a pair ``(a, w)`` can shorten only through ``a .. u - v .. w``
  (or the mirror), which beats the old ``d(a,w) <= d(a,v) + d(v,w)``
  only if ``d(a,u) + 1 < d(a,v)``, and likewise
  ``d(v,w) + 1 < d(u,w)``.  Every changed pair therefore lies in
  ``A_u x A_v`` (unreachable counts as infinite), and its new distance
  is ``min(old, d(a,u) + 1 + d(v,w))``.
* **delete (u, v)** — ``L_u``, the vertices whose distance to ``u``
  grew, is read off the old row of ``u``: a vertex's distance grows iff
  all its neighbours one hop closer to ``u`` grew, starting from ``v``.
  A pair ``(a, w)`` lengthens only if all its shortest paths ran
  ``a .. v - u .. w``; were ``d(a,u)`` unchanged, a detour to ``u``
  followed by ``u .. w`` would keep the old distance.  So every changed
  pair lies in ``L_u x L_v`` (disjoint: ``a`` cannot be closer to each
  endpoint through the other), and those pairs are recomputed by one
  :func:`bfs_level_bitsets` pass from the smaller side, decoding only
  the other side's rows.

``A_u ∪ A_v`` (``L_u ∪ L_v``) is exactly the set of vertices whose rows
change: their cached rows are dropped and they are counted in
``stats.extra["repaired_vertices"]``; the changed pairs are counted in
``stats.extra["repaired_pairs"]``.  Each changed pair is written into
the smaller id's map, or dropped from it when its new distance is that
vertex's ``c`` or unreachable, so ``stats.entries`` stays exact.  ``c``
values are frozen at build time so the missing-pair convention stays
stable across updates.  Component labels are recomputed only when an
insert merges two components (``u`` could not reach ``v``) or a delete
splits one (no edge leaves ``L_u``).

k-line filtering (:meth:`NLRNLIndex.filter_candidates`) reads a derived
**row cache** instead of probing the maps per candidate: a member's
exact distance row is decoded once from the id-halved maps, and each
``(member, k)`` pair gets a keep-row of one byte per vertex
(``dist > k``), so filtering is one byte lookup per candidate.  The
cache is bounded by :data:`ROW_CACHE_BYTES`, drops only the rows of the
vertices an edge repair changes, and never changes ``stats.entries``.
"""

from __future__ import annotations

import threading
import time
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import compress, repeat
from math import inf
from typing import Union

from repro.core.errors import IndexUpdateError
from repro.core.graph import AttributedGraph, component_labels
from repro.index._traversal import UNREACHABLE, bfs_level_bitsets
from repro.index.base import DistanceOracle
from repro.index.nl import choose_peak_level

__all__ = ["NLRNLIndex", "ROW_CACHE_BYTES"]

#: Byte budget of the row cache (distance rows plus keep-rows).  A row
#: costs one byte per vertex (two or four for distance rows of graphs
#: with distances >= 255), so a 320-vertex graph filtering at four k
#: values needs about 0.5 MiB; past the budget the oldest rows go first.
ROW_CACHE_BYTES = 16 << 20

#: Row-cache key slot of a member's distance row (keep-rows use k >= 1).
_DISTANCE_ROW = -1

Row = Union[bytes, array]


class NLRNLIndex(DistanceOracle):
    """(c-1)-hop neighbour lists plus reverse c-hop lists, id-halved.

    Examples
    --------
    >>> g = AttributedGraph(4, [(0, 1), (1, 2), (2, 3)])
    >>> idx = NLRNLIndex(g)
    >>> idx.is_tenuous(0, 3, 2)
    True
    >>> idx.is_tenuous(0, 3, 3)
    False
    >>> idx.insert_edge(0, 3)
    >>> idx.is_tenuous(0, 3, 2)
    False
    """

    name = "nlrnl"

    def __init__(self, graph: AttributedGraph) -> None:
        super().__init__(graph)
        # _depth_of[v] maps each neighbour w > v (at any distance except
        # exactly c) to its hop distance.  _c[v] is the skipped level.
        self._depth_of: list[dict[int, int]] = []
        self._c: list[int] = []
        self._component: list[int] = []
        self.rebuild()

    def _reset_row_cache(self) -> None:
        """Start an empty row cache (also used after unpickling/loading).

        ``_rows`` maps ``(member, k)`` to a keep-row and
        ``(member, _DISTANCE_ROW)`` to a distance row.  Hits read it
        without locking; misses build and insert under ``_row_lock``.
        ``_row_slots`` holds every second key part ever cached, so an
        eviction looks up only its own members' keys.
        """
        self._rows: dict[tuple[int, int], Row] = {}
        self._row_slots: set[int] = set()
        self._row_bytes = 0
        self._row_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # The row cache is derived state: never ship n^2 bytes (or a
        # lock) to a process worker or a copy.
        state = dict(self.__dict__)
        for name in ("_rows", "_row_slots", "_row_bytes", "_row_lock"):
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_row_cache()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        started = time.perf_counter()
        graph = self.graph
        adjacency = graph.adjacency_view()
        n = graph.num_vertices

        labels = component_labels(adjacency)
        rows = bfs_level_bitsets(adjacency, labels=labels)
        # Row v is v's own levels (the graph is undirected), so c is read
        # off their sizes before the decode frees the rows.
        c_values = [
            choose_peak_level([level.bit_count() for level in row]) for row in rows
        ]
        self._depth_of = _maps_from_level_bitsets(rows, range(n), c_values)
        self._c = c_values
        self._component = labels
        self._reset_row_cache()

        self.stats.entries = sum(map(len, self._depth_of))
        self.stats.build_seconds = time.perf_counter() - started
        super().rebuild()

    @staticmethod
    def _map_from_levels(
        vertex: int, levels: list[list[int]], c: int
    ) -> dict[int, int]:
        """Flatten one vertex's :func:`bfs_levels` into its id-halved
        neighbour->depth map, dropping level ``c`` entirely (the
        missing-pair convention).

        The per-source form of :func:`_maps_from_level_bitsets`, which
        builds every map; tests check the two agree.
        """
        vertex_map: dict[int, int] = {}
        for depth, level in enumerate(levels, start=1):
            if depth == c:
                continue
            for w in level:
                if w > vertex:
                    vertex_map[w] = depth
        return vertex_map

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def is_tenuous(self, u: int, v: int, k: int) -> bool:
        self.check_k(k)
        self.stats.probes += 1
        if u == v:
            return False
        if k == 0:
            return True
        # Id-halving: the smaller id owns the pair.
        if u > v:
            u, v = v, u
        depth = self._depth_of[u].get(v)
        if depth is not None:
            self.stats.memo_hits += 1
            return depth > k
        # Not stored: either distance == c (same component) or
        # unreachable (different component, always tenuous).
        self.stats.memo_misses += 1
        if self._component[u] != self._component[v]:
            return True
        return self._c[u] > k

    def filter_candidates(self, candidates: list[int], member: int, k: int) -> list[int]:
        """k-line filtering as one keep-row lookup per candidate (hot path).

        Counts one probe per candidate, exactly like pairwise probing.
        """
        self.stats.probes += len(candidates)
        if k <= 0:
            return [v for v in candidates if v != member]
        keep = self._rows.get((member, k))
        if keep is None:
            keep = self._keep_row(member, k)
        return [v for v in candidates if keep[v]]

    # ------------------------------------------------------------------
    # Row cache (derived from the maps; see module docstring)
    # ------------------------------------------------------------------
    def _keep_row(self, member: int, k: int) -> Row:
        """Build, cache and return *member*'s keep-row for ``k >= 1``:
        byte ``v`` is 1 iff ``dist(member, v) > k``."""
        with self._row_lock:
            keep = self._rows.get((member, k))
            if keep is not None:
                return keep
            row = self._rows.get((member, _DISTANCE_ROW))
            if row is None:
                row = self._distance_row(member)
                self._cache_row((member, _DISTANCE_ROW), row)
            if isinstance(row, bytes):
                # Byte rows hold distances <= 254 and 255 = unreachable.
                cut = min(k, 254) + 1
                keep = row.translate(bytes(cut) + b"\x01" * (256 - cut))
            else:
                unreachable = _unreachable_code(row.typecode)
                keep = bytes([d > k or d == unreachable for d in row])
            self._cache_row((member, k), keep)
            return keep

    def _distance_row(self, member: int) -> Row:
        """*member*'s exact hop distance to every vertex, decoded from the
        id-halved maps with the missing-pair and component rules.

        Stored in the narrowest unsigned type whose maximum (the
        unreachable code) exceeds every finite distance: bytes while all
        distances are <= 254, else a wider array.
        """
        depth_of = self._depth_of
        c_values = self._c
        component = self._component
        n = len(depth_of)
        # v < member: the pair lives in v's map; missing means c[v].
        row = list(map(dict.get, depth_of[:member], repeat(member), c_values[:member]))
        row.append(0)
        # v > member: the pair lives in member's own map; missing means c.
        row.extend(
            map(depth_of[member].get, range(member + 1, n), repeat(c_values[member]))
        )
        # Entries outside member's component hold some vertex's c, so the
        # maximum bounds every finite distance (possibly loosely).
        farthest = max(row)
        for typecode in ("B", "H", "I", "Q"):
            unreachable = _unreachable_code(typecode)
            if farthest < unreachable:
                break
        home = component[member]
        if component.count(home) != n:
            for v in compress(range(n), map(home.__ne__, component)):
                row[v] = unreachable
        return bytes(row) if typecode == "B" else array(typecode, row)

    def _cache_row(self, key: tuple[int, int], row: Row) -> None:
        """Insert *row*, evicting the oldest rows past the byte budget.
        Caller holds ``_row_lock``."""
        rows = self._rows
        self._row_bytes += _row_size(row)
        while rows and self._row_bytes > ROW_CACHE_BYTES:
            self._row_bytes -= _row_size(rows.pop(next(iter(rows))))
        rows[key] = row
        self._row_slots.add(key[1])

    def _evict_rows(self, vertices: list[int]) -> None:
        """Drop every cached row of *vertices*: their distances may have
        changed, and a distance only changes between two such vertices."""
        with self._row_lock:
            rows = self._rows
            for slot in self._row_slots:
                for member in vertices:
                    row = rows.pop((member, slot), None)
                    if row is not None:
                        self._row_bytes -= _row_size(row)

    def within_k(self, vertex: int, k: int) -> set[int]:
        """All vertices at distance 1..k of *vertex*.

        Id-halving means this cannot be read off one vertex's map; the
        canonical NLRNL usage is pairwise probing.  This method
        reconstructs the set by probing every other vertex and exists
        for API completeness and cross-validation tests.
        """
        self.check_k(k)
        return {
            other
            for other in range(self.graph.num_vertices)
            if other != vertex and not self.is_tenuous(vertex, other, k)
        }

    def distance_class(self, u: int, v: int) -> float:
        """Exact hop distance of the pair (``float('inf')`` if unreachable).

        Decoded purely from index state — used by tests to cross-validate
        against BFS.
        """
        if u == v:
            return 0
        if u > v:
            u, v = v, u
        depth = self._depth_of[u].get(v)
        if depth is not None:
            return depth
        if self._component[u] == self._component[v]:
            return self._c[u]
        return float("inf")

    # ------------------------------------------------------------------
    # Dynamic maintenance (Section V-B)
    # ------------------------------------------------------------------
    def supports_incremental_updates(self) -> bool:
        return True

    def insert_edge(self, u: int, v: int) -> None:
        """Add edge ``(u, v)`` and patch exactly the pairs it shortens.

        No BFS runs: the old endpoint rows are read from the index.  A
        shortest path uses the new edge at most once, so ``(a, w)``
        shortens only if ``a`` gets closer to ``v`` by way of ``u``
        (``d(a,u) + 1 < d(a,v)``) and ``w`` closer to ``u`` by way of
        ``v``; its new distance is then ``min(old, d(a,u) + 1 + d(v,w))``.
        Those two disjoint sides are exactly the vertices whose rows
        change.  Components are relabelled only when the edge merges two
        of them (``u`` could not reach ``v``).
        """
        # Above every finite distance, so unreachable compares as infinite.
        far = self.graph.num_vertices + 1
        from_u = self._endpoint_distances(u, far)
        from_v = self._endpoint_distances(v, far)
        self.graph.add_edge(u, v)
        side_u = [a for a, (du, dv) in enumerate(zip(from_u, from_v)) if du + 1 < dv]
        side_v = [w for w, (du, dv) in enumerate(zip(from_u, from_v)) if dv + 1 < du]
        distance_class = self.distance_class
        changes = []
        for a in side_u:
            via = from_u[a] + 1
            for w in side_v:
                distance = via + from_v[w]
                if distance < distance_class(a, w):
                    changes.append((a, w, distance))
        labels = self._component
        if from_u[v] == far:
            # The edge merged two components.
            labels = component_labels(self.graph.adjacency_view())
        self._repair(changes, side_u + side_v, labels)

    def delete_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)`` and patch exactly the pairs it lengthens.

        No endpoint BFS runs.  ``far_u``, the vertices whose distance to
        ``u`` grew, is read off the old row of ``u`` in the index (see
        :func:`_grown_after_removal`); ``far_v`` likewise.  They are
        exactly the vertices whose rows change, and every lengthened pair
        lies in ``far_u x far_v``: if all of ``(a, w)``'s shortest paths
        ran ``a .. u - v .. w``, then ``d(a,v) = d(a,u) + 1``, and were
        ``d(a,v)`` unchanged, a path to ``v`` without the edge followed
        by ``v .. w`` would keep the old distance, so ``a`` is in
        ``far_v`` (and ``w`` in ``far_u`` likewise).  The pairs are
        recomputed by one :func:`bfs_level_bitsets` pass from the
        smaller side, reading only the other side's rows.  The removal
        splits a component iff no edge leaves ``far_u`` (``v`` can no
        longer reach ``u``); only then are components relabelled.
        """
        graph = self.graph
        if not graph.has_edge(u, v):
            raise IndexUpdateError(f"edge ({u}, {v}) does not exist")
        from_u = self._endpoint_distances(u, UNREACHABLE)
        from_v = self._endpoint_distances(v, UNREACHABLE)
        graph.remove_edge(u, v)
        adjacency = graph.adjacency_view()
        far_u = _grown_after_removal(adjacency, from_u, v)
        far_v = _grown_after_removal(adjacency, from_v, u)
        split = all(far_u.issuperset(adjacency[a]) for a in far_u)
        labels = component_labels(adjacency) if split else self._component
        sources, targets = sorted(far_u), sorted(far_v)
        if len(targets) < len(sources):
            sources, targets = targets, sources
        rows = bfs_level_bitsets(adjacency, sources, labels)
        distance_class = self.distance_class
        changes = []
        for w in targets:
            # A source missing from w's levels is in another component now.
            found = [inf] * len(sources)
            for depth, bits in enumerate(rows[w], start=1):
                while bits:
                    low = bits & -bits
                    found[low.bit_length() - 1] = depth
                    bits ^= low
            for a, distance in zip(sources, found):
                if distance != distance_class(a, w):
                    changes.append((a, w, distance))
        self._repair(changes, sources + targets, labels)

    def insert_vertex(self, labels=()) -> int:
        """Append an isolated vertex: empty map, fresh singleton component.

        No existing distance changes, so no map is rebuilt; the new
        vertex's own map is the empty one a full build would produce and
        its ``c`` is the empty-profile peak level.
        """
        vertex = self.graph.add_vertex(labels)
        self._depth_of.append({})
        self._c.append(choose_peak_level([]))
        self._component = component_labels(self.graph.adjacency_view())
        # Every cached row is one byte short of the new vertex.
        self._reset_row_cache()
        self._built_version = self.graph.version
        return vertex

    def _endpoint_distances(self, vertex: int, unreachable: int) -> list[int]:
        """*vertex*'s exact distances as read from the index (its cached
        distance row when there is one), *unreachable* for other
        components."""
        row = self._rows.get((vertex, _DISTANCE_ROW))
        if row is None:
            row = self._distance_row(vertex)
        code = _unreachable_code("B" if isinstance(row, bytes) else row.typecode)
        return [unreachable if d == code else d for d in row]

    def _repair(
        self,
        changes: list[tuple[int, int, float]],
        vertices: list[int],
        labels: list[int],
    ) -> None:
        """Apply an edge edit's changed pairs to the index.

        Each ``(a, w, distance)`` in *changes* is one pair whose distance
        the edit changed (``inf`` once unreachable), and no other pair
        moved, so any structure derived from distances can be patched
        from the same list.  Each is written into the smaller id's map,
        or dropped from it when the distance is that vertex's frozen
        ``c`` or unreachable, so the maps stay what a rebuild with the
        same ``c`` values would give.  *vertices* (the vertices whose
        rows changed) lose their cached rows and are counted in
        ``stats.extra["repaired_vertices"]``, the pairs in
        ``"repaired_pairs"``; *labels* are the component labels after
        the edit.
        """
        depth_of = self._depth_of
        c_values = self._c
        entries = 0
        for a, w, distance in changes:
            low, high = (a, w) if a < w else (w, a)
            vertex_map = depth_of[low]
            size = len(vertex_map)
            if distance == c_values[low] or distance == inf:
                vertex_map.pop(high, None)
            else:
                vertex_map[high] = distance
            entries += len(vertex_map) - size
        self.stats.entries += entries
        self._component = labels
        self._evict_rows(vertices)
        extra = self.stats.extra
        extra["repaired_vertices"] = extra.get("repaired_vertices", 0) + len(vertices)
        extra["repaired_pairs"] = extra.get("repaired_pairs", 0) + len(changes)
        self._built_version = self.graph.version

    # ------------------------------------------------------------------
    def c_value(self, vertex: int) -> int:
        """The frozen per-vertex ``c`` (peak hop level at build time)."""
        return self._c[vertex]


#: ``bytes.translate`` table turning a ``bin()`` digit string into 0/1 flags.
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _maps_from_level_bitsets(
    rows: list[list[int]], sources: Sequence[int], c_values: Sequence[int]
) -> list[dict[int, int]]:
    """Decode :func:`bfs_level_bitsets` *rows* into each source's map.

    ``maps[j]`` holds every vertex ``w > sources[j]`` at its depth ``d``
    from ``sources[j]`` unless ``d == c_values[j]``: the id-halved map
    with level ``c`` dropped.  *sources* must be ascending, so the
    sources below ``w`` are the low bits of its row; masking those and
    the sources whose ``c`` is ``d`` leaves only bits that are entries.
    Each row is freed once decoded.
    """
    maps: list[dict[int, int]] = [{} for _ in sources]
    positions = list(range(len(sources)))
    at_c: dict[int, int] = {}
    for position, c in enumerate(c_values):
        at_c[c] = at_c.get(c, 0) | (1 << position)
    for w in range(len(rows)):
        row, rows[w] = rows[w], []
        below = (1 << bisect_left(sources, w)) - 1
        for depth, bits in enumerate(row, start=1):
            bits &= below & ~at_c.get(depth, 0)
            if bits:
                # bin() lists the bits high to low; reverse to index by position.
                flags = bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)
                for position in compress(positions, flags):
                    maps[position][w] = depth
    return maps


def _grown_after_removal(
    adjacency: Sequence[set[int]], distances: list[int], start: int
) -> set[int]:
    """The vertices whose distance to an endpoint grew when its edge to
    *start* was removed; *distances* are the endpoint's old distances.

    A vertex's distance grows iff every neighbour one hop closer to the
    endpoint (its parent) grew, and *start*'s only parent was the
    endpoint itself.  So the set grows level by level from *start*,
    looking only at the children of the vertices already in it.
    """
    grown = {start}
    level = [start]
    while level:
        depth = distances[level[0]] + 1
        children = {c for a in level for c in adjacency[a] if distances[c] == depth}
        level = [
            c
            for c in children
            if all(distances[b] != depth - 1 or b in grown for b in adjacency[c])
        ]
        grown.update(level)
    return grown


def _unreachable_code(typecode: str) -> int:
    """The largest value of an unsigned array type: the unreachable code."""
    return (1 << (8 * array(typecode).itemsize)) - 1


def _row_size(row: Row) -> int:
    return len(row) if isinstance(row, bytes) else len(row) * row.itemsize

