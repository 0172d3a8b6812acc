"""Ball-bitset distance engine: k-hop neighborhoods as integer bitsets.

Every solver hot path ultimately asks one question — *which of these
candidates lie within k hops of vertex v?* — and answers it today with
per-pair oracle probes or per-vertex set membership loops.  This module
answers it with whole-mask arithmetic instead: the ≤k-hop neighborhood
(*ball*) of a vertex is materialised once as a Python ``int`` bitset
over the graph's dense vertex ids, after which

* k-line filtering is ``candidates_mask & ~ball(v)`` — one big-int AND
  whose cost is O(|V|/64) machine words, independent of how many
  candidates are being filtered;
* the pairwise tenuity check of a complete group is
  ``ball(m) & group_mask`` per member instead of p·(p-1)/2 probes;
* anchor exclusion is a single mask subtraction for all anchors.

Balls are built lazily through any :class:`repro.index.base.DistanceOracle`
(``oracle.within_k`` is the single source of truth — the engine is
correct over BFS, NL, NLRNL and PLL alike) and cached in an LRU keyed
``(vertex, k)``.  The cache is invalidated wholesale when
``graph.version`` moves, so a mutated graph can never serve stale
balls; the memory budget ``max_balls`` bounds resident balls, with
``max_balls=0`` degrading to build-per-call (still correct, just
uncached — the documented fallback when the budget is exceeded the
ball is simply rebuilt on next use).

The engine is shared read-only across solver clones and service worker
threads: ball values are immutable ints, and the LRU bookkeeping is
guarded by a lock.  Pickling drops the lock (process-pool workers
rebuild their own cache).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence

from repro.index.base import DistanceOracle, GraphLike
from repro.kernels import vec
from repro.obs.instruments import NULL_REGISTRY, InstrumentRegistry

__all__ = ["BallBitsetEngine", "DEFAULT_MAX_BALLS", "resolve_distance_engine"]

#: Default LRU budget: (vertex, k) balls kept resident.  At the bench
#: scales a ball is one int of |V| bits, so the default bounds the cache
#: at a few MB even on the largest profile.
DEFAULT_MAX_BALLS = 8192

#: Smallest mask width (bits) worth routing through the vectorized
#: decoder: below this the to_bytes/unpackbits round-trip costs more
#: than the isolate-lowest-bit loop it replaces.
VEC_DECODE_MIN_BITS = 512


class BallBitsetEngine:
    """Lazily-materialised k-hop ball bitsets over dense vertex ids.

    Parameters
    ----------
    oracle:
        The distance oracle answering cache misses.  The engine is a
        *view* over the oracle: every ball decodes to exactly
        ``oracle.within_k(vertex, k)``, so results are bit-identical to
        the oracle path by construction.
    max_balls:
        LRU memory budget (resident ``(vertex, k)`` balls).  ``0``
        disables caching: every call rebuilds from the oracle (the
        budget-exceeded fallback, exercised directly in tests).
    instruments:
        Registry receiving ``kernels.ball_builds``, ``kernels.ball_hits``,
        ``kernels.ball_evictions``, ``kernels.mask_filters`` and
        ``kernels.vec_sweeps``.  Local integer mirrors of the same
        counts are always kept (see :meth:`counters`) so benches can
        read them without a live registry.

    A missed ball is ``oracle.within_k(vertex, k)`` packed into an int,
    so every ball reads the oracle's graph as it is now (on an
    :class:`~repro.core.epoch.EpochGraphView`, the snapshot plus its
    pending delta).  Balls are packed and wide masks decoded by the
    numpy kernels of :mod:`repro.kernels.vec` when numpy is importable
    at construction (``backend == "numpy"``) and by their pure-python
    twins otherwise.  Both are bit-identical by construction; each
    vectorized sweep bumps the ``kernels.vec_sweeps`` counter.

    Examples
    --------
    >>> from repro.core.graph import AttributedGraph
    >>> from repro.index.bfs import BFSOracle
    >>> g = AttributedGraph(4, [(0, 1), (1, 2), (2, 3)])
    >>> engine = BallBitsetEngine(BFSOracle(g))
    >>> sorted(engine.decode(engine.ball(0, 2)))
    [1, 2]
    >>> engine.filter_candidates([1, 2, 3], 0, 2)
    [3]
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        *,
        max_balls: int = DEFAULT_MAX_BALLS,
        instruments: InstrumentRegistry = NULL_REGISTRY,
    ) -> None:
        if max_balls < 0:
            raise ValueError(f"max_balls must be >= 0, got {max_balls}")
        self.oracle = oracle
        self.max_balls = max_balls
        #: "numpy" when the vectorized kernels are importable, else
        #: "python".  Resolving it imports numpy; a numpy that fails to
        #: import leaves the engine on the scalar path.
        self.backend = "numpy" if vec.numpy_or_none() is not None else "python"
        self._balls: OrderedDict[tuple[int, int], int] = OrderedDict()
        self._version = oracle.graph.version
        self._lock = threading.Lock()
        self.ball_builds = 0
        self.ball_hits = 0
        self.ball_evictions = 0
        self.mask_filters = 0
        self.vec_sweeps = 0
        self._builds_counter = instruments.counter("kernels.ball_builds")
        self._hits_counter = instruments.counter("kernels.ball_hits")
        self._evictions_counter = instruments.counter("kernels.ball_evictions")
        self._filters_counter = instruments.counter("kernels.mask_filters")
        self._vec_counter = instruments.counter("kernels.vec_sweeps")

    # ------------------------------------------------------------------
    @property
    def graph(self) -> GraphLike:
        return self.oracle.graph

    def counters(self) -> dict[str, int]:
        """Snapshot of the kernel counters (flat, JSON-able)."""
        return {
            "ball_builds": self.ball_builds,
            "ball_hits": self.ball_hits,
            "ball_evictions": self.ball_evictions,
            "mask_filters": self.mask_filters,
            "vec_sweeps": self.vec_sweeps,
        }

    def __len__(self) -> int:
        """Resident balls (LRU occupancy)."""
        return len(self._balls)

    # ------------------------------------------------------------------
    # Ball materialisation
    # ------------------------------------------------------------------
    def ball(self, vertex: int, k: int) -> int:
        """Bitset of all vertices at distance ``1..k`` from *vertex*.

        The vertex itself is excluded, mirroring ``oracle.within_k``.
        ``k == 0`` is the empty ball.
        """
        if k <= 0:
            return 0
        graph = self.oracle.graph
        if graph.version != self._version:
            with self._lock:
                if graph.version != self._version:
                    # The graph mutated under us: every resident ball
                    # may describe edges that no longer exist.  Drop
                    # them all.
                    self._balls.clear()
                    self._version = graph.version
        key = (vertex, k)
        balls = self._balls
        bits = balls.get(key)
        if bits is not None:
            # The dict read itself stays lock-free (atomic under the
            # GIL), but the counter bump and the LRU touch share one
            # short critical section: `self.ball_hits += 1` is a
            # load/add/store that concurrent threads can interleave, which
            # used to lose increments and let counters() drift from the
            # obs registry.
            with self._lock:
                self.ball_hits += 1
                self._hits_counter.inc()
                # Recency order only matters once eviction is imminent,
                # so the touch is skipped while the cache is half empty.
                if len(balls) * 2 >= self.max_balls and key in balls:
                    balls.move_to_end(key)
            return bits
        used_vec = self.backend == "numpy"
        if used_vec:
            bits = vec.pack_vertices(
                self.oracle.within_k(vertex, k), graph.num_vertices
            )
        else:
            bits = 0
            for u in self.oracle.within_k(vertex, k):
                bits |= 1 << u
        with self._lock:
            self.ball_builds += 1
            self._builds_counter.inc()
            if used_vec:
                self.vec_sweeps += 1
                self._vec_counter.inc()
            if self.max_balls and graph.version == self._version:
                self._balls[key] = bits
                if len(self._balls) > self.max_balls:
                    self._balls.popitem(last=False)
                    self.ball_evictions += 1
                    self._evictions_counter.inc()
        return bits

    def blocked_mask(self, vertex: int, k: int) -> int:
        """The ball of *vertex* plus the vertex itself — everything a
        k-line filter against *vertex* removes."""
        return self.ball(vertex, k) | (1 << vertex)

    # ------------------------------------------------------------------
    # Dynamic maintenance (epoch mode)
    # ------------------------------------------------------------------
    def apply_edge_update(self, u: int, v: int) -> None:
        """Selective eviction after the edge ``(u, v)`` was added/removed.

        A resident ball ``B(c, k)`` can only change if the edit touches
        it: any new or destroyed path of length <= k through the edge
        puts an endpoint within k of ``c``, so a ball containing neither
        endpoint (and not centred on one) is unaffected at every k.
        Evicting just those keys — instead of the wholesale
        version-mismatch clear in :meth:`ball` — keeps a warm cache
        alive under a mutation stream.  Call *after* the graph mutation
        so the version stamp lands on the post-edit version.
        """
        graph = self.oracle.graph
        with self._lock:
            stale = [
                key
                for key, bits in self._balls.items()
                if key[0] == u or key[0] == v or (bits >> u) & 1 or (bits >> v) & 1
            ]
            for key in stale:
                del self._balls[key]
            self.ball_evictions += len(stale)
            self._evictions_counter.inc(len(stale))
            self._version = graph.version

    def sync_version(self) -> None:
        """Adopt the graph version after a ball-preserving mutation.

        Keyword edits and isolated-vertex appends change no distance, so
        every resident ball stays exact; only the version stamp must
        follow, lest the next :meth:`ball` call clear the cache
        wholesale.
        """
        graph = self.oracle.graph
        with self._lock:
            self._version = graph.version

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------
    @staticmethod
    def encode(vertices: Sequence[int]) -> int:
        """Bitset of a vertex collection."""
        bits = 0
        for v in vertices:
            bits |= 1 << v
        return bits

    @staticmethod
    def decode(mask: int) -> set[int]:
        """Vertex set of a bitset (isolate-lowest-bit loop)."""
        out: set[int] = set()
        while mask:
            low = mask & -mask
            out.add(low.bit_length() - 1)
            mask ^= low
        return out

    # ------------------------------------------------------------------
    # Bulk filtering (the solver hot path)
    # ------------------------------------------------------------------
    def filter_list(
        self,
        candidates: list[int],
        candidates_mask: int,
        member: int,
        k: int,
    ) -> tuple[list[int], int]:
        """Drop candidates within *k* hops of *member* (and *member*).

        Takes and returns the candidate list *together with* its bitset
        so callers threading masks through a recursion never re-encode.
        Relative order is preserved.  When nothing is removed the input
        list is returned unchanged (no copy) — on dense graphs most
        filters at depth are no-ops and this check is one big-int
        compare.
        """
        surviving = self.filter_mask(candidates_mask, member, k)
        if surviving == candidates_mask:
            return candidates, candidates_mask
        return self.select(candidates, candidates_mask, surviving), surviving

    def filter_mask(self, candidates_mask: int, member: int, k: int) -> int:
        """Mask-only half of :meth:`filter_list`: the surviving bitset,
        with no list rebuilt.  Callers that can prune on the popcount
        alone (fewer survivors than open group slots) skip the
        O(|candidates|) rebuild entirely — on dense graphs that is the
        common case and the bulk of the engine's speedup."""
        with self._lock:
            # Lock-protected like the ball counters: bare `+= 1` loses
            # increments under concurrent threads.
            self.mask_filters += 1
            self._filters_counter.inc()
        return candidates_mask & ~(self.ball(member, k) | (1 << member))

    def select(
        self, candidates: list[int], candidates_mask: int, surviving_mask: int
    ) -> list[int]:
        """Order-preserving restriction of *candidates* to
        *surviving_mask* (a subset of *candidates_mask*)."""
        # Decode whichever side is smaller — dense graphs remove almost
        # everything (decode the survivors), sparse ones almost nothing.
        removed_mask = candidates_mask & ~surviving_mask
        if surviving_mask.bit_count() <= removed_mask.bit_count():
            keep = self._decode_backend(surviving_mask)
            return [v for v in candidates if v in keep]
        dropped = self._decode_backend(removed_mask)
        return [v for v in candidates if v not in dropped]

    def _decode_backend(self, mask: int) -> set[int]:
        """Backend-aware :meth:`decode`: wide masks route through the
        vectorized unpackbits decoder, narrow ones keep the big-int
        loop (see :data:`VEC_DECODE_MIN_BITS`)."""
        if self.backend == "numpy" and mask.bit_length() >= VEC_DECODE_MIN_BITS:
            out = vec.decode_mask(mask)
            with self._lock:
                self.vec_sweeps += 1
                self._vec_counter.inc()
            return out
        return self.decode(mask)

    def filter_candidates(self, candidates: list[int], member: int, k: int) -> list[int]:
        """Oracle-compatible signature of :meth:`filter_list` (used for
        anchor exclusion and candidate-pool preparation, where no mask
        is threaded)."""
        filtered, _ = self.filter_list(
            list(candidates), self.encode(candidates), member, k
        )
        return filtered

    def exclusion_mask(self, anchors: Sequence[int], k: int) -> int:
        """OR of all anchors' blocked masks — one subtraction removes
        every candidate familiar with any anchor."""
        bits = 0
        for anchor in anchors:
            bits |= self.blocked_mask(anchor, k)
        return bits

    # ------------------------------------------------------------------
    # Pairwise checks
    # ------------------------------------------------------------------
    def is_tenuous(self, u: int, v: int, k: int) -> bool:
        """``dist(u, v) > k`` via one ball probe (oracle semantics)."""
        if u == v:
            return False
        return not (self.ball(u, k) >> v) & 1

    def new_member_tenuous(self, members_mask: int, vertex: int, k: int) -> bool:
        """Whether *vertex* is tenuous w.r.t. every member of an
        (already pairwise-tenuous) group given as a bitset."""
        return not self.ball(vertex, k) & members_mask

    def pairwise_tenuous(self, members: Sequence[int], k: int) -> bool:
        """Full pairwise tenuity of a group: no member's ball may touch
        another member.  Each pair is covered by the ball of its earlier
        member, so the last member needs no ball of its own."""
        if len(members) < 2:
            return True
        group_mask = self.encode(members)
        for m in members[:-1]:
            if self.ball(m, k) & group_mask:
                return False
        return True

    # ------------------------------------------------------------------
    # Pickling (process-pool workers): the lock is not picklable and the
    # ball cache is a per-process concern.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_lock"] = None
        state["_balls"] = OrderedDict()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return (
            f"BallBitsetEngine(oracle={type(self.oracle).__name__}, "
            f"balls={len(self._balls)}/{self.max_balls}, "
            f"builds={self.ball_builds}, hits={self.ball_hits})"
        )


def resolve_distance_engine(
    distance_engine: str,
    oracle: DistanceOracle,
    kernel: Optional[BallBitsetEngine],
) -> Optional[BallBitsetEngine]:
    """Shared constructor-time validation for every solver layer.

    Returns the kernel to use (``None`` for the oracle path).  Passing a
    prebuilt *kernel* implies the bitset engine; building one lazily
    happens only when ``distance_engine="bitset"`` and none was shared.
    """
    if distance_engine not in ("oracle", "bitset"):
        raise ValueError(
            f"distance_engine must be 'oracle' or 'bitset', got {distance_engine!r}"
        )
    if kernel is not None:
        if kernel.oracle is not oracle:
            raise ValueError(
                "the supplied kernel wraps a different oracle than the solver"
            )
        return kernel
    if distance_engine == "bitset":
        return BallBitsetEngine(oracle)
    return None
