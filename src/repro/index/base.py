"""Distance-oracle interface used by k-line filtering.

Every KTG algorithm repeatedly asks one question (Section V): *is the
social distance between two members greater than the tenuity constraint
k?*  :class:`DistanceOracle` is the abstract answer-provider; three
implementations exist:

* :class:`repro.index.bfs.BFSOracle` — no precomputation, cutoff BFS per
  query (the "no index" baseline);
* :class:`repro.index.nl.NLIndex` — h-hop neighbour lists with on-demand
  frontier expansion (Section V-A);
* :class:`repro.index.nlrnl.NLRNLIndex` — (c-1)-hop lists plus reverse
  c-hop lists with id-halved storage (Section V-B).

Oracles also expose :meth:`DistanceOracle.within_k` (the vertex set at
distance <= k of a vertex) because incremental k-line filtering is far
cheaper as one bulk set operation than as |S_R| pairwise probes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Union

from repro.core.graph import AttributedGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.csr import CsrGraphView

#: Graphs an oracle can be bound to: the mutable adjacency graph or a
#: frozen CSR view (a local snapshot, or one attached from shared
#: memory by name; see repro.core.csr).
GraphLike = Union[AttributedGraph, "CsrGraphView"]

__all__ = ["DistanceOracle", "OracleStats", "GraphLike"]


@dataclass
class OracleStats:
    """Counters an oracle keeps about its own usage and footprint.

    ``entries`` is the number of (vertex, neighbour) pairs stored, the
    unit Figure 9(a) compares; ``build_seconds`` is construction time,
    the unit of Figure 9(b).  ``probes`` counts pairwise distance checks
    answered, and ``expansions`` counts on-demand frontier expansions
    (only the NL index performs these).

    ``memo_hits`` / ``memo_misses`` count probes answered from the
    oracle's fast path versus its slow path — the BFS frontier memo,
    NL's stored levels vs on-demand expansion, NLRNL's depth maps vs
    the missing-pair convention, PLL's common-landmark lookups.  What
    counts as a "hit" is oracle-specific; the ratio is what the
    instrument report surfaces.
    """

    entries: int = 0
    build_seconds: float = 0.0
    probes: int = 0
    expansions: int = 0
    extra: dict = field(default_factory=dict)
    memo_hits: int = 0
    memo_misses: int = 0
    #: Memo entries dropped by the LRU size budget (BFS frontier memo).
    memo_evictions: int = 0

    @property
    def memo_hit_rate(self) -> float:
        """Fast-path fraction of classified probes (0.0 when none)."""
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    def reset_usage(self) -> None:
        """Zero the per-run counters, keeping build-time figures."""
        self.probes = 0
        self.expansions = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0


class DistanceOracle(abc.ABC):
    """Answers "is ``dist(u, v) > k``?" for a fixed attributed graph.

    Subclasses must be consistent with plain BFS on the graph passed at
    construction; the property-based tests enforce this.  An oracle is
    bound to one graph *version* — if the graph mutates, the oracle must
    either be rebuilt or support :meth:`apply_edge_insert` /
    :meth:`apply_edge_delete`.
    """

    #: Short name used in benchmark output ("bfs", "nl", "nlrnl").
    name: str = "abstract"

    def __init__(self, graph: GraphLike) -> None:
        self.graph = graph
        self.stats = OracleStats()
        self._built_version = graph.version

    # ------------------------------------------------------------------
    # Required interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def is_tenuous(self, u: int, v: int, k: int) -> bool:
        """Return ``True`` iff ``dist(u, v) > k`` (Definition 2 negated).

        ``u == v`` has distance 0 and is therefore never tenuous for
        ``k >= 0``.  Unreachable pairs have infinite distance and are
        always tenuous.
        """

    @abc.abstractmethod
    def within_k(self, vertex: int, k: int) -> set[int]:
        """Return all vertices at distance ``1..k`` from *vertex*.

        The vertex itself is excluded.  k-line filtering subtracts this
        set from the candidate pool whenever *vertex* joins the partial
        group.
        """

    # ------------------------------------------------------------------
    # Bulk filtering (the k-line filtering primitive, Theorem 3)
    # ------------------------------------------------------------------
    def filter_candidates(self, candidates: list[int], member: int, k: int) -> list[int]:
        """Return the candidates whose distance to *member* exceeds *k*.

        This is exactly the k-line filtering step: when *member* joins
        the intermediate group, every remaining candidate forming a
        k-line with it is dropped.  The default computes *member*'s
        k-ball once via :meth:`within_k` and drops candidates with one
        set subtraction — ``|candidates|`` pairwise ``is_tenuous``
        probes would re-derive that ball from scratch each time.
        Oracles whose ``within_k`` is itself O(n) probing override this:
        NLRNL with cached per-member keep-rows, PLL with an inlined
        pairwise loop.
        """
        self.stats.probes += len(candidates)
        if k == 0:
            return [v for v in candidates if v != member]
        blocked = self.within_k(member, k)
        return [v for v in candidates if v != member and v not in blocked]

    # ------------------------------------------------------------------
    # Dynamic maintenance (Section V-B).
    #
    # The oracle drives the graph mutation so it can snapshot whatever
    # pre-mutation state (e.g. old BFS distances) its incremental update
    # rule needs.  The default implementation falls back to a full
    # rebuild, which is always correct.
    # ------------------------------------------------------------------
    def supports_incremental_updates(self) -> bool:
        """Whether edge edits are handled incrementally (vs full rebuild)."""
        return False

    def insert_edge(self, u: int, v: int) -> None:
        """Add edge ``(u, v)`` to the graph and update the index."""
        self.graph.add_edge(u, v)
        self.rebuild()

    def delete_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)`` from the graph and update the index."""
        self.graph.remove_edge(u, v)
        self.rebuild()

    def insert_vertex(self, labels: Iterable[str] = ()) -> int:
        """Append an isolated vertex to the graph and update the index.

        The default rebuilds; indexes with per-vertex state override it
        to append an empty entry instead (an isolated vertex changes no
        existing distance).
        """
        vertex = self.graph.add_vertex(labels)
        self.rebuild()
        return vertex

    def note_keywords_changed(self) -> None:
        """Resync after a keyword-only graph mutation.

        Every oracle here stores distances, not keywords, so a
        ``set_keywords`` bump never invalidates index state — only the
        version stamp needs to follow, lest :meth:`is_stale` trigger a
        pointless full rebuild.
        """
        self._built_version = self.graph.version

    def rebuild(self) -> None:
        """Recompute all index state from the current graph."""
        self._built_version = self.graph.version

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def is_stale(self) -> bool:
        """Whether the graph has mutated since this oracle was built."""
        return self.graph.version != self._built_version

    def check_k(self, k: int) -> None:
        if k < 0:
            raise ValueError(f"tenuity constraint k must be >= 0, got {k}")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(graph={self.graph!r}, "
            f"entries={self.stats.entries})"
        )
