"""Query-keyword coverage machinery (Definitions 5, 6 and 8 of the paper).

The query keyword set ``W_Q`` is small (4-8 keywords in the paper's
experiments, Table I), so per-vertex coverage is represented as an integer
bitmask over the *positions* of the query keywords.  With bitmasks,

* ``QKC(v)``  — query keyword coverage of a vertex (Definition 5) — is a
  popcount of ``mask(v)``;
* ``QKC(F)``  — coverage of a group (Definition 6) — is a popcount of the
  OR of member masks;
* ``VKC(v)``  — *valid* keyword coverage w.r.t. an intermediate result
  ``S_I`` (Definition 8) — is a popcount of ``mask(v) & ~covered(S_I)``.

All three are O(1) per vertex, which is what makes the branch-and-bound
inner loop viable in pure Python.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence

from repro.core.errors import QueryValidationError
from repro.core.graph import AttributedGraph

__all__ = ["CoverageContext", "popcount"]


def popcount(mask: int) -> int:
    """Deprecated alias for :meth:`int.bit_count`.

    .. deprecated::
        Call ``mask.bit_count()`` directly; this wrapper predates the
        minimum-supported Python gaining the builtin and will be removed.
    """
    warnings.warn(
        "repro.core.coverage.popcount is deprecated; use int.bit_count()",
        DeprecationWarning,
        stacklevel=2,
    )
    return mask.bit_count()


class CoverageContext:
    """Precomputed coverage bitmasks for one query keyword set on one graph.

    A context is built once per query and shared by the solver, the
    pruning rules and the result pool.  It freezes:

    * ``query_size`` — ``|W_Q|`` after deduplication;
    * ``full_mask`` — the all-ones mask ``(1 << query_size) - 1``;
    * a per-vertex mask table ``masks`` where bit ``i`` of ``masks[v]``
      is set iff vertex ``v`` carries the *i*-th query keyword.

    Parameters
    ----------
    graph:
        The attributed social network.
    query_keywords:
        Query keyword *labels*.  Labels unknown to the graph's keyword
        table still occupy a bit (they are coverable by nobody), because
        the denominator of QKC is the full ``|W_Q|`` (Definition 5).

    Examples
    --------
    >>> g = AttributedGraph(3, [(0, 1)], {0: ["SN", "QP"], 1: ["DQ"], 2: []})
    >>> ctx = CoverageContext(g, ["SN", "DQ", "GQ"])
    >>> ctx.vertex_coverage(0)  # covers SN only -> 1/3
    0.3333333333333333
    >>> ctx.group_coverage([0, 1])  # SN + DQ -> 2/3
    0.6666666666666666
    """

    __slots__ = (
        "graph",
        "query_labels",
        "query_size",
        "full_mask",
        "masks",
        "sort_tables",
        "__weakref__",
    )

    def __init__(self, graph: AttributedGraph, query_keywords: Sequence[str]) -> None:
        deduped: list[str] = []
        seen: set[str] = set()
        for label in query_keywords:
            if label not in seen:
                seen.add(label)
                deduped.append(label)
        if not deduped:
            raise QueryValidationError("query keyword set must not be empty")

        self.graph = graph
        self.query_labels: tuple[str, ...] = tuple(deduped)
        self.query_size = len(deduped)
        self.full_mask = (1 << self.query_size) - 1

        table = graph.keyword_table
        # keyword id -> bit position, for query keywords the graph knows.
        bit_of: dict[int, int] = {}
        for position, label in enumerate(deduped):
            keyword_id = table.get(label)
            if keyword_id is not None:
                bit_of[keyword_id] = position

        masks = [0] * graph.num_vertices
        if bit_of:
            for vertex in graph.vertices():
                mask = 0
                for keyword_id in graph.keywords_of(vertex):
                    position = bit_of.get(keyword_id)
                    if position is not None:
                        mask |= 1 << position
                masks[vertex] = mask
        self.masks: list[int] = masks
        #: Re-sort memo of the VKC strategies (see
        #: :mod:`repro.core.strategies`): ``(strategy, covered_mask)`` ->
        #: vertex -> sort key.  It lives and dies with this context.
        self.sort_tables: dict[tuple[object, int], dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Mask-level API (used by the solver hot path)
    # ------------------------------------------------------------------
    def mask_of(self, vertex: int) -> int:
        """Bitmask of query keywords carried by *vertex*."""
        return self.masks[vertex]

    def union_mask(self, vertices: Iterable[int]) -> int:
        """OR of the member masks of *vertices*."""
        masks = self.masks
        combined = 0
        for vertex in vertices:
            combined |= masks[vertex]
        return combined

    def valid_mask(self, vertex: int, covered_mask: int) -> int:
        """Mask of query keywords *vertex* adds on top of *covered_mask*."""
        return self.masks[vertex] & ~covered_mask

    # ------------------------------------------------------------------
    # Ratio-level API (Definitions 5, 6, 8)
    # ------------------------------------------------------------------
    def vertex_coverage(self, vertex: int) -> float:
        """``QKC(v)`` — Definition 5."""
        return self.masks[vertex].bit_count() / self.query_size

    def group_coverage(self, vertices: Iterable[int]) -> float:
        """``QKC(F)`` — Definition 6."""
        return self.union_mask(vertices).bit_count() / self.query_size

    def valid_coverage(self, vertex: int, intermediate: Iterable[int]) -> float:
        """``VKC(v)`` w.r.t. an intermediate result set — Definition 8."""
        covered = self.union_mask(intermediate)
        return self.valid_mask(vertex, covered).bit_count() / self.query_size

    def coverage_of_mask(self, mask: int) -> float:
        """Coverage ratio for a raw keyword mask."""
        return mask.bit_count() / self.query_size

    # ------------------------------------------------------------------
    # Candidate filtering
    # ------------------------------------------------------------------
    def qualified_vertices(self) -> list[int]:
        """Vertices covering at least one query keyword (``QKC(v) > 0``).

        This is the preprocessing step of Algorithm 1 ("remove the
        unqualified users whose keywords do not contain at least one
        query keyword").
        """
        return [v for v, mask in enumerate(self.masks) if mask]

    def labels_of_mask(self, mask: int) -> list[str]:
        """Decode a mask back to query keyword labels (in query order)."""
        return [
            label
            for position, label in enumerate(self.query_labels)
            if mask >> position & 1
        ]

    def __repr__(self) -> str:
        return (
            f"CoverageContext(|W_Q|={self.query_size}, "
            f"qualified={sum(1 for m in self.masks if m)}/{len(self.masks)})"
        )
