"""Inverted keyword index: fast coverage contexts for query batches.

Building a :class:`~repro.core.coverage.CoverageContext` scans every
vertex's keyword set — O(n · avg keywords) per query.  A service
answering many queries on one graph (the paper's 100-query workloads,
the CLI, the DKTG rounds) should pay that scan once:
:class:`KeywordIndex` materialises the **inverted lists**
``keyword -> [vertices carrying it]`` and then builds each query's
context in O(Σ |list(w)| for w in W_Q) — proportional to the matching
vertices only.

The resulting contexts are bit-for-bit identical to directly
constructed ones (a property test asserts this), so every solver works
unchanged; :meth:`KeywordIndex.context_for` is a drop-in replacement
for the ``CoverageContext`` constructor.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.coverage import CoverageContext
from repro.core.errors import QueryValidationError
from repro.core.graph import AttributedGraph

__all__ = ["KeywordIndex"]


class KeywordIndex:
    """Inverted ``keyword label -> vertex list`` index over one graph.

    Examples
    --------
    >>> graph = AttributedGraph(3, [], {0: ["a"], 1: ["a", "b"], 2: ["b"]})
    >>> index = KeywordIndex(graph)
    >>> index.vertices_with("a")
    (0, 1)
    >>> context = index.context_for(["a", "b"])
    >>> context.qualified_vertices()
    [0, 1, 2]
    """

    def __init__(self, graph: AttributedGraph) -> None:
        self.graph = graph
        self._built_version = graph.version
        table = graph.keyword_table
        postings: dict[str, list[int]] = {}
        for vertex in graph.vertices():
            for keyword_id in graph.keywords_of(vertex):
                postings.setdefault(table.label(keyword_id), []).append(vertex)
        self._postings: dict[str, tuple[int, ...]] = {
            label: tuple(sorted(vertices)) for label, vertices in postings.items()
        }

    # ------------------------------------------------------------------
    def is_stale(self) -> bool:
        """Whether the graph mutated since this index was built."""
        return self.graph.version != self._built_version

    def vertices_with(self, label: str) -> tuple[int, ...]:
        """Vertices carrying *label* (empty tuple when nobody does)."""
        return self._postings.get(label, ())

    def document_frequency(self, label: str) -> int:
        """How many vertices carry *label* (selectivity statistic)."""
        return len(self._postings.get(label, ()))

    def labels(self) -> list[str]:
        """All labels present on at least one vertex."""
        return sorted(self._postings)

    # ------------------------------------------------------------------
    def context_for(self, query_keywords: Sequence[str]) -> CoverageContext:
        """Build a coverage context touching only the matching vertices.

        Equivalent to ``CoverageContext(graph, query_keywords)`` but
        O(matching vertices) instead of O(all vertices); raises
        :class:`QueryValidationError` on an empty keyword set, like the
        direct constructor.
        """
        deduped: list[str] = []
        seen: set[str] = set()
        for label in query_keywords:
            if label not in seen:
                seen.add(label)
                deduped.append(label)
        if not deduped:
            raise QueryValidationError("query keyword set must not be empty")

        context = CoverageContext.__new__(CoverageContext)
        context.graph = self.graph
        context.query_labels = tuple(deduped)
        context.query_size = len(deduped)
        context.full_mask = (1 << len(deduped)) - 1
        masks = [0] * self.graph.num_vertices
        for position, label in enumerate(deduped):
            bit = 1 << position
            for vertex in self._postings.get(label, ()):
                masks[vertex] |= bit
        context.masks = masks
        context.sort_tables = {}
        return context

    def qualified_count(self, query_keywords: Sequence[str]) -> int:
        """Number of vertices covering >= 1 of *query_keywords*.

        Cheaper than building a context when only the count matters
        (e.g. workload answerability checks).
        """
        qualified: set[int] = set()
        for label in dict.fromkeys(query_keywords):
            qualified.update(self._postings.get(label, ()))
        return len(qualified)

    def __repr__(self) -> str:
        return (
            f"KeywordIndex({len(self._postings)} labels over "
            f"{self.graph.num_vertices} vertices)"
        )
