"""Candidate-ordering strategies for the branch-and-bound search.

The paper's three exact algorithms differ only in *how the remaining
candidate set ``S_R`` is ordered* before the next member is selected:

* **QKC** (Section IV-A, evaluated as KTG-QKC-*): sort once by static
  query-keyword coverage, never re-sort.  Cheap per node, but the head
  of ``S_R`` stops being the best "increment" as soon as keywords are
  covered.
* **VKC** (KTG-VKC-*): re-sort by *valid* keyword coverage — the new
  keywords a candidate would add on top of the intermediate group —
  every time the group grows (Definition 8).
* **VKC-DEG** (KTG-VKC-DEG-*): VKC order with vertex degree as the
  tie-break.  The paper motivates preferring *small* degree ("the
  smaller is the degree of a vertex, the more vertices are unfamiliar
  with this vertex") even though one sentence says "descending order";
  we follow the motivation and the worked example (ascending), and
  expose ``degree_order`` so the ablation bench can measure both.

A strategy is a small stateless object with two hooks: an initial
ordering of the qualified candidates, and a re-ordering applied after
each member joins ``S_I``.  Both receive plain vertex-id lists and the
current covered-keyword mask, so strategies compose with any distance
oracle.
"""

from __future__ import annotations

import abc
from typing import Callable, Literal

from repro.core.coverage import CoverageContext

__all__ = [
    "OrderingStrategy",
    "QKCOrdering",
    "VKCOrdering",
    "VKCDegreeOrdering",
    "strategy_by_name",
]


class OrderingStrategy(abc.ABC):
    """Orders the remaining candidate set ``S_R`` during the search."""

    #: Short name used in algorithm labels ("qkc", "vkc", "vkc-deg").
    name: str = "abstract"
    #: Whether :meth:`reorder` actually changes the order.  When False the
    #: solver skips re-sorting entirely (ordering is preserved by the
    #: filtering steps, which keep relative order).
    resorts: bool = True
    #: Whether every candidate list this strategy hands the solver is
    #: ordered by valid keyword coverage, descending, for the node's
    #: covered mask.  Only then may the solver take Theorem 2's bound as
    #: the head-sum and stop a leaf scan at the first completion the pool
    #: rejects; any other order (even one that re-sorts) needs the full
    #: scan to stay exact.
    vkc_descending: bool = False

    @abc.abstractmethod
    def initial_order(self, candidates: list[int], context: CoverageContext) -> list[int]:
        """Return *candidates* ordered for the root of the search tree."""

    def reorder(
        self, candidates: list[int], covered_mask: int, context: CoverageContext
    ) -> list[int]:
        """Return *candidates* ordered for a node whose intermediate group
        covers *covered_mask*.  Default: keep the incoming order."""
        return candidates

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class QKCOrdering(OrderingStrategy):
    """Static ordering by query keyword coverage, computed once.

    The paper discusses this as the cheap alternative to VKC sorting:
    "we only need to calculate query keyword coverage once for each
    vertex and only need sorting once", at the cost of weaker early
    solutions and weaker pruning.  Evaluated as KTG-QKC-NLRNL in
    Figure 3.
    """

    name = "qkc"
    resorts = False

    def initial_order(self, candidates: list[int], context: CoverageContext) -> list[int]:
        masks = context.masks
        return sorted(candidates, key=lambda v: -masks[v].bit_count())


class _MemoizedKeyOrdering(OrderingStrategy):
    """Re-sorting through a per-context table of sort keys.

    A VKC key depends only on the vertex and the covered mask, and one
    search re-sorts under the same few masks many times.  So the keys
    of the context's qualified vertices are computed once per
    ``(strategy, covered_mask)`` into ``context.sort_tables`` and each
    re-sort is a table lookup per element.  Same keys, same stable sort:
    the order is exactly that of sorting by :meth:`sort_key`.
    """

    def initial_order(self, candidates: list[int], context: CoverageContext) -> list[int]:
        return self.reorder(candidates, 0, context)

    def reorder(
        self, candidates: list[int], covered_mask: int, context: CoverageContext
    ) -> list[int]:
        table = context.sort_tables.get((self, covered_mask))
        if table is None:
            key = self.sort_key(covered_mask, context)
            qualified = context.qualified_vertices()
            table = dict(zip(qualified, map(key, qualified)))
            context.sort_tables[(self, covered_mask)] = table
        try:
            return sorted(candidates, key=table.__getitem__)
        except KeyError:
            # A candidate outside the qualified set: key it directly.
            return sorted(candidates, key=self.sort_key(covered_mask, context))

    @abc.abstractmethod
    def sort_key(self, covered_mask: int, context: CoverageContext) -> Callable[[int], int]:
        """The per-vertex sort key for a node covering *covered_mask*."""


class VKCOrdering(_MemoizedKeyOrdering):
    """Re-sort by valid keyword coverage after every member selection.

    This is the ordering of Algorithm 1 (KTG-VKC): the candidate that
    would add the most *uncovered* query keywords comes first, so a
    high-coverage feasible group is formed as early as possible and the
    keyword-pruning threshold rises quickly.
    """

    name = "vkc"
    vkc_descending = True

    def sort_key(self, covered_mask: int, context: CoverageContext) -> Callable[[int], int]:
        masks = context.masks
        uncovered = ~covered_mask
        return lambda v: -(masks[v] & uncovered).bit_count()


class VKCDegreeOrdering(_MemoizedKeyOrdering):
    """VKC ordering with vertex degree as the tie-break (Section IV-B).

    Parameters
    ----------
    degrees:
        Per-vertex degree table (indexed by vertex id), computed once —
        "the degree of a vertex does not change as the procedure
        proceeds, so the computational overhead is small".
    degree_order:
        ``"ascending"`` (default, the paper's motivation: low-degree
        vertices have fewer k-line conflicts, so feasible groups form
        earlier) or ``"descending"`` (the literal reading of one
        sentence in Section IV-B; measured in the ablation bench).
    """

    name = "vkc-deg"
    vkc_descending = True

    def __init__(
        self,
        degrees: list[int],
        degree_order: Literal["ascending", "descending"] = "ascending",
    ) -> None:
        if degree_order not in ("ascending", "descending"):
            raise ValueError(
                f"degree_order must be 'ascending' or 'descending', got {degree_order!r}"
            )
        self._degrees = degrees
        self._degree_sign = 1 if degree_order == "ascending" else -1
        self.degree_order = degree_order

    def sort_key(self, covered_mask: int, context: CoverageContext) -> Callable[[int], int]:
        masks = context.masks
        degrees = self._degrees
        sign = self._degree_sign
        uncovered = ~covered_mask
        # Single-int composite key: VKC dominates (shifted above any
        # realistic degree), signed degree breaks ties.  One int compare
        # per element is measurably cheaper than tuple keys in this hot
        # path.
        return lambda v: -((masks[v] & uncovered).bit_count() << 32) + sign * degrees[v]

    def __repr__(self) -> str:
        return f"VKCDegreeOrdering(degree_order={self.degree_order!r})"


def strategy_by_name(name: str, graph=None, **options) -> OrderingStrategy:
    """Instantiate an ordering strategy from its short name.

    ``"vkc-deg"`` needs the graph (for the degree table); the other two
    do not.  Extra keyword options are forwarded to the constructor.
    """
    normalized = name.lower().replace("_", "-")
    if normalized == "qkc":
        return QKCOrdering()
    if normalized == "vkc":
        return VKCOrdering()
    if normalized in ("vkc-deg", "vkcdeg", "deg"):
        if graph is None:
            raise ValueError("the 'vkc-deg' strategy requires the graph argument")
        return VKCDegreeOrdering(graph.degrees(), **options)
    raise ValueError(f"unknown ordering strategy {name!r}")
