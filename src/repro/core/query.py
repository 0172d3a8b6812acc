"""Query objects for KTG and DKTG (Definitions 7 and 10).

A :class:`KTGQuery` is the 4-tuple ``<W_Q, p, k, N>`` of the paper:

* ``keywords`` — the query keyword set ``W_Q`` (labels);
* ``group_size`` — ``p``, the exact number of members per group;
* ``tenuity`` — ``k``, the social constraint (all pairwise hop distances
  in a result group must exceed ``k``);
* ``top_n`` — ``N``, how many groups to return.

:class:`DKTGQuery` adds the diversification weight ``gamma`` from
Equation (4): ``score(RG) = gamma * min QKC(g) + (1-gamma) * dL(RG)``.

Both are frozen, slotted dataclasses: queries are values, safe to hash,
reuse and log, and a retained query carries no per-instance ``__dict__``.
Validation happens in ``__post_init__`` so an invalid query can never be
constructed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.errors import QueryValidationError

if TYPE_CHECKING:
    from repro.core.coverage import CoverageContext

__all__ = ["KTGQuery", "DKTGQuery", "DEFAULT_GROUP_SIZE", "DEFAULT_TENUITY", "DEFAULT_TOP_N"]

# Defaults from Table I of the paper (bold entries).
DEFAULT_GROUP_SIZE = 3
DEFAULT_TENUITY = 2
DEFAULT_TOP_N = 3

#: Live coverage contexts by ``(id(graph), graph.version, keywords)``;
#: see :meth:`KTGQuery.cached_context`.
_CONTEXTS: "weakref.WeakValueDictionary[tuple, CoverageContext]" = (
    weakref.WeakValueDictionary()
)


@dataclass(frozen=True, slots=True)
class KTGQuery:
    """A keyword-based tenuous group query ``<W_Q, p, k, N>``.

    Examples
    --------
    >>> q = KTGQuery(keywords=("SN", "QP", "DQ"), group_size=3, tenuity=1, top_n=2)
    >>> q.group_size
    3
    >>> KTGQuery(keywords=(), group_size=3)
    Traceback (most recent call last):
        ...
    repro.core.errors.QueryValidationError: query keyword set must not be empty
    """

    keywords: tuple[str, ...]
    group_size: int = DEFAULT_GROUP_SIZE
    tenuity: int = DEFAULT_TENUITY
    top_n: int = DEFAULT_TOP_N
    #: Optional "author" vertices (Section IV-B, Discussion): result members
    #: must additionally be at social distance > k from every one of these.
    excluded_anchors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.keywords, tuple):
            object.__setattr__(self, "keywords", tuple(self.keywords))
        if not self.keywords:
            raise QueryValidationError("query keyword set must not be empty")
        if any(not isinstance(label, str) or not label for label in self.keywords):
            raise QueryValidationError("query keywords must be non-empty strings")
        if self.group_size < 1:
            raise QueryValidationError(
                f"group size p must be >= 1, got {self.group_size}"
            )
        if self.tenuity < 0:
            raise QueryValidationError(
                f"tenuity constraint k must be >= 0, got {self.tenuity}"
            )
        if self.top_n < 1:
            raise QueryValidationError(f"top_n N must be >= 1, got {self.top_n}")
        if not isinstance(self.excluded_anchors, tuple):
            object.__setattr__(self, "excluded_anchors", tuple(self.excluded_anchors))

    @property
    def keyword_set(self) -> frozenset[str]:
        """The deduplicated query keyword set."""
        return frozenset(self.keywords)

    def with_(self, **changes) -> "KTGQuery":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    def cached_context(self, graph) -> "CoverageContext":
        """A :class:`repro.core.coverage.CoverageContext` for this query
        on *graph*, memoised per ``(graph, graph.version, keywords)``.

        The packed keyword masks (and the re-sort memo cached inside
        the context) are a pure function of that triple, so repeat solves of the same keywords —
        DKTG-Greedy rounds, warm service traffic — skip the per-solve
        re-pack.  The memo holds contexts weakly: it never extends a
        context's lifetime (solvers keep the last context alive between
        solves), and it stores nothing on the query, so a retained query
        costs no memo bytes and pickles as its fields.  A graph mutation
        changes ``graph.version`` and misses the memo.
        """
        key = (id(graph), getattr(graph, "version", None), self.keywords)
        context = _CONTEXTS.get(key)
        # A live context keeps its graph alive, so its id cannot have
        # been reused; the identity check only guards the invariant.
        if context is not None and context.graph is graph:
            return context
        from repro.core.coverage import CoverageContext

        context = CoverageContext(graph, self.keywords)
        _CONTEXTS[key] = context
        return context

    def describe(self) -> str:
        """One-line human-readable rendering used by the CLI and examples."""
        parts = [
            f"W_Q={{{', '.join(self.keywords)}}}",
            f"p={self.group_size}",
            f"k={self.tenuity}",
            f"N={self.top_n}",
        ]
        if self.excluded_anchors:
            parts.append(f"anchors={list(self.excluded_anchors)}")
        return "KTG<" + ", ".join(parts) + ">"


@dataclass(frozen=True, slots=True)
class DKTGQuery(KTGQuery):
    """A diversified KTG query (Definition 10).

    ``gamma`` weighs keyword coverage against diversity in Equation (4);
    the paper's case study uses ``gamma = 0.5``.
    """

    gamma: float = 0.5

    def __post_init__(self) -> None:
        # Explicit base call: ``slots=True`` rebuilds the class, which
        # breaks zero-argument ``super()`` before Python 3.14.
        KTGQuery.__post_init__(self)
        if not 0.0 <= self.gamma <= 1.0:
            raise QueryValidationError(
                f"gamma must be within [0, 1], got {self.gamma}"
            )

    def base_query(self) -> KTGQuery:
        """The underlying KTG query with diversification stripped."""
        return KTGQuery(
            keywords=self.keywords,
            group_size=self.group_size,
            tenuity=self.tenuity,
            top_n=self.top_n,
            excluded_anchors=self.excluded_anchors,
        )

    def describe(self) -> str:
        return KTGQuery.describe(self).replace("KTG<", "DKTG<", 1)[:-1] + f", gamma={self.gamma}>"
