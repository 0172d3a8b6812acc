"""Result model: groups and the bounded top-N result pool.

:class:`Group` is one feasible k-distance group with its coverage.
:class:`TopNPool` implements the paper's result-set semantics for
Algorithm 1 (``updateRS``): keep at most ``N`` groups; the pruning
threshold ``C_max`` is 0 until the pool is full and the N-th best
coverage afterwards; a new group enters only when its coverage is
*strictly* greater than ``C_max``.

The strictness matters.  In the paper's worked example (Section IV-A)
the first two feasible groups with coverage 0.8 fill the top-2 pool and
later groups that also reach 0.8 "cannot update the result groups" —
ties never displace earlier discoveries.  This makes the output of a
deterministic exploration order itself deterministic, which the tests
rely on.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["Group", "TopNPool"]


@dataclass(frozen=True, order=True, slots=True)
class Group:
    """One result group: a member tuple plus its query-keyword coverage.

    Ordering is by ``(coverage, members)`` so sorted output is stable.
    ``members`` is always a sorted tuple, so two groups with the same
    vertex set compare (and hash) equal regardless of discovery order.
    """

    coverage: float
    members: tuple[int, ...]

    @staticmethod
    def make(members: Iterable[int], coverage: float) -> "Group":
        """Build a group with canonically sorted members."""
        return Group(coverage=coverage, members=tuple(sorted(members)))

    @property
    def size(self) -> int:
        return len(self.members)

    def overlap(self, other: "Group") -> int:
        """Number of shared members with *other* (used by diversity math)."""
        return len(set(self.members) & set(other.members))

    def __str__(self) -> str:
        inner = ", ".join(f"u{m}" for m in self.members)
        return f"{{{inner}}} (coverage={self.coverage:.3f})"


class TopNPool:
    """Bounded pool of the best ``N`` groups found so far.

    Internally a min-heap keyed by ``(coverage, -insertion_sequence)``
    so that the *worst, newest-tied* group is evicted first — eviction
    only ever happens for strictly better coverage, and among
    coverage-tied worst groups the most recent discovery yields, so
    earlier discoveries are never displaced by anything they tie with.

    Examples
    --------
    >>> pool = TopNPool(2)
    >>> pool.threshold
    0.0
    >>> pool.offer((1, 2, 3), 0.8)
    True
    >>> pool.offer((1, 2, 4), 0.8)
    True
    >>> pool.threshold  # pool is full; C_max is now the 2nd-best coverage
    0.8
    >>> pool.offer((5, 6, 7), 0.8)  # tie with C_max: rejected
    False
    >>> pool.offer((5, 6, 7), 1.0)
    True
    >>> [g.coverage for g in pool.best()]
    [1.0, 0.8]
    """

    __slots__ = ("capacity", "_heap", "_members_seen", "_sequence")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Heap entries: (coverage, -seq, Group).  The negated sequence
        # breaks coverage ties in favour of keeping *earlier*
        # discoveries: among tied-worst entries the heap root is the
        # newest one, so a strictly better offer evicts the newest tie
        # and earlier discoveries survive ("ties never displace earlier
        # discoveries", Section IV-A).
        self._heap: list[tuple[float, int, Group]] = []
        self._members_seen: set[tuple[int, ...]] = set()
        self._sequence = itertools.count()

    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """``C_max``: 0.0 until full, then the N-th best coverage."""
        if len(self._heap) < self.capacity:
            return 0.0
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def is_full(self) -> bool:
        return len(self._heap) >= self.capacity

    # ------------------------------------------------------------------
    def offer(self, members: Iterable[int], coverage: float) -> bool:
        """Try to admit a feasible group; return whether it was admitted.

        Duplicate member sets are rejected regardless of coverage (a
        branch-and-bound tree can reach the same set along one path only,
        but greedy callers re-run searches and may re-surface groups).
        """
        group = Group.make(members, coverage)
        if group.members in self._members_seen:
            return False
        if not self.is_full():
            heapq.heappush(self._heap, (coverage, -next(self._sequence), group))
            self._members_seen.add(group.members)
            return True
        worst_coverage, _, worst_group = self._heap[0]
        if coverage <= worst_coverage:
            return False
        heapq.heapreplace(self._heap, (coverage, -next(self._sequence), group))
        self._members_seen.discard(worst_group.members)
        self._members_seen.add(group.members)
        return True

    def would_admit(self, coverage: float) -> bool:
        """Whether a group at *coverage* could currently enter the pool."""
        return not self.is_full() or coverage > self._heap[0][0]

    def best(self) -> list[Group]:
        """Return pool contents sorted by coverage descending.

        Ties are broken by discovery order (earlier first), then members.
        """
        entries = sorted(self._heap, key=lambda item: (-item[0], -item[1]))
        return [group for _, _, group in entries]

    def best_coverage(self) -> Optional[float]:
        """Coverage of the single best group, or ``None`` if empty."""
        if not self._heap:
            return None
        return max(coverage for coverage, _, _ in self._heap)

    def contains_members(self, members: Iterable[int]) -> bool:
        """Whether a group with exactly these members is pooled."""
        return tuple(sorted(members)) in self._members_seen

    def member_union(self) -> set[int]:
        """Union of all member ids across pooled groups (DKTG-Greedy uses
        this to exclude already-used reviewers)."""
        union: set[int] = set()
        for _, _, group in self._heap:
            union.update(group.members)
        return union

    def __repr__(self) -> str:
        return f"TopNPool({len(self._heap)}/{self.capacity}, C_max={self.threshold:.3f})"
