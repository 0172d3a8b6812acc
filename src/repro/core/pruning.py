"""Pruning and filtering rules of the branch-and-bound search.

Two rules from Section IV-A:

* **Keyword pruning** (Theorem 2) — an upper bound on the coverage any
  completion of the intermediate group can reach.  If the bound cannot
  beat the current ``C_max`` threshold, the whole branch is pruned.
* **k-line filtering** (Theorem 3) — when a vertex joins the
  intermediate group, every remaining candidate within ``k`` hops of it
  can never co-occur with it in a k-distance group and is dropped.
  The actual distance answering lives in the oracle
  (:meth:`repro.index.base.DistanceOracle.filter_candidates`); this
  module only hosts the bound math so it can be unit-tested in
  isolation.

Both bound variants implemented here are *admissible* (never below the
true best completion coverage), which the property tests check; an
inadmissible bound would silently drop optimal groups.
"""

from __future__ import annotations

import heapq

from repro.core.coverage import CoverageContext

__all__ = [
    "top_vkc_bound",
    "union_bound",
    "keyword_prune_bound",
    "keyword_prune_decision",
]


def top_vkc_bound(
    covered_mask: int,
    candidates: list[int],
    slots: int,
    context: CoverageContext,
    presorted_by_vkc: bool = False,
) -> float:
    """Theorem 2's bound: ``QKC(S_I) + sum of the top `slots` VKC values``.

    *covered_mask* is the keyword mask of the intermediate group,
    *candidates* the remaining set ``S_R`` and *slots* the number of
    members still to pick (``p - |S_I|``).  When *presorted_by_vkc* is
    true the first *slots* candidates already carry the largest VKC
    values, so no scan is needed — this is why the paper calls the
    pruning "not time-consuming" under VKC ordering.
    """
    masks = context.masks
    uncovered = ~covered_mask
    if presorted_by_vkc:
        head = candidates[:slots]
        vkc_sum = sum((masks[v] & uncovered).bit_count() for v in head)
    else:
        gains = ((masks[v] & uncovered).bit_count() for v in candidates)
        vkc_sum = sum(heapq.nlargest(slots, gains))
    return (covered_mask.bit_count() + vkc_sum) / context.query_size


def union_bound(covered_mask: int, candidates: list[int], context: CoverageContext) -> float:
    """A complementary admissible bound: coverage of *everything reachable*.

    The union of all remaining candidate masks caps the branch no matter
    how many slots remain.  It is tighter than :func:`top_vkc_bound`
    when candidate masks overlap heavily (the top-VKC sum double counts
    shared keywords) and looser when a few disjoint high-VKC candidates
    exist.  The solver takes the minimum of both when enabled.
    """
    masks = context.masks
    combined = covered_mask
    for v in candidates:
        combined |= masks[v]
    return combined.bit_count() / context.query_size


def keyword_prune_decision(
    covered_mask: int,
    candidates: list[int],
    slots: int,
    context: CoverageContext,
    presorted_by_vkc: bool = False,
    use_union_bound: bool = False,
) -> tuple[float, str]:
    """The bound the solver compares against ``C_max``, with attribution.

    Returns ``(bound, rule)`` where *rule* is ``"keyword"`` when the
    paper's Theorem 2 top-VKC bound decides, or ``"union"`` when the
    union-of-masks bound is strictly tighter (our extension; measured
    in the pruning ablation bench).  The attribution feeds the
    per-rule prune counters of :mod:`repro.obs`.
    """
    bound = top_vkc_bound(covered_mask, candidates, slots, context, presorted_by_vkc)
    rule = "keyword"
    if use_union_bound:
        alternative = union_bound(covered_mask, candidates, context)
        if alternative < bound:
            return alternative, "union"
    return bound, rule


def keyword_prune_bound(
    covered_mask: int,
    candidates: list[int],
    slots: int,
    context: CoverageContext,
    presorted_by_vkc: bool = False,
    use_union_bound: bool = False,
) -> float:
    """Bound-only convenience wrapper over :func:`keyword_prune_decision`."""
    return keyword_prune_decision(
        covered_mask,
        candidates,
        slots,
        context,
        presorted_by_vkc=presorted_by_vkc,
        use_union_bound=use_union_bound,
    )[0]
