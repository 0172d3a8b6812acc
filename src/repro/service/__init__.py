"""Batch query serving layer (production-scale path of the ROADMAP).

The solver layer answers one query at a time; deployments answer
*traffic*.  This package adds the serving machinery around the exact
KTG/DKTG solvers:

* :class:`~repro.service.service.QueryService` — answers queries and
  batches against one shared graph + prebuilt oracle; a batch's
  distinct cache misses go to one process per usable CPU when there is
  more than one;
* :class:`~repro.service.cache.ResultCache` — an LRU result cache keyed
  by ``(graph.version, canonical query)`` so repeated queries are
  amortised and graph mutations implicitly invalidate stale entries;
* :class:`~repro.service.service.ServiceResult` /
  :class:`~repro.service.service.ServiceStats` — per-query provenance
  (exactness, budget exhaustion, cache hit, latency) and aggregate
  serving metrics (hit rate, p50/p95/p99 latency, degraded count);
* :class:`~repro.service.registry.GraphRegistry` — many named graphs in
  one process, each with its own service and a stable ``graph_id``.

See ``docs/service.md`` for the architecture and degradation semantics.
"""

from repro.service.cache import CacheStats, ResultCache, canonical_query_key
from repro.service.registry import GraphRegistry, RegisteredGraph
from repro.service.service import QueryService, ServiceResult, ServiceStats

__all__ = [
    "CacheStats",
    "ResultCache",
    "canonical_query_key",
    "GraphRegistry",
    "RegisteredGraph",
    "QueryService",
    "ServiceResult",
    "ServiceStats",
]
