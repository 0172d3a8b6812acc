"""Index cost accounting for the Figure 9 comparison.

:func:`measure_footprint` builds an oracle and reports the quantities
Figure 9 plots — stored entries (space proxy), estimated bytes, and
construction seconds.  Bytes are estimated analytically from the entry
count (pointer-sized slots plus per-set overhead) instead of
``sys.getsizeof`` recursion, so numbers are stable across interpreter
versions and reflect the structure the paper costs out (id lists).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.graph import AttributedGraph
from repro.index.base import DistanceOracle
from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.index.nlrnl import NLRNLIndex
from repro.index.pll import PLLIndex

__all__ = [
    "IndexFootprint",
    "adjacency_footprint_bytes",
    "measure_footprint",
    "oracle_by_name",
    "ORACLE_FACTORIES",
]

#: Estimated cost of one stored neighbour id (CPython small-int pointer
#: in a set, amortised with set over-allocation).
_BYTES_PER_ENTRY = 16


@dataclass(frozen=True)
class IndexFootprint:
    """Space and construction cost of one oracle on one graph."""

    oracle_name: str
    num_vertices: int
    num_edges: int
    entries: int
    estimated_bytes: int
    build_seconds: float

    @property
    def entries_per_vertex(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.entries / self.num_vertices

    def row(self) -> dict:
        """Flat dict for table/CSV rendering."""
        return {
            "oracle": self.oracle_name,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "entries": self.entries,
            "estimated_mb": self.estimated_bytes / (1024 * 1024),
            "build_seconds": self.build_seconds,
        }


ORACLE_FACTORIES: dict[str, Callable[[AttributedGraph], DistanceOracle]] = {
    "bfs": BFSOracle,
    "nl": NLIndex,
    "nlrnl": NLRNLIndex,
    "pll": PLLIndex,
}


def oracle_by_name(name: str, graph: AttributedGraph, **options) -> DistanceOracle:
    """Instantiate an oracle by its short name ("bfs", "nl", "nlrnl")."""
    normalized = name.lower()
    factory = ORACLE_FACTORIES.get(normalized)
    if factory is None:
        raise ValueError(
            f"unknown oracle {name!r}; expected one of {sorted(ORACLE_FACTORIES)}"
        )
    return factory(graph, **options)


def measure_footprint(
    graph: AttributedGraph,
    oracle_name: str,
    oracle: Optional[DistanceOracle] = None,
) -> IndexFootprint:
    """Build (or reuse) an oracle and report its footprint.

    When *oracle* is given it must already be built on *graph*; its
    recorded build time is reused.  Otherwise the oracle is constructed
    here and timed end to end (construction includes any auto parameter
    selection, matching how Figure 9(b) times index building).
    """
    if oracle is None:
        started = time.perf_counter()
        oracle = oracle_by_name(oracle_name, graph)
        build_seconds = time.perf_counter() - started
    else:
        build_seconds = oracle.stats.build_seconds
    return IndexFootprint(
        oracle_name=oracle_name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        entries=oracle.stats.entries,
        estimated_bytes=oracle.stats.entries * _BYTES_PER_ENTRY,
        build_seconds=build_seconds,
    )


def adjacency_footprint_bytes(graph: AttributedGraph) -> int:
    """Estimate the resident bytes of the graph's ``list[set[int]]`` adjacency.

    Sums ``sys.getsizeof`` over the outer list and every neighbour set,
    plus 28 bytes per stored endpoint for the boxed ints themselves
    (small-int interning makes this an upper bound on real graphs).
    Printed by ``ktg stats`` beside the index footprints.
    """
    adjacency = graph.adjacency_view()
    total = sys.getsizeof(adjacency)
    for row in adjacency:
        total += sys.getsizeof(row) + 28 * len(row)
    return total
