"""Mutation gate: serve solves while the graph mutates.

The paper maintains its distance index under edge updates instead of
rebuilding it (Section V-B dynamic maintenance).  A mutable
:class:`repro.service.QueryService` does the same through
:class:`EpochManager`:

* every mutation is validated against the live graph first (self-loop,
  duplicate or missing edge, closed manager: typed errors, graph
  unchanged);
* the edit runs under the write side of a writer-priority gate.  The
  registered distance oracle drives it, so the oracle repairs its
  labels incrementally, and then the ball kernel evicts only the balls
  the edit can touch.  Each repair bumps ``epoch.repairs``;
* solves hold the read side for their whole search, so no solve ever
  sees a half-applied mutation or a mid-repair index, and the next
  solve after a mutation reads the new ``graph.version``.

The protocol is documented in the "Mutations" section of
``docs/service.md``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Iterable,
    Iterator,
    Optional,
)

from repro.core.errors import EpochError, GraphConstructionError
from repro.core.graph import AttributedGraph
from repro.obs.instruments import NULL_REGISTRY, InstrumentRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.base import DistanceOracle
    from repro.kernels.engine import BallBitsetEngine

__all__ = ["EpochManager", "counter_totals"]


# ----------------------------------------------------------------------
# Module-level counters (``epoch.*`` observability family)
# ----------------------------------------------------------------------
_COUNTER_LOCK = threading.Lock()
# Only ``repairs`` still counts.  ``perfbench/run.py`` reads all four
# keys, so the three retired ones stay at 0 until the next benchmark
# change drops them (ROADMAP item 8).
_TOTALS = {"rotations": 0, "delta_reads": 0, "lease_waits": 0, "repairs": 0}


def counter_totals() -> dict[str, int]:
    """Process-wide ``epoch.*`` totals (only ``repairs`` is ever non-zero)."""
    with _COUNTER_LOCK:
        return dict(_TOTALS)


# ----------------------------------------------------------------------
# Reader/writer gate
# ----------------------------------------------------------------------
class _ReadWriteGate:
    """Writer-priority reader-writer lock (non-reentrant).

    Solves hold the read side for their whole search so they never
    observe a half-applied mutation or a mid-repair oracle; mutations
    hold the write side.  Writers have priority: a waiting writer
    blocks *new* readers, so a steady query stream cannot starve the
    mutation path.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


# ----------------------------------------------------------------------
# Manager
# ----------------------------------------------------------------------
class EpochManager:
    """Owns the live graph's mutation path.

    Parameters
    ----------
    graph:
        The live :class:`AttributedGraph`.  Once a manager exists every
        mutation must go through it: a direct ``graph.add_edge`` would
        bypass the gate and leave the oracle unrepaired.
    instruments:
        Registry for the ``epoch.repairs`` counter.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        *,
        instruments: InstrumentRegistry = NULL_REGISTRY,
    ) -> None:
        self.graph = graph
        self._instruments = instruments
        self._gate = _ReadWriteGate()
        self._oracle_provider: Optional[Callable[[], Optional["DistanceOracle"]]] = None
        self._kernel_provider: Optional[Callable[[], Optional["BallBitsetEngine"]]] = None
        self._repairs = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Repair-target registration (set by QueryService)
    # ------------------------------------------------------------------
    def set_repair_targets(
        self,
        oracle_provider: Optional[Callable[[], Optional["DistanceOracle"]]] = None,
        kernel_provider: Optional[Callable[[], Optional["BallBitsetEngine"]]] = None,
    ) -> None:
        """Register callables yielding the live oracle/kernel to repair.

        Providers return ``None`` while the structure is not built yet;
        mutations then fall back to plain graph edits (there is nothing
        to repair).
        """
        self._oracle_provider = oracle_provider
        self._kernel_provider = kernel_provider

    def _current_oracle(self) -> Optional["DistanceOracle"]:
        return self._oracle_provider() if self._oracle_provider is not None else None

    def _current_kernel(self) -> Optional["BallBitsetEngine"]:
        return self._kernel_provider() if self._kernel_provider is not None else None

    # ------------------------------------------------------------------
    # Mutation API (the only legal write path)
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``(u, v)`` and repair the oracle, then the kernel."""
        with self._gate.write():
            self._check_open()
            if u == v:
                raise GraphConstructionError(f"self-loop on vertex {u} is not allowed")
            if self.graph.has_edge(u, v):
                raise GraphConstructionError(f"duplicate edge ({u}, {v})")
            oracle = self._current_oracle()
            if oracle is not None:
                # The oracle drives the mutation so it can snapshot
                # pre-mutation distances for its affected-label rule.
                oracle.insert_edge(u, v)
                self._count_repair()
            else:
                self.graph.add_edge(u, v)
            self._repair_kernel_edge(u, v)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)`` and repair the oracle, then the kernel."""
        with self._gate.write():
            self._check_open()
            if not self.graph.has_edge(u, v):
                raise GraphConstructionError(f"edge ({u}, {v}) does not exist")
            oracle = self._current_oracle()
            if oracle is not None:
                oracle.delete_edge(u, v)
                self._count_repair()
            else:
                self.graph.remove_edge(u, v)
            self._repair_kernel_edge(u, v)

    def set_keywords(self, vertex: int, labels: Iterable[str]) -> None:
        """Replace *vertex*'s keywords.  Distances are unaffected, so the
        oracle/kernel only resync their version stamps (no eviction)."""
        with self._gate.write():
            self._check_open()
            self.graph.set_keywords(vertex, labels)
            oracle = self._current_oracle()
            if oracle is not None:
                oracle.note_keywords_changed()
                self._count_repair()
            kernel = self._current_kernel()
            if kernel is not None:
                kernel.sync_version()

    def add_vertex(self, labels: Iterable[str] = ()) -> int:
        """Append a new isolated vertex; return its dense id."""
        with self._gate.write():
            self._check_open()
            oracle = self._current_oracle()
            if oracle is not None:
                vertex = oracle.insert_vertex(labels)
                self._count_repair()
            else:
                vertex = self.graph.add_vertex(labels)
            kernel = self._current_kernel()
            if kernel is not None:
                kernel.sync_version()
        return vertex

    def _repair_kernel_edge(self, u: int, v: int) -> None:
        kernel = self._current_kernel()
        if kernel is not None:
            kernel.apply_edge_update(u, v)
            self._count_repair()

    def _count_repair(self) -> None:
        # Called under the write gate, so the per-manager count needs no
        # lock of its own; the process-wide total does.
        self._repairs += 1
        with _COUNTER_LOCK:
            _TOTALS["repairs"] += 1
        self._instruments.counter("epoch.repairs").inc()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def read(self) -> ContextManager[None]:
        """Solve-consistency gate: hold for the duration of one solve."""
        return self._gate.read()

    @property
    def repairs(self) -> int:
        """Incremental oracle/kernel repairs this manager has applied."""
        return self._repairs

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Reject every later mutation and drop the repair targets
        (idempotent).

        The providers are usually bound methods of the owning service,
        which holds this manager: clearing them breaks that cycle, so a
        closed service is freed by reference counting alone, not at the
        next cyclic garbage collection.
        """
        self._closed = True
        self._oracle_provider = None
        self._kernel_provider = None

    def _check_open(self) -> None:
        if self._closed:
            raise EpochError("EpochManager is closed")

    def __enter__(self) -> "EpochManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EpochManager(repairs={self._repairs}"
            f"{', closed' if self._closed else ''})"
        )
