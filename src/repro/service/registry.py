"""Multi-graph registry: many named graphs, each with its own service.

One process can now serve several tenants: each registered graph gets
its own :class:`~repro.service.QueryService` (own result cache, own
solver engines, own mutation gate when mutable) and a **stable
``graph_id``** of the form ``"{name}#{generation}"``.  The generation
counter bumps every time a name is (re)loaded, so a dropped-and-
reloaded tenant can never be served another incarnation's cached
groups even though both graphs start at ``version == 0`` — the
cross-tenant collision the ``graph_id`` cache keys exist to prevent.

The registry is thread-safe: the HTTP server loads and drops graphs
from solver-pool threads while the event loop routes solves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.errors import RegistryError, UnknownGraphError
from repro.core.graph import AttributedGraph
from repro.obs.instruments import NULL_REGISTRY, InstrumentRegistry

__all__ = ["GraphRegistry", "RegisteredGraph"]


@dataclass
class RegisteredGraph:
    """One registry entry: the graph, its service, and its provenance."""

    name: str
    profile: Optional[str]
    scale: float
    seed: Optional[int]
    generation: int
    graph: AttributedGraph
    service: "object"  # QueryService; typed loosely to avoid an import cycle

    @property
    def graph_id(self) -> str:
        return f"{self.name}#{self.generation}"

    def describe(self) -> dict:
        """JSON-shaped summary (the ``GET /graphs`` payload row)."""
        return {
            "name": self.name,
            "graph_id": self.graph_id,
            "profile": self.profile,
            "scale": self.scale,
            "seed": self.seed,
            "generation": self.generation,
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "version": self.graph.version,
            "algorithm": self.service.spec.name,  # type: ignore[attr-defined]
        }


class GraphRegistry:
    """Name -> (graph, :class:`~repro.service.QueryService`) with lifecycle.

    *service_defaults* are forwarded to every service constructed by
    :meth:`load` (per-load overrides win).  Dropping or reloading a name
    closes the old service — draining its pools and releasing any
    shared-memory segments — before the name is reused.
    """

    def __init__(
        self,
        *,
        instruments: InstrumentRegistry = NULL_REGISTRY,
        **service_defaults: object,
    ) -> None:
        self.instruments = instruments
        self._defaults = dict(service_defaults)
        self._entries: dict[str, RegisteredGraph] = {}
        self._generations: dict[str, int] = {}
        self._lock = threading.Lock()
        self._loaded_counter = instruments.counter("registry.graphs_loaded")
        self._dropped_counter = instruments.counter("registry.graphs_dropped")

    # ------------------------------------------------------------------
    def load(
        self,
        name: str,
        profile: Optional[str] = None,
        *,
        scale: float = 1.0,
        seed: Optional[int] = None,
        graph: Optional[AttributedGraph] = None,
        **service_overrides: object,
    ) -> RegisteredGraph:
        """Register *name*, instantiating from a dataset profile or a graph.

        Reloading an existing name replaces it atomically (new
        generation, fresh service) and closes the old service after the
        swap.
        """
        if not name:
            raise RegistryError("a registered graph needs a non-empty name")
        if graph is None:
            if profile is None:
                raise RegistryError(
                    f"load({name!r}) needs a dataset profile or an explicit graph"
                )
            from repro.datasets.registry import load_dataset

            graph, _ = load_dataset(profile, scale=scale, seed=seed)
        from repro.service import QueryService

        settings = dict(self._defaults)
        settings.update(service_overrides)
        settings.setdefault("instruments", self.instruments)
        with self._lock:
            generation = self._generations.get(name, 0) + 1
            self._generations[name] = generation
            entry = RegisteredGraph(
                name=name,
                profile=profile,
                scale=scale,
                seed=seed,
                generation=generation,
                graph=graph,
                service=QueryService(
                    graph, graph_id=f"{name}#{generation}", **settings
                ),
            )
            previous = self._entries.get(name)
            self._entries[name] = entry
        if previous is not None:
            previous.service.close()  # type: ignore[attr-defined]
        self._loaded_counter.inc(1)
        return entry

    def get(self, name: str) -> "object":
        """The :class:`~repro.service.QueryService` serving *name*."""
        return self.entry(name).service

    def entry(self, name: str) -> RegisteredGraph:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise UnknownGraphError(name)
        return entry

    def drop(self, name: str) -> None:
        """Unregister *name* and close its service (pools, segments)."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise UnknownGraphError(name)
        entry.service.close()  # type: ignore[attr-defined]
        self._dropped_counter.inc(1)

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def describe(self) -> list[dict]:
        with self._lock:
            entries = [self._entries[name] for name in sorted(self._entries)]
        return [entry.describe() for entry in entries]

    def close(self) -> None:
        """Drop every graph (idempotent)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.service.close()  # type: ignore[attr-defined]
        self._dropped_counter.inc(len(entries))

    def __enter__(self) -> "GraphRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"GraphRegistry(graphs={self.names()})"
