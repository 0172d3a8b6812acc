"""Outside-in timing of the ``core`` and ``index`` layers for traced runs.

:class:`LayerProbe` wraps, for the duration of a ``with`` block, the
public calls the solver makes into those layers:

* ``KTGQuery.cached_context`` — candidate qualification (``core``);
* the distance-probe methods of every :class:`DistanceOracle` subclass
  (``is_tenuous``, ``within_k``, ``filter_candidates``) — ``index``.

Qualification calls become ``core.qualify`` spans under whichever span
is open; probe calls are far too many to record one by one, so they are
summed per request (a timing proxy: the wrapper's own cost is included,
which is part of the tracing overhead the traced run reports).  Nested
probe calls (``filter_candidates`` calling ``within_k``) are timed once.
The original methods are restored on exit.
"""

from __future__ import annotations

import time
from typing import Optional

from common import Tracer

PROBE_METHODS = ("is_tenuous", "within_k", "filter_candidates")


def _oracle_classes() -> list[type]:
    from repro.index.base import DistanceOracle

    found: list[type] = []
    pending = [DistanceOracle]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class LayerProbe:
    """Per-request qualification and probe timers (see module docstring)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.probe_seconds = 0.0
        self.probe_calls = 0
        self.qualify_seconds = 0.0
        self._depth = 0
        self._saved: list[tuple[type, str, Optional[object]]] = []

    def reset_request(self) -> None:
        self.probe_seconds = 0.0
        self.probe_calls = 0
        self.qualify_seconds = 0.0

    # ------------------------------------------------------------------
    def _patch(self, cls: type, name: str, wrapper) -> None:
        self._saved.append((cls, name, cls.__dict__.get(name)))
        setattr(cls, name, wrapper)

    def _timed_probe(self, original):
        probe = self

        def wrapper(oracle, *args, **kwargs):
            if probe._depth:
                return original(oracle, *args, **kwargs)
            probe._depth = 1
            started = time.perf_counter()
            try:
                return original(oracle, *args, **kwargs)
            finally:
                probe.probe_seconds += time.perf_counter() - started
                probe.probe_calls += 1
                probe._depth = 0

        return wrapper

    def _timed_qualify(self, original):
        probe = self

        def wrapper(query, graph):
            if probe.tracer.current is None:
                return original(query, graph)
            with probe.tracer.span("core.qualify") as span:
                context = original(query, graph)
            probe.qualify_seconds += span.end - span.start
            return context

        return wrapper

    def __enter__(self) -> "LayerProbe":
        from repro.core.query import KTGQuery

        self._patch(KTGQuery, "cached_context", self._timed_qualify(KTGQuery.cached_context))
        for cls in _oracle_classes():
            for name in PROBE_METHODS:
                if name in cls.__dict__:
                    self._patch(cls, name, self._timed_probe(cls.__dict__[name]))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
