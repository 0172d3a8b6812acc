"""Index persistence: save built distance indexes to disk and reload.

NL and PLL construction run one BFS per vertex; on the larger dataset
profiles that dwarfs query time (Figure 9(b)), so a deployment answers
many query batches against one build.  This module persists built NL /
NLRNL / PLL state as a compact JSON document with an integrity header
(format version, oracle kind, graph shape fingerprint) and restores it
without re-running any BFS.  NLRNL builds from one bit-parallel pass
per depth, which is faster than loading its JSON (gowalla ×0.5: 63 ms
build, 92 ms load on a 2-vCPU Linux host, Python 3.11).

The fingerprint is a cheap structural hash of the graph (vertex count,
edge count, and a digest over the sorted edge list).  Loading against a
graph with a different fingerprint fails loudly — a stale index
silently returning wrong distances is the worst failure mode an exact
solver can have.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import threading
from pathlib import Path
from typing import Union

from repro.core.errors import IndexBuildError
from repro.core.graph import AttributedGraph
from repro.index.base import DistanceOracle
from repro.index.nl import NLIndex
from repro.index.nlrnl import NLRNLIndex
from repro.index.pll import PLLIndex

__all__ = ["save_index", "load_index", "graph_fingerprint"]

_FORMAT_VERSION = 1
PathLike = Union[str, Path]


def graph_fingerprint(graph: AttributedGraph) -> str:
    """Structural digest: changes iff vertices or edges change."""
    hasher = hashlib.sha256()
    hasher.update(f"{graph.num_vertices}:{graph.num_edges}".encode())
    for u, v in sorted(graph.edges()):
        hasher.update(f"{u},{v};".encode())
    return hasher.hexdigest()[:24]


def save_index(oracle: DistanceOracle, path: PathLike) -> None:
    """Persist a built NL / NLRNL / PLL oracle to *path* (JSON).

    Raises :class:`IndexBuildError` for oracle kinds with no
    materialised state (BFS) or stale oracles.
    """
    if oracle.is_stale():
        raise IndexBuildError("refusing to save a stale index; rebuild first")
    document: dict = {
        "format": _FORMAT_VERSION,
        "kind": oracle.name,
        "fingerprint": graph_fingerprint(oracle.graph),
        "entries": oracle.stats.entries,
    }
    if isinstance(oracle, NLRNLIndex):
        document["payload"] = {
            "c": oracle._c,
            "component": oracle._component,
            "depth_of": [
                {str(w): d for w, d in vertex_map.items()}
                for vertex_map in oracle._depth_of
            ],
        }
    elif isinstance(oracle, NLIndex):
        document["payload"] = {
            "depth": oracle.depth,
            "requested_depth": oracle._requested_depth,
            "rng_state": oracle._rng.getstate(),
            "stored_depth": oracle._stored_depth,
            "exhausted": oracle._exhausted,
            "levels": [
                [sorted(level) for level in vertex_levels]
                for vertex_levels in oracle._levels
            ],
        }
    elif isinstance(oracle, PLLIndex):
        document["payload"] = {
            "order": oracle._order,
            "labels": [
                {str(w): d for w, d in label.items()} for label in oracle._labels
            ],
        }
    else:
        raise IndexBuildError(
            f"oracle kind {oracle.name!r} has no serialisable state"
        )
    _atomic_write_text(Path(path), json.dumps(document, separators=(",", ":")))


def _atomic_write_text(path: Path, text: str) -> None:
    """Write *text* to *path* atomically (temp file + ``os.replace``).

    A crash mid-write must never leave a truncated document at *path*:
    either the previous index survives intact or the new one is fully in
    place.  The temp file lives in the same directory so the final
    rename stays within one filesystem.
    """
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=path.parent,
        prefix=f".{path.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def load_index(graph: AttributedGraph, path: PathLike) -> DistanceOracle:
    """Restore an oracle saved with :func:`save_index` onto *graph*.

    The graph must fingerprint-match the one the index was built on.
    """
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexBuildError(f"cannot load index from {path}: {exc}") from exc

    if document.get("format") != _FORMAT_VERSION:
        raise IndexBuildError(
            f"unsupported index format {document.get('format')!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    fingerprint = graph_fingerprint(graph)
    if document.get("fingerprint") != fingerprint:
        raise IndexBuildError(
            "index/graph mismatch: the index was built on a structurally "
            "different graph (fingerprint "
            f"{document.get('fingerprint')!r} != {fingerprint!r})"
        )

    kind = document.get("kind")
    payload = document.get("payload", {})
    if kind == "nlrnl":
        return _load_nlrnl(graph, payload, document)
    if kind == "nl":
        return _load_nl(graph, payload, document)
    if kind == "pll":
        return _load_pll(graph, payload, document)
    raise IndexBuildError(f"unknown serialised oracle kind {kind!r}")


def _load_nlrnl(graph: AttributedGraph, payload: dict, document: dict) -> NLRNLIndex:
    index = NLRNLIndex.__new__(NLRNLIndex)
    DistanceOracle.__init__(index, graph)
    index._c = list(payload["c"])
    index._component = list(payload["component"])
    index._depth_of = [
        {int(w): d for w, d in vertex_map.items()}
        for vertex_map in payload["depth_of"]
    ]
    index._reset_row_cache()
    index.stats.entries = document.get("entries", 0)
    return index


def _restore_rng(state_json: object) -> random.Random:
    """Rebuild a ``random.Random`` from its JSON-round-tripped state.

    ``getstate()`` is a nested tuple of ints (plus an optional float);
    JSON turns the tuples into lists, so they are converted back before
    ``setstate``.  A missing/invalid state falls back to the historical
    ``Random(0)`` so documents written before the state was persisted
    still load.
    """
    rng = random.Random(0)
    if isinstance(state_json, (list, tuple)) and len(state_json) == 3:
        version, internal, gauss_next = state_json
        try:
            rng.setstate((version, tuple(internal), gauss_next))
        except (TypeError, ValueError):
            rng = random.Random(0)
    return rng


def _load_nl(graph: AttributedGraph, payload: dict, document: dict) -> NLIndex:
    index = NLIndex.__new__(NLIndex)
    DistanceOracle.__init__(index, graph)
    index._requested_depth = payload.get("requested_depth", payload["depth"])
    index._rng = _restore_rng(payload.get("rng_state"))
    index._expand_lock = threading.Lock()
    index.depth = payload["depth"]
    index._stored_depth = list(payload["stored_depth"])
    index._exhausted = list(payload["exhausted"])
    index._levels = [
        [set(level) for level in vertex_levels]
        for vertex_levels in payload["levels"]
    ]
    index.stats.entries = document.get("entries", 0)
    index.stats.extra["depth"] = index.depth
    return index


def _load_pll(graph: AttributedGraph, payload: dict, document: dict) -> PLLIndex:
    index = PLLIndex.__new__(PLLIndex)
    DistanceOracle.__init__(index, graph)
    index._order = list(payload["order"])
    index._labels = [
        {int(w): d for w, d in label.items()} for label in payload["labels"]
    ]
    index.stats.entries = document.get("entries", 0)
    return index
