"""Frozen CSR (compressed sparse row) snapshots of an attributed graph.

The mutable :class:`~repro.core.graph.AttributedGraph` stores adjacency
as ``list[set[int]]`` — ideal for ``add_edge``/``remove_edge`` and
membership tests, but a pointer-heavy object graph that can neither be
frozen cheaply nor handed to another process without pickling.  A
:class:`CsrSnapshot` freezes one graph version into four flat sections:

====================  ==========================  =======================
section               storage                     meaning
====================  ==========================  =======================
header                8 × ``int64``               magic, graph version,
                                                  ``n``, ``m``, keyword
                                                  count, mask stride,
                                                  label-blob length,
                                                  total byte size
``indptr``            ``array('i')``, ``n + 1``   row offsets into
                                                  ``indices``
``indices``           ``array('i')``, ``2 m``     neighbour ids, sorted
                                                  within each row
keyword masks         ``array('Q')``,             per-vertex keyword-id
                      ``n × stride``              bitsets (64 ids/word)
label blob            UTF-8, NUL-separated        keyword labels in id
                                                  order
====================  ==========================  =======================

Sections start on 8-byte boundaries; every offset is recomputed from the
header, so a snapshot is fully described by its byte buffer.  That makes
the same bytes valid in two transports:

* **local** — one ``bytes`` object inside the building process, shared
  by reference across threads (the buffer is immutable);
* **shared** — a ``multiprocessing.shared_memory`` segment.  Other
  processes :meth:`~CsrSnapshot.attach` by *name* instead of receiving
  a pickled graph, so handing a snapshot across processes is zero-copy
  (:class:`repro.core.epoch.EpochManager` with ``shared=True`` places
  every epoch this way).

Snapshots are the base of every epoch and the source of the ``ktg
stats`` footprint table; traversals never read them directly.  Every
oracle and kernel walks ``graph.adjacency_view()``: a
:class:`CsrGraphView` materialises per-vertex sets from the snapshot
once, and an :class:`repro.core.epoch.EpochGraphView` overlays its
pending delta, so a traversal always sees the current graph version.
Boxing an ``int`` per element makes ``array('i')[j]`` slower than a
plain list in pure Python, so :attr:`CsrSnapshot.indptr` /
:attr:`CsrSnapshot.indices` materialise ordinary Python lists once per
process (one ``tolist`` pass, measured at ~0.1 ms for a 13k-edge graph)
and the views read those.

Lifecycle: the process that builds a shared snapshot *owns* the segment
and must call :meth:`~CsrSnapshot.release` (close + unlink); attached
snapshots only :meth:`~CsrSnapshot.close`.  Both are idempotent.
Attaching to a released segment raises
:class:`~repro.core.errors.SnapshotAttachError`.  See ``docs/graph.md``
for the full protocol.
"""

from __future__ import annotations

import struct
import sys
import threading
from array import array
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Optional

from repro.core.errors import SnapshotAttachError, SnapshotError
from repro.core.graph import KeywordTable
from repro.obs.instruments import NULL_REGISTRY, InstrumentRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.graph import AttributedGraph

__all__ = [
    "CsrSnapshot",
    "CsrGraphView",
    "counter_totals",
    "reset_counters",
    "adjacency_footprint_bytes",
]

# ----------------------------------------------------------------------
# Binary layout
# ----------------------------------------------------------------------
_MAGIC = 0x43535231  # "CSR1"
_HEADER_STRUCT = struct.Struct("<8q")
_HEADER_BYTES = _HEADER_STRUCT.size  # 64


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _section_offsets(
    n: int, num_edges: int, kw_stride: int, label_blob_len: int
) -> tuple[int, int, int, int, int]:
    """Return ``(indptr, indices, masks, labels, total)`` byte offsets."""
    off_indptr = _HEADER_BYTES
    off_indices = _align8(off_indptr + 4 * (n + 1))
    off_masks = _align8(off_indices + 4 * (2 * num_edges))
    off_labels = off_masks + 8 * (n * kw_stride)
    total = _align8(off_labels + label_blob_len)
    return off_indptr, off_indices, off_masks, off_labels, total


# ----------------------------------------------------------------------
# Module-level counters (``csr.*`` observability family)
# ----------------------------------------------------------------------
_COUNTER_LOCK = threading.Lock()
_TOTALS = {"builds": 0, "attaches": 0, "bytes": 0, "segment_releases": 0}


def _bump(name: str, amount: int, instruments: InstrumentRegistry) -> None:
    with _COUNTER_LOCK:
        _TOTALS[name] += amount
    instruments.counter(f"csr.{name}").inc(amount)


def counter_totals() -> dict[str, int]:
    """Process-wide ``csr.*`` counter totals (builds/attaches/bytes/releases)."""
    with _COUNTER_LOCK:
        return dict(_TOTALS)


def reset_counters() -> None:
    """Zero the process-wide counters (tests and benchmarks only)."""
    with _COUNTER_LOCK:
        for key in _TOTALS:
            _TOTALS[key] = 0


def adjacency_footprint_bytes(graph: "AttributedGraph") -> int:
    """Estimate the resident bytes of the mutable ``list[set[int]]`` adjacency.

    Sums ``sys.getsizeof`` over the outer list and every neighbour set,
    plus 28 bytes per stored endpoint for the boxed ints themselves
    (small-int interning makes this an upper bound on real graphs).
    Used by ``ktg stats`` to contrast with :attr:`CsrSnapshot.nbytes`.
    """
    adjacency = graph.adjacency_view()
    total = sys.getsizeof(adjacency)
    for row in adjacency:
        total += sys.getsizeof(row) + 28 * len(row)
    return total


def _attach_segment(name: str):
    """Attach to an existing shared-memory segment without tracker churn.

    Python 3.13 grew ``SharedMemory(track=False)``; on older versions the
    resource tracker would unlink the segment when *this* process exits,
    yanking it out from under the owner, so we unregister the attachment
    immediately after connecting.
    """
    from multiprocessing import shared_memory

    try:
        try:
            return shared_memory.SharedMemory(name=name, create=False, track=False)
        except TypeError:  # Python < 3.13: no ``track`` parameter
            pass
        shm = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        raise SnapshotAttachError(
            f"shared CSR segment {name!r} does not exist (already released?)"
        ) from None
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals moved
        pass
    return shm


class CsrSnapshot:
    """An immutable flat-array view of one :class:`AttributedGraph` version.

    Build with :meth:`from_graph` (or the cached
    ``AttributedGraph.csr_snapshot``), promote to a shared-memory segment
    with :meth:`share`, and attach from a worker process with
    :meth:`attach`.  Use :meth:`view` for an ``AttributedGraph``-shaped
    read-only facade.
    """

    __slots__ = (
        "_buf",
        "_shm",
        "_owner",
        "_graph_version",
        "_num_vertices",
        "_num_edges",
        "_num_keywords",
        "_kw_stride",
        "_label_blob_len",
        "_nbytes",
        "_indptr",
        "_indices",
        "_kw_masks",
        "_labels",
        "_released",
    )

    def __init__(self) -> None:
        raise SnapshotError(
            "CsrSnapshot cannot be constructed directly; "
            "use CsrSnapshot.from_graph() or CsrSnapshot.attach()"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _blank(cls) -> "CsrSnapshot":
        snapshot = object.__new__(cls)
        snapshot._buf = None
        snapshot._shm = None
        snapshot._owner = False
        snapshot._indptr = None
        snapshot._indices = None
        snapshot._kw_masks = None
        snapshot._labels = None
        snapshot._released = False
        return snapshot

    @classmethod
    def from_graph(
        cls,
        graph: "AttributedGraph",
        *,
        instruments: InstrumentRegistry = NULL_REGISTRY,
    ) -> "CsrSnapshot":
        """Serialise *graph* into a fresh local (in-process) snapshot."""
        n = graph.num_vertices
        adjacency = graph.adjacency_view()

        indptr = array("i", bytes(4 * (n + 1)))
        indices = array("i")
        cursor = 0
        for u in range(n):
            row = sorted(adjacency[u])
            indices.extend(row)
            cursor += len(row)
            indptr[u + 1] = cursor

        table = graph.keyword_table
        num_keywords = len(table)
        kw_stride = (num_keywords + 63) >> 6
        masks = array("Q", bytes(8 * n * kw_stride))
        for v in range(n):
            base = v * kw_stride
            for k in graph.keywords_of(v):
                masks[base + (k >> 6)] |= 1 << (k & 63)

        labels = list(table)
        for label in labels:
            if "\x00" in label:
                raise SnapshotError(
                    f"keyword label {label!r} contains NUL; cannot snapshot"
                )
        label_blob = "\x00".join(labels).encode("utf-8")

        offs = _section_offsets(n, graph.num_edges, kw_stride, len(label_blob))
        off_indptr, off_indices, off_masks, off_labels, total = offs

        buf = bytearray(total)
        _HEADER_STRUCT.pack_into(
            buf,
            0,
            _MAGIC,
            graph.version,
            n,
            graph.num_edges,
            num_keywords,
            kw_stride,
            len(label_blob),
            total,
        )
        buf[off_indptr : off_indptr + 4 * (n + 1)] = indptr.tobytes()
        buf[off_indices : off_indices + 4 * len(indices)] = indices.tobytes()
        buf[off_masks : off_masks + 8 * len(masks)] = masks.tobytes()
        buf[off_labels : off_labels + len(label_blob)] = label_blob

        snapshot = cls._blank()
        snapshot._buf = bytes(buf)
        snapshot._load_header()
        _bump("builds", 1, instruments)
        _bump("bytes", total, instruments)
        return snapshot

    @classmethod
    def attach(
        cls,
        name: str,
        *,
        instruments: InstrumentRegistry = NULL_REGISTRY,
    ) -> "CsrSnapshot":
        """Attach to the shared segment *name* created by :meth:`share`.

        Raises :class:`SnapshotAttachError` if the segment was already
        released or does not hold a CSR snapshot.  Any failure after the
        segment handle opens closes that handle before re-raising: an
        attacher that dies between open and view construction must not
        keep the mapping alive, or ``/dev/shm`` stays populated after
        the owner unlinks (the CI leak check catches exactly this).
        """
        shm = _attach_segment(name)
        snapshot = cls._blank()
        try:
            snapshot._shm = shm
            snapshot._buf = shm.buf
            snapshot._load_header()
        except BaseException as exc:
            snapshot._buf = None
            snapshot._shm = None
            shm.close()
            if isinstance(exc, SnapshotError) and not isinstance(
                exc, SnapshotAttachError
            ):
                raise SnapshotAttachError(
                    f"segment {name!r} does not hold a CSR snapshot: {exc}"
                ) from exc
            raise
        _bump("attaches", 1, instruments)
        return snapshot

    def share(
        self, *, instruments: InstrumentRegistry = NULL_REGISTRY
    ) -> "CsrSnapshot":
        """Copy this snapshot into a new owned shared-memory segment.

        The returned snapshot's :attr:`name` is what workers pass to
        :meth:`attach`; the caller owns the segment and must
        :meth:`release` it.
        """
        from multiprocessing import shared_memory

        buf = self._require_buf()
        shm = shared_memory.SharedMemory(create=True, size=self._nbytes)
        shm.buf[: self._nbytes] = bytes(buf[: self._nbytes])
        shared = CsrSnapshot._blank()
        shared._shm = shm
        shared._owner = True
        shared._buf = shm.buf
        shared._load_header()
        _bump("bytes", self._nbytes, instruments)
        return shared

    # ------------------------------------------------------------------
    # Header / sections
    # ------------------------------------------------------------------
    def _load_header(self) -> None:
        buf = self._buf
        if buf is None or len(buf) < _HEADER_BYTES:
            raise SnapshotError("buffer too small to hold a CSR snapshot header")
        (magic, version, n, m, num_kw, stride, blob_len, total) = (
            _HEADER_STRUCT.unpack_from(buf, 0)
        )
        if magic != _MAGIC:
            raise SnapshotError(
                f"bad CSR snapshot magic 0x{magic:x}; segment does not hold a snapshot"
            )
        if len(buf) < total:
            raise SnapshotError(
                f"truncated CSR snapshot: header claims {total} bytes, buffer has {len(buf)}"
            )
        self._graph_version = version
        self._num_vertices = n
        self._num_edges = m
        self._num_keywords = num_kw
        self._kw_stride = stride
        self._label_blob_len = blob_len
        self._nbytes = total

    def _require_buf(self):
        buf = self._buf
        if buf is None:
            raise SnapshotError("CSR snapshot is closed")
        return buf

    def _read_section(self, typecode: str, offset: int, count: int) -> list[int]:
        arr = array(typecode)
        itemsize = arr.itemsize
        buf = self._require_buf()
        arr.frombytes(bytes(buf[offset : offset + count * itemsize]))
        return arr.tolist()

    # ------------------------------------------------------------------
    # Data access (lists materialised once, then owned by this process)
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> list[int]:
        """Row-offset list of length ``n + 1`` (plain ints for hot loops)."""
        if self._indptr is None:
            off = _section_offsets(
                self._num_vertices, self._num_edges, self._kw_stride, self._label_blob_len
            )[0]
            self._indptr = self._read_section("i", off, self._num_vertices + 1)
        return self._indptr

    @property
    def indices(self) -> list[int]:
        """Concatenated sorted neighbour lists (length ``2 m``)."""
        if self._indices is None:
            off = _section_offsets(
                self._num_vertices, self._num_edges, self._kw_stride, self._label_blob_len
            )[1]
            self._indices = self._read_section("i", off, 2 * self._num_edges)
        return self._indices

    @property
    def keyword_masks(self) -> list[int]:
        """Packed per-vertex keyword bitsets, ``kw_stride`` words per vertex."""
        if self._kw_masks is None:
            off = _section_offsets(
                self._num_vertices, self._num_edges, self._kw_stride, self._label_blob_len
            )[2]
            self._kw_masks = self._read_section(
                "Q", off, self._num_vertices * self._kw_stride
            )
        return self._kw_masks

    @property
    def keyword_labels(self) -> list[str]:
        """Keyword labels in interned-id order."""
        if self._labels is None:
            if self._num_keywords == 0:
                self._labels = []
            else:
                off = _section_offsets(
                    self._num_vertices,
                    self._num_edges,
                    self._kw_stride,
                    self._label_blob_len,
                )[3]
                buf = self._require_buf()
                blob = bytes(buf[off : off + self._label_blob_len])
                self._labels = blob.decode("utf-8").split("\x00")
                if len(self._labels) != self._num_keywords:
                    raise SnapshotError(
                        f"label blob holds {len(self._labels)} labels, "
                        f"header claims {self._num_keywords}"
                    )
        return self._labels

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def graph_version(self) -> int:
        """``graph.version`` at the moment the snapshot was built."""
        return self._graph_version

    @property
    def num_keywords(self) -> int:
        return self._num_keywords

    @property
    def kw_stride(self) -> int:
        """Mask words per vertex (``ceil(num_keywords / 64)``)."""
        return self._kw_stride

    @property
    def nbytes(self) -> int:
        """Total serialised size in bytes (header through label blob)."""
        return self._nbytes

    @property
    def name(self) -> Optional[str]:
        """Shared-memory segment name, or ``None`` for a local snapshot."""
        return self._shm.name if self._shm is not None else None

    @property
    def is_shared(self) -> bool:
        return self._shm is not None

    @property
    def is_owner(self) -> bool:
        """Whether this snapshot created (and must unlink) its segment."""
        return self._owner

    @property
    def closed(self) -> bool:
        return self._buf is None

    def keyword_mask(self, vertex: int) -> int:
        """Return the keyword bitset of *vertex* as one arbitrary-width int."""
        stride = self._kw_stride
        if stride == 0:
            return 0
        masks = self.keyword_masks
        base = vertex * stride
        if stride == 1:
            return masks[base]
        bits = 0
        for w in range(stride):
            bits |= masks[base + w] << (64 * w)
        return bits

    def neighbors_list(self, vertex: int) -> list[int]:
        """Sorted neighbour ids of *vertex* (a fresh list slice)."""
        indptr = self.indptr
        return self.indices[indptr[vertex] : indptr[vertex + 1]]

    def view(self) -> "CsrGraphView":
        """Return an :class:`AttributedGraph`-shaped read-only facade."""
        return CsrGraphView(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def materialize(self) -> "CsrSnapshot":
        """Force every lazy section into plain Python objects.

        After this, :meth:`close` does not invalidate reads — used by
        workers that attach, decode, and immediately detach.
        """
        self.indptr
        self.indices
        self.keyword_masks
        self.keyword_labels
        return self

    def close(self) -> None:
        """Detach from the underlying buffer.  Idempotent.

        Already-materialised sections stay readable (they are plain
        lists); unmaterialised sections raise :class:`SnapshotError`.
        """
        self._buf = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - exported views alive
                raise SnapshotError(
                    "cannot close CSR snapshot while memoryviews are exported"
                ) from None
            if not self._owner:
                self._shm = None

    def release(
        self, *, instruments: InstrumentRegistry = NULL_REGISTRY
    ) -> None:
        """Close and, when owner, unlink the shared segment.  Idempotent."""
        self.close()
        if self._owner and self._shm is not None and not self._released:
            try:
                # Fork-started workers share this process's resource
                # tracker, and _attach_segment unregistered the name on
                # their behalf; re-register so unlink()'s unregister
                # balances instead of tripping a KeyError in the tracker
                # (registration is a set-add, so this is a no-op when no
                # worker ever attached).
                from multiprocessing import resource_tracker

                resource_tracker.register(
                    self._shm._name, "shared_memory"  # type: ignore[attr-defined]
                )
            except Exception:  # pragma: no cover - tracker internals moved
                pass
            self._shm.unlink()
            self._released = True
            self._shm = None
            _bump("segment_releases", 1, instruments)

    def __enter__(self) -> "CsrSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __reduce__(self):
        raise SnapshotError(
            "CsrSnapshot is not picklable by design; ship the segment name "
            "and CsrSnapshot.attach() in the worker instead"
        )

    def __repr__(self) -> str:
        transport = (
            f"shm={self.name!r}{' owner' if self._owner else ''}"
            if self._shm is not None
            else "local"
        )
        state = " closed" if self.closed else ""
        return (
            f"CsrSnapshot(|V|={self._num_vertices}, |E|={self._num_edges}, "
            f"version={self._graph_version}, {self._nbytes}B, {transport}{state})"
        )


class CsrGraphView:
    """Read-only :class:`AttributedGraph` facade over a :class:`CsrSnapshot`.

    Implements the read API that solvers, strategies, coverage contexts,
    and oracles consume — ``num_vertices``, ``neighbors``, ``degrees``,
    ``keywords_of``, ``keyword_table``, … — so worker processes can build
    a full solver stack from an attached segment without ever unpickling
    the original graph.  Mutators raise :class:`SnapshotError`.
    """

    __slots__ = ("_snapshot", "_keyword_table", "_vertex_keywords", "_adjacency_sets")

    def __init__(self, snapshot: CsrSnapshot) -> None:
        self._snapshot = snapshot
        self._keyword_table: Optional[KeywordTable] = None
        self._vertex_keywords: Optional[list[frozenset[int]]] = None
        self._adjacency_sets: Optional[list[frozenset[int]]] = None

    # ------------------------------------------------------------------
    # Identity / metadata
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> CsrSnapshot:
        return self._snapshot

    @property
    def num_vertices(self) -> int:
        return self._snapshot.num_vertices

    @property
    def num_edges(self) -> int:
        return self._snapshot.num_edges

    @property
    def version(self) -> int:
        """The frozen ``graph.version``; a snapshot never goes stale."""
        return self._snapshot.graph_version

    @property
    def keyword_table(self) -> KeywordTable:
        if self._keyword_table is None:
            self._keyword_table = KeywordTable(self._snapshot.keyword_labels)
        return self._keyword_table

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    def vertices(self) -> range:
        return range(self._snapshot.num_vertices)

    def neighbors(self, vertex: int) -> frozenset[int]:
        self._check_vertex(vertex)
        return self.adjacency_view()[vertex]

    def adjacency_view(self) -> Sequence[frozenset[int]]:
        """Per-vertex neighbour sets, materialised once on first use
        (the read path every oracle and kernel traverses)."""
        if self._adjacency_sets is None:
            snapshot = self._snapshot
            indptr = snapshot.indptr
            indices = snapshot.indices
            self._adjacency_sets = [
                frozenset(indices[indptr[v] : indptr[v + 1]])
                for v in range(snapshot.num_vertices)
            ]
        return self._adjacency_sets

    def degree(self, vertex: int) -> int:
        self._check_vertex(vertex)
        indptr = self._snapshot.indptr
        return indptr[vertex + 1] - indptr[vertex]

    def degrees(self) -> list[int]:
        indptr = self._snapshot.indptr
        return [
            indptr[v + 1] - indptr[v] for v in range(self._snapshot.num_vertices)
        ]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        from bisect import bisect_left

        snapshot = self._snapshot
        indptr = snapshot.indptr
        indices = snapshot.indices
        lo, hi = indptr[u], indptr[u + 1]
        pos = bisect_left(indices, v, lo, hi)
        return pos < hi and indices[pos] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        snapshot = self._snapshot
        indptr = snapshot.indptr
        indices = snapshot.indices
        for u in range(snapshot.num_vertices):
            for v in indices[indptr[u] : indptr[u + 1]]:
                if u < v:
                    yield (u, v)

    def keywords_of(self, vertex: int) -> frozenset[int]:
        self._check_vertex(vertex)
        if self._vertex_keywords is None:
            snapshot = self._snapshot
            stride = snapshot.kw_stride
            decoded: list[frozenset[int]] = []
            if stride == 0:
                decoded = [frozenset()] * snapshot.num_vertices
            else:
                masks = snapshot.keyword_masks
                for v in range(snapshot.num_vertices):
                    ids: list[int] = []
                    base = v * stride
                    for w in range(stride):
                        word = masks[base + w]
                        shift = 64 * w
                        while word:
                            low = word & -word
                            ids.append(shift + low.bit_length() - 1)
                            word ^= low
                    decoded.append(frozenset(ids))
            self._vertex_keywords = decoded
        return self._vertex_keywords[vertex]

    def keyword_labels(self, vertex: int) -> list[str]:
        return self.keyword_table.labels(self.keywords_of(vertex))

    def vertices_with_any_keyword(self, keyword_ids: frozenset[int]) -> list[int]:
        if not keyword_ids:
            return []
        query_mask = 0
        for k in keyword_ids:
            query_mask |= 1 << k
        snapshot = self._snapshot
        stride = snapshot.kw_stride
        if stride == 0:
            return []
        if stride == 1:
            masks = snapshot.keyword_masks
            return [v for v in range(snapshot.num_vertices) if masks[v] & query_mask]
        return [
            v
            for v in range(snapshot.num_vertices)
            if snapshot.keyword_mask(v) & query_mask
        ]

    def degrees_list(self) -> list[int]:  # pragma: no cover - alias
        return self.degrees()

    # ------------------------------------------------------------------
    # Distance primitives (CSR traversal)
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int, max_depth: Optional[int] = None) -> dict[int, int]:
        self._check_vertex(source)
        snapshot = self._snapshot
        indptr = snapshot.indptr
        indices = snapshot.indices
        distances = {source: 0}
        frontier = [source]
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            next_frontier: list[int] = []
            for u in frontier:
                for v in indices[indptr[u] : indptr[u + 1]]:
                    if v not in distances:
                        distances[v] = depth
                        next_frontier.append(v)
            frontier = next_frontier
        return distances

    def hop_distance(self, u: int, v: int, cutoff: Optional[int] = None) -> Optional[int]:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return 0
        snapshot = self._snapshot
        indptr = snapshot.indptr
        indices = snapshot.indices
        seen = bytearray(snapshot.num_vertices)
        seen[u] = 1
        frontier = [u]
        depth = 0
        while frontier and (cutoff is None or depth < cutoff):
            depth += 1
            next_frontier: list[int] = []
            for x in frontier:
                for y in indices[indptr[x] : indptr[x + 1]]:
                    if y == v:
                        return depth
                    if not seen[y]:
                        seen[y] = 1
                        next_frontier.append(y)
            frontier = next_frontier
        return None

    # ------------------------------------------------------------------
    # Mutators are forbidden on a frozen view
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        raise SnapshotError("CsrGraphView is frozen; mutate the source graph instead")

    def remove_edge(self, u: int, v: int) -> None:
        raise SnapshotError("CsrGraphView is frozen; mutate the source graph instead")

    def set_keywords(self, vertex: int, labels: object) -> None:
        raise SnapshotError("CsrGraphView is frozen; mutate the source graph instead")

    # ------------------------------------------------------------------
    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._snapshot.num_vertices:
            from repro.core.errors import UnknownVertexError

            raise UnknownVertexError(vertex)

    def __repr__(self) -> str:
        return f"CsrGraphView({self._snapshot!r})"
