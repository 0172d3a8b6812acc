"""numpy-vectorized twins of the CSR hot-path kernels.

The CSR snapshot layer gave the solvers flat ``indptr``/``indices``
arrays, but the BFS sweep and ball-bitset construction still iterate
edge-by-edge in the interpreter.  This module provides vectorized
twins of those hot paths:

* :func:`bfs_levels_csr` / :func:`bfs_distance_array_csr` — frontier
  expansion as one fancy-indexed gather of ``indices`` over the
  frontier's ``indptr`` slices per level, instead of a per-edge python
  loop;
* :func:`ball_bits_csr` — k-bounded BFS whose reached set is packed to
  the engine's little-endian bitset in one ``np.packbits`` call,
  bit-identical to ``BallBitsetEngine._build_ball_csr``;
* :func:`pack_vertices` / :func:`decode_mask` — bulk encode/decode
  between vertex collections and big-int bitsets;
* :func:`popcount_bytes` / :func:`bulk_popcount` — bulk popcount over
  packed buffers and keyword-mask ints.

numpy stays an *optional* dependency with no setting: the callers in
:mod:`repro.kernels.engine` and :mod:`repro.index.nl` use these kernels
whenever numpy is importable and their pure-python twins otherwise.
The resolved numpy module is cached in the module-global ``_np`` so
tests can simulate a numpy-absent environment by monkeypatching it to
``None`` — no uninstall needed.  Both paths are bit-identical by
construction: the vectorized BFS visits the same level sets (sorted
within a level, which every consumer in this package is insensitive
to) and the packed bitsets use the same little-endian weight
``1 << v`` per vertex.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "resolve_kernel_backend",
    "numpy_available",
    "numpy_or_none",
    "bfs_levels_csr",
    "bfs_distance_array_csr",
    "ball_bits_csr",
    "pack_vertices",
    "decode_mask",
    "popcount_bytes",
    "bulk_popcount",
    "UNREACHABLE",
]

#: Sentinel distance for unreachable vertices (matches ``_traversal``).
UNREACHABLE = -1

#: Chunk width (bytes) for the pure-python popcount fallback: big
#: enough to amortise the ``int.from_bytes`` call, small enough that
#: each chunk's big-int stays cheap.
_POPCOUNT_CHUNK = 1024

_UNRESOLVED = object()
#: Cached numpy module, or ``None`` when unimportable.  Monkeypatch to
#: ``None`` to simulate a numpy-absent environment in tests.
_np: Any = _UNRESOLVED


def numpy_or_none() -> Any:
    """The numpy module if importable, else ``None`` (cached)."""
    global _np
    if _np is _UNRESOLVED:
        try:
            import numpy
        except Exception:  # pragma: no cover - exercised via monkeypatch
            _np = None
        else:
            _np = numpy
    return _np


def numpy_available() -> bool:
    return numpy_or_none() is not None


def resolve_kernel_backend(choice: str = "auto") -> str:
    """The backend the kernels run on: ``"numpy"`` when importable,
    else ``"python"``.

    ``"auto"`` is the only accepted *choice*; the argument remains for
    callers that report the backend (``perfbench`` records it per run).
    """
    if choice != "auto":
        raise ValueError(f"the only backend choice is 'auto', got {choice!r}")
    return "numpy" if numpy_available() else "python"


def _require_numpy() -> Any:
    np = numpy_or_none()
    if np is None:
        raise ImportError(
            "the vectorized kernels need numpy, which is not importable; "
            "check numpy_available() before calling into repro.kernels.vec"
        )
    return np


# ----------------------------------------------------------------------
# Frontier expansion
# ----------------------------------------------------------------------
def _gather_neighbors(np: Any, indptr: Any, indices: Any, frontier: Any) -> Any:
    """All neighbours of *frontier* (with duplicates) as one gather.

    Builds the flat index ``[indptr[u] .. indptr[u+1])`` for every
    frontier vertex ``u`` without a python-level loop: repeat each row
    start over its degree, then add a per-row ramp.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    cum = np.cumsum(counts)
    total = int(cum[-1]) if cum.size else 0
    if total == 0:
        return indices[:0]
    flat = np.arange(total, dtype=indptr.dtype) + np.repeat(starts - (cum - counts), counts)
    return indices[flat]


def _dedupe_scatter(np: Any, n: int, candidates: Any) -> Any:
    """Sorted unique vertex ids via flag scatter + ``flatnonzero``.

    One O(n) pass beats ``np.unique``'s hash/sort on the short, dense
    frontiers these kernels see, and the output comes back sorted for
    free (deterministic level order).
    """
    touched = np.zeros(n, dtype=bool)
    touched[candidates] = True
    return np.flatnonzero(touched)


def bfs_levels_csr(
    indptr: Sequence[int],
    indices: Sequence[int],
    source: int,
    max_depth: Optional[int] = None,
) -> list[list[int]]:
    """Vectorized twin of :func:`repro.index._traversal.bfs_levels_csr`.

    Reports the identical level *sets*; within a level vertices come
    out sorted rather than in discovery order, which every consumer in
    this package is insensitive to.
    """
    np = _require_numpy()
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = int(indptr.shape[0]) - 1
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    levels: list[list[int]] = []
    if max_depth is not None and max_depth <= 0:
        return levels
    # Level 1 is one contiguous row slice: CSR rows are unique and
    # sorted already, so no gather or dedupe is needed.
    row = indices[indptr[source] : indptr[source + 1]]
    frontier = row[~seen[row]]
    if frontier.size == 0:
        return levels
    seen[frontier] = True
    levels.append(frontier.tolist())
    depth = 1
    while max_depth is None or depth < max_depth:
        neighbors = _gather_neighbors(np, indptr, indices, frontier)
        candidates = neighbors[~seen[neighbors]]
        if candidates.size == 0:
            break
        frontier = _dedupe_scatter(np, n, candidates)
        seen[frontier] = True
        levels.append(frontier.tolist())
        depth += 1
    return levels


def bfs_distance_array_csr(
    indptr: Sequence[int],
    indices: Sequence[int],
    source: int,
    max_depth: Optional[int] = None,
) -> list[int]:
    """Vectorized twin of :func:`repro.index._traversal.bfs_distance_array_csr`.

    Vertices beyond *max_depth* hops (when given) keep
    :data:`UNREACHABLE`, exactly like the scalar twin.
    """
    np = _require_numpy()
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = int(indptr.shape[0]) - 1
    distances = np.full(n, UNREACHABLE, dtype=np.int64)
    distances[source] = 0
    if max_depth is not None and max_depth <= 0:
        return distances.tolist()
    row = indices[indptr[source] : indptr[source + 1]]
    frontier = row[distances[row] == UNREACHABLE]
    distances[frontier] = 1
    depth = 1
    while frontier.size and (max_depth is None or depth < max_depth):
        depth += 1
        neighbors = _gather_neighbors(np, indptr, indices, frontier)
        candidates = neighbors[distances[neighbors] == UNREACHABLE]
        if candidates.size == 0:
            break
        frontier = _dedupe_scatter(np, n, candidates)
        distances[frontier] = depth
    return distances.tolist()


# ----------------------------------------------------------------------
# Bitset packing
# ----------------------------------------------------------------------
def _pack_flags(np: Any, flags: Any) -> int:
    """Bool vertex array -> the engine's little-endian big-int bitset.

    ``np.packbits(bitorder="little")`` zero-pads the trailing byte, so
    the buffer matches ``bytearray((n + 7) >> 3)`` byte for byte and
    ``int.from_bytes(..., "little")`` yields the identical bitset the
    scalar path builds with per-vertex ``1 << v`` ORs.
    """
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def ball_bits_csr(
    indptr: Sequence[int], indices: Sequence[int], source: int, k: int
) -> int:
    """Vectorized twin of ``BallBitsetEngine._build_ball_csr``: the
    bitset of vertices at distance 1..k from *source* (source excluded),
    grown by fancy-indexed frontier gathers and packed in one sweep."""
    np = _require_numpy()
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = int(indptr.shape[0]) - 1
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    if k > 0:
        # Level 1 is one contiguous row slice: unique and sorted, so it
        # doubles as the next frontier with no dedupe.
        frontier = indices[indptr[source] : indptr[source + 1]]
        seen[frontier] = True
        for depth in range(2, k + 1):
            if frontier.size == 0:
                break
            neighbors = _gather_neighbors(np, indptr, indices, frontier)
            if depth == k:
                # Last level: the ball only needs membership — scatter
                # straight into the flags (duplicates and already-seen
                # vertices are no-ops) and skip the frontier entirely.
                seen[neighbors] = True
                break
            candidates = neighbors[~seen[neighbors]]
            if candidates.size == 0:
                break
            frontier = _dedupe_scatter(np, n, candidates)
            seen[frontier] = True
    seen[source] = False  # the ball excludes its own centre
    return _pack_flags(np, seen)


def pack_vertices(vertices: Iterable[int], num_vertices: int) -> int:
    """Bulk :meth:`BallBitsetEngine.encode`: scatter *vertices* into a
    bool array and pack, instead of one big-int OR per vertex."""
    np = _require_numpy()
    flags = np.zeros(num_vertices, dtype=bool)
    ids = np.fromiter(vertices, dtype=np.int64)
    if ids.size:
        flags[ids] = True
    return _pack_flags(np, flags)


def decode_mask(mask: int) -> set[int]:
    """Bulk :meth:`BallBitsetEngine.decode`: unpack the mask's bytes to
    a bit array and read the set vertex ids off ``np.nonzero``, instead
    of one isolate-lowest-bit big-int op per member."""
    np = _require_numpy()
    if mask == 0:
        return set()
    raw = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return set(np.nonzero(bits)[0].tolist())


# ----------------------------------------------------------------------
# Bulk popcount over packed keyword masks
# ----------------------------------------------------------------------
def popcount_bytes(data: bytes | bytearray | memoryview) -> int:
    """Total set bits in a packed byte buffer.

    Prefers ``np.bitwise_count`` (numpy >= 2.0), then ``np.unpackbits``,
    then a chunked ``int.from_bytes(...).bit_count()`` pure-python
    fallback, so numpy presence changes speed, never values.  The buffer is consumed
    zero-copy (``np.frombuffer`` on the caller's bytes / bytearray /
    contiguous memoryview); the empty buffer counts 0.
    """
    if len(data) == 0:
        return 0
    np = numpy_or_none()
    if np is not None:
        arr = np.frombuffer(data, dtype=np.uint8)
        if hasattr(np, "bitwise_count"):
            return int(np.bitwise_count(arr).sum())
        return int(np.unpackbits(arr).sum())
    view = memoryview(data)
    total = 0
    for start in range(0, len(view), _POPCOUNT_CHUNK):
        chunk = view[start : start + _POPCOUNT_CHUNK]
        total += int.from_bytes(chunk, "little").bit_count()
    return total


def bulk_popcount(masks: Sequence[int], mask_bytes: Optional[int] = None) -> list[int]:
    """Per-mask popcounts of packed keyword-mask ints.

    *mask_bytes*, when given, is the width every mask must fit: a mask
    too wide for it (or a negative mask) raises :class:`ValueError`, as
    does a negative mask without it.  An empty sequence returns ``[]``.
    ``int.bit_count`` already runs in C per mask, so there is no numpy
    path to choose.
    """
    if not masks:
        return []
    if mask_bytes is not None:
        if mask_bytes < 1:
            raise ValueError(f"mask_bytes must be >= 1, got {mask_bytes}")
        if min(masks) < 0 or max(masks).bit_length() > mask_bytes * 8:
            raise ValueError(f"a mask does not fit in mask_bytes={mask_bytes}")
    elif min(masks) < 0:
        raise ValueError("masks must be non-negative ints")
    return [mask.bit_count() for mask in masks]
