"""numpy-vectorized bitset encode/decode for the ball engine.

:class:`repro.kernels.engine.BallBitsetEngine` stores each k-hop ball as
a Python ``int`` bitset over dense vertex ids.  This module provides the
two bulk conversions it needs:

* :func:`pack_vertices` — scatter a vertex collection into a bool array
  and pack it with one ``np.packbits`` call, instead of one big-int OR
  per vertex;
* :func:`decode_mask` — unpack a wide mask's bytes and read the set
  vertex ids off ``np.nonzero``, instead of one isolate-lowest-bit
  big-int op per member.

numpy stays an *optional* dependency with no setting: the engine uses
these kernels whenever numpy is importable and its pure-python twins
otherwise.  numpy is imported on first use (a ball engine's
construction or a kernel call), never by importing this module or by
:func:`numpy_available`, so processes that run no kernel never load
it.  The resolved numpy module is cached in the module-global ``_np``
so tests can simulate a numpy-absent environment by monkeypatching it
to ``None`` — no uninstall needed.  Both paths are
bit-identical by construction: the packed bitsets use the same
little-endian weight ``1 << v`` per vertex.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Iterable

__all__ = [
    "resolve_kernel_backend",
    "numpy_available",
    "numpy_or_none",
    "pack_vertices",
    "decode_mask",
]

_UNRESOLVED = object()
#: Cached numpy module, or ``None`` when unimportable.  Monkeypatch to
#: ``None`` to simulate a numpy-absent environment in tests.
_np: Any = _UNRESOLVED


def numpy_or_none() -> Any:
    """The numpy module if importable, else ``None`` (cached).  The
    first call imports numpy."""
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
    """Whether numpy is installed, answered without importing it (until
    :func:`numpy_or_none` has resolved it, this only finds the module;
    an installed numpy that fails to import reads False afterwards)."""
    if _np is _UNRESOLVED:
        return importlib.util.find_spec("numpy") is not None
    return _np is not None


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
            "check numpy_or_none() before calling into repro.kernels.vec"
        )
    return np


# ----------------------------------------------------------------------
# Bitset packing
# ----------------------------------------------------------------------
def pack_vertices(vertices: Iterable[int], num_vertices: int) -> int:
    """Bulk :meth:`BallBitsetEngine.encode`: scatter *vertices* into a
    bool array and pack, instead of one big-int OR per vertex.

    ``np.packbits(bitorder="little")`` zero-pads the trailing byte, so
    ``int.from_bytes(..., "little")`` yields the identical bitset the
    scalar path builds with per-vertex ``1 << v`` ORs.
    """
    np = _require_numpy()
    flags = np.zeros(num_vertices, dtype=bool)
    ids = np.fromiter(vertices, dtype=np.int64)
    if ids.size:
        flags[ids] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


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
