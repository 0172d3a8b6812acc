"""Bitset distance-ball kernels for the solver hot path.

See :mod:`repro.kernels.engine` for the representation and the cache /
fallback semantics, :mod:`repro.kernels.vec` for the numpy-vectorized
twins used whenever numpy is importable, and ``docs/kernels.md`` for
the design notes.
"""

from repro.kernels.engine import (
    DEFAULT_MAX_BALLS,
    BallBitsetEngine,
    resolve_distance_engine,
)
from repro.kernels.vec import numpy_available, resolve_kernel_backend

__all__ = [
    "BallBitsetEngine",
    "DEFAULT_MAX_BALLS",
    "numpy_available",
    "resolve_distance_engine",
    "resolve_kernel_backend",
]
