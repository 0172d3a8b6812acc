"""Exception hierarchy for the KTG reproduction library.

Every error raised by the public API derives from :class:`ReproError`, so
callers can catch one base class.  Subclasses exist per failure domain
(graph construction, query validation, index usage) because different
call sites want to handle them differently: a web service validating user
queries cares about :class:`QueryValidationError`, while an ingestion
pipeline cares about :class:`GraphConstructionError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphConstructionError",
    "KeywordLabelError",
    "UnknownVertexError",
    "QueryValidationError",
    "InfeasibleQueryError",
    "IndexBuildError",
    "IndexUpdateError",
    "SnapshotError",
    "SnapshotAttachError",
    "EpochError",
    "RegistryError",
    "UnknownGraphError",
    "DatasetError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphConstructionError(ReproError):
    """Raised when an attributed graph cannot be built from its inputs.

    Typical causes: self-loops, duplicate edges with conflicting data,
    edges referencing vertices that were never declared, or keyword
    tables mentioning unknown vertices.
    """


class KeywordLabelError(GraphConstructionError, ValueError):
    """Raised when vertex keyword labels are not an iterable of strings.

    Every label must be a non-empty ``str`` without NUL characters (the
    CSR snapshot stores labels NUL-separated), and a bare string is
    rejected rather than split into one label per character.  The graph
    checks this before interning anything, so a rejected edit leaves
    the graph unchanged.
    """


class UnknownVertexError(ReproError, KeyError):
    """Raised when an operation references a vertex id not in the graph."""

    def __init__(self, vertex: int) -> None:
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self) -> str:  # KeyError quotes its repr; give a message.
        return f"vertex {self.vertex} is not in the graph"


class QueryValidationError(ReproError, ValueError):
    """Raised when a KTG/DKTG query has invalid parameters.

    Examples: ``p < 2``, ``k < 0``, ``N < 1``, an empty query keyword
    set, or a diversification weight outside ``[0, 1]``.
    """


class InfeasibleQueryError(ReproError):
    """Raised when a query is well-formed but can never produce a group.

    The canonical case is ``p`` larger than the number of vertices that
    cover at least one query keyword.  Solvers normally *return* an empty
    result instead of raising; this error is reserved for strict mode.
    """


class IndexBuildError(ReproError):
    """Raised when a distance index cannot be constructed."""


class IndexUpdateError(ReproError):
    """Raised when a dynamic index update (edge insert/delete) is invalid.

    For example deleting an edge that does not exist, or inserting an
    edge whose endpoints are unknown to the indexed graph.
    """


class SnapshotError(ReproError):
    """Raised for invalid operations on a frozen CSR graph snapshot.

    Examples: mutating through a :class:`repro.core.csr.CsrGraphView`,
    sharing a snapshot that has already been released, or reading buffers
    after :meth:`repro.core.csr.CsrSnapshot.close`.
    """


class SnapshotAttachError(SnapshotError):
    """Raised when attaching to a shared CSR segment fails.

    The canonical cause is attach-after-release: the owning engine has
    already unlinked the segment (shutdown or ``graph.version`` bump) and
    the name no longer resolves.
    """


class EpochError(SnapshotError):
    """Raised for invalid operations on an epoch manager.

    Examples: mutating through a closed
    :class:`repro.core.epoch.EpochManager`, or enabling epoch serving
    on a service configuration that cannot support it (see
    ``QueryService(mutations=True)``).
    """


class RegistryError(ReproError):
    """Raised for invalid multi-graph registry operations.

    Examples: loading a registry entry without a name, or without a
    dataset profile or graph.
    """


class UnknownGraphError(RegistryError, KeyError):
    """Raised when a registry operation names a graph never loaded."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:  # KeyError quotes its repr; give a message.
        return f"no graph named {self.name!r} is registered"


class DatasetError(ReproError):
    """Raised for dataset loading/generation failures."""


class WorkloadError(ReproError):
    """Raised when a query workload cannot be generated as requested."""
