"""Tests for the numpy-vectorized kernel twins (``repro.kernels.vec``).

Every vectorized kernel has a scalar twin; these tests pin the two
bit-identical, exercise the numpy-absent fallback (simulated via the
module-global ``_np`` cache), and check the ``kernels.vec_sweeps``
accounting on the engine.
"""

from __future__ import annotations

import pytest

from repro.core.graph import AttributedGraph
from repro.index._traversal import (
    UNREACHABLE,
    bfs_distance_array_csr,
    bfs_levels_csr,
)
from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.kernels import BallBitsetEngine, vec
from repro.kernels import engine as engine_mod
from repro.obs.instruments import InstrumentRegistry

from tests.conftest import make_random_attributed_graph

needs_numpy = pytest.mark.skipif(
    not vec.numpy_available(), reason="numpy not importable"
)


@pytest.fixture(scope="module")
def graph():
    return make_random_attributed_graph(num_vertices=60, seed=23)


@pytest.fixture(scope="module")
def csr(graph):
    snapshot = graph.csr_snapshot()
    return snapshot.indptr, snapshot.indices


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    @needs_numpy
    def test_auto_prefers_numpy(self):
        assert vec.resolve_kernel_backend("auto") == "numpy"
        assert vec.resolve_kernel_backend() == "numpy"

    def test_auto_falls_back_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vec, "_np", None)
        assert not vec.numpy_available()
        assert vec.resolve_kernel_backend("auto") == "python"

    def test_only_auto_is_accepted(self):
        for value in ("numpy", "python"):
            with pytest.raises(ValueError, match="'auto'"):
                vec.resolve_kernel_backend(value)

    def test_vec_kernels_refuse_to_run_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vec, "_np", None)
        with pytest.raises(ImportError, match="numpy"):
            vec.bfs_levels_csr([0, 0], [], 0)


# ----------------------------------------------------------------------
# Traversal twins
# ----------------------------------------------------------------------
@needs_numpy
class TestTraversalTwins:
    def test_levels_match_scalar(self, graph, csr):
        indptr, indices = csr
        for source in range(graph.num_vertices):
            scalar = bfs_levels_csr(indptr, indices, source)
            fast = vec.bfs_levels_csr(indptr, indices, source)
            # The vectorized kernel sorts within a level; the level
            # *sets* must agree exactly.
            assert [set(level) for level in scalar] == [set(level) for level in fast]
            assert all(level == sorted(level) for level in fast)

    def test_levels_respect_max_depth(self, graph, csr):
        indptr, indices = csr
        for max_depth in (0, 1, 2, 3, None):
            scalar = bfs_levels_csr(indptr, indices, 0, max_depth)
            fast = vec.bfs_levels_csr(indptr, indices, 0, max_depth)
            assert [set(level) for level in scalar] == [set(level) for level in fast]

    def test_distances_match_scalar(self, graph, csr):
        indptr, indices = csr
        for source in range(graph.num_vertices):
            assert vec.bfs_distance_array_csr(
                indptr, indices, source
            ) == bfs_distance_array_csr(indptr, indices, source)

    def test_distances_respect_max_depth(self, csr):
        indptr, indices = csr
        full = vec.bfs_distance_array_csr(indptr, indices, 0)
        for max_depth in (0, 1, 2, 3):
            bounded = vec.bfs_distance_array_csr(indptr, indices, 0, max_depth)
            assert bounded == [
                d if 0 <= d <= max_depth else UNREACHABLE for d in full
            ]
            assert bounded == bfs_distance_array_csr(indptr, indices, 0, max_depth)

    def test_isolated_vertex(self):
        g = AttributedGraph(3, [(0, 1)])
        snapshot = g.csr_snapshot()
        assert vec.bfs_levels_csr(snapshot.indptr, snapshot.indices, 2) == []
        assert vec.bfs_distance_array_csr(snapshot.indptr, snapshot.indices, 2) == [
            UNREACHABLE,
            UNREACHABLE,
            0,
        ]


# ----------------------------------------------------------------------
# Bitset helpers
# ----------------------------------------------------------------------
@needs_numpy
class TestBitsetHelpers:
    def test_ball_bits_matches_scalar_engine(self, graph, csr, monkeypatch):
        monkeypatch.setattr(vec, "_np", None)
        engine = BallBitsetEngine(BFSOracle(graph), graph_layout="csr")
        assert engine.backend == "python"
        monkeypatch.undo()
        indptr, indices = csr
        for vertex in range(0, graph.num_vertices, 3):
            for k in (1, 2, 3):
                assert vec.ball_bits_csr(indptr, indices, vertex, k) == engine.ball(
                    vertex, k
                )

    def test_ball_bits_nonpositive_k_is_empty(self, csr):
        indptr, indices = csr
        assert vec.ball_bits_csr(indptr, indices, 0, 0) == 0
        assert vec.ball_bits_csr(indptr, indices, 0, -1) == 0

    def test_pack_vertices_matches_encode(self):
        vertices = [0, 3, 17, 39]
        assert vec.pack_vertices(vertices, 40) == BallBitsetEngine.encode(vertices)
        assert vec.pack_vertices([], 40) == 0

    def test_decode_mask_matches_decode(self):
        mask = BallBitsetEngine.encode([0, 1, 63, 64, 511, 513])
        assert vec.decode_mask(mask) == BallBitsetEngine.decode(mask)
        assert vec.decode_mask(0) == set()


# ----------------------------------------------------------------------
# Popcount ladder
# ----------------------------------------------------------------------
class TestPopcount:
    MASKS = [0, 1, 0b1011, (1 << 100) - 1, (1 << 513) | 7, 1 << 9000]

    @staticmethod
    def _raw(mask):
        return mask.to_bytes(max(1, (mask.bit_length() + 7) >> 3), "little")

    def test_popcount_bytes_matches_bit_count(self):
        for mask in self.MASKS:
            assert vec.popcount_bytes(self._raw(mask)) == mask.bit_count()

    def test_popcount_bytes_python_fallback(self, monkeypatch):
        monkeypatch.setattr(vec, "_np", None)
        # Longer than _POPCOUNT_CHUNK so the chunk loop runs >1 round.
        data = bytes(range(256)) * 17
        assert vec.popcount_bytes(data) == sum(b.bit_count() for b in data)
        assert vec.popcount_bytes(b"") == 0

    def test_bulk_popcount_matches_bit_count(self):
        assert vec.bulk_popcount(self.MASKS) == [m.bit_count() for m in self.MASKS]
        assert vec.bulk_popcount([]) == []

    def test_bulk_popcount_python_fallback(self, monkeypatch):
        monkeypatch.setattr(vec, "_np", None)
        assert vec.bulk_popcount(self.MASKS) == [m.bit_count() for m in self.MASKS]

    def test_bulk_popcount_explicit_width(self):
        assert vec.bulk_popcount([1, 3], mask_bytes=16) == [1, 2]


# ----------------------------------------------------------------------
# Engine backend integration
# ----------------------------------------------------------------------
def _scalar_engine(graph, monkeypatch, **options):
    """An engine built while numpy is hidden: it keeps the python kernels."""
    with monkeypatch.context() as patch:
        patch.setattr(vec, "_np", None)
        engine = BallBitsetEngine(BFSOracle(graph), **options)
    assert engine.backend == "python"
    return engine


class TestEngineBackends:
    def test_backend_attributes(self, graph):
        engine = BallBitsetEngine(BFSOracle(graph))
        assert engine.backend == vec.resolve_kernel_backend()

    def test_bad_backend_rejected(self, graph):
        with pytest.raises(TypeError, match="kernel_backend"):
            BallBitsetEngine(BFSOracle(graph), kernel_backend="fortran")

    @needs_numpy
    def test_balls_identical_across_backends(self, graph, monkeypatch):
        for layout in ("adjacency", "csr"):
            engines = [
                _scalar_engine(graph, monkeypatch, graph_layout=layout),
                BallBitsetEngine(BFSOracle(graph), graph_layout=layout),
            ]
            assert engines[1].backend == "numpy"
            for vertex in range(0, graph.num_vertices, 5):
                for k in (1, 2, 3):
                    balls = {engine.ball(vertex, k) for engine in engines}
                    assert len(balls) == 1

    @needs_numpy
    def test_vec_sweeps_counted(self, graph):
        registry = InstrumentRegistry()
        engine = BallBitsetEngine(
            BFSOracle(graph), graph_layout="csr", instruments=registry
        )
        engine.ball(0, 2)
        engine.ball(0, 2)  # cache hit: no extra sweep
        assert engine.vec_sweeps == 1
        assert engine.counters()["vec_sweeps"] == 1
        assert registry.report()["counters"]["kernels.vec_sweeps"] == 1

    def test_python_backend_never_sweeps(self, graph, monkeypatch):
        engine = _scalar_engine(graph, monkeypatch, graph_layout="csr")
        candidates = list(range(graph.num_vertices))
        engine.filter_list(candidates, engine.encode(candidates), 0, 2)
        assert engine.vec_sweeps == 0

    @needs_numpy
    def test_wide_mask_decode_routes_through_vec(self, graph, monkeypatch):
        # Force every decode through the vectorized path regardless of
        # mask width, then check the filter output is bit-identical to
        # the scalar backend's.
        monkeypatch.setattr(engine_mod, "VEC_DECODE_MIN_BITS", 1)
        fast = BallBitsetEngine(BFSOracle(graph))
        base = _scalar_engine(graph, monkeypatch)
        candidates = list(range(graph.num_vertices))
        mask = fast.encode(candidates)
        assert fast.filter_list(candidates, mask, 0, 2) == base.filter_list(
            candidates, mask, 0, 2
        )
        # One sweep for the ball pack, one for the decode.
        assert fast.vec_sweeps >= 2

    def test_auto_engine_falls_back_without_numpy(self, graph, monkeypatch):
        reference = BallBitsetEngine(BFSOracle(graph)).ball(0, 2)
        monkeypatch.setattr(vec, "_np", None)
        engine = BallBitsetEngine(BFSOracle(graph), graph_layout="csr")
        assert engine.backend == "python"
        assert engine.ball(0, 2) == reference
        assert engine.vec_sweeps == 0


# ----------------------------------------------------------------------
# NL index backend parity
# ----------------------------------------------------------------------
@needs_numpy
def test_nl_csr_build_identical_across_backends(graph, monkeypatch):
    fast = NLIndex(graph, graph_layout="csr")
    monkeypatch.setattr(vec, "_np", None)
    base = NLIndex(graph, graph_layout="csr")
    assert fast.depth == base.depth
    assert fast.stats.entries == base.stats.entries
    for vertex in range(graph.num_vertices):
        assert fast.level_sets(vertex) == base.level_sets(vertex)


# ----------------------------------------------------------------------
# No layer takes a backend option: numpy is used whenever it imports
# ----------------------------------------------------------------------
class TestLayerValidation:
    def test_solver_rejects_bad_backend(self, graph):
        from repro.core.branch_and_bound import BranchAndBoundSolver

        with pytest.raises(TypeError, match="kernel_backend"):
            BranchAndBoundSolver(graph, kernel_backend="fortran")

    def test_service_rejects_bad_backend(self, graph):
        from repro.service import QueryService

        with pytest.raises(TypeError, match="kernel_backend"):
            QueryService(graph, kernel_backend="fortran")

    def test_nl_rejects_bad_backend(self, graph):
        with pytest.raises(TypeError, match="kernel_backend"):
            NLIndex(graph, graph_layout="csr", kernel_backend="fortran")


def test_no_layer_takes_a_backend_option():
    import inspect

    from repro.core.branch_and_bound import BranchAndBoundSolver
    from repro.core.bruteforce import BruteForceSolver
    from repro.kernels.engine import resolve_distance_engine
    from repro.service import QueryService
    from repro.workloads.runner import AlgorithmSpec

    for layer in (
        BallBitsetEngine,
        BranchAndBoundSolver,
        BruteForceSolver,
        NLIndex,
        QueryService,
        AlgorithmSpec.build_oracle,
        resolve_distance_engine,
    ):
        names = inspect.signature(layer).parameters
        assert not [name for name in names if "backend" in name], layer
