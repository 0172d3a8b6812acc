"""Tests for the numpy-vectorized bitset kernels (``repro.kernels.vec``).

Every vectorized kernel has a scalar twin; these tests pin the two
bit-identical, exercise the numpy-absent fallback (simulated via the
module-global ``_np`` cache), and check the ``kernels.vec_sweeps``
accounting on the engine.
"""

from __future__ import annotations

import pytest

from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.index.pll import PLLIndex
from repro.kernels import BallBitsetEngine, vec
from repro.kernels import engine as engine_mod
from repro.obs.instruments import InstrumentRegistry

from tests.conftest import make_random_attributed_graph

needs_numpy = pytest.mark.skipif(
    vec.numpy_or_none() is None, reason="numpy not importable"
)


@pytest.fixture(scope="module")
def graph():
    return make_random_attributed_graph(num_vertices=60, seed=23)


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
            vec.pack_vertices([0], 1)


# ----------------------------------------------------------------------
# Bitset helpers
# ----------------------------------------------------------------------
@needs_numpy
class TestBitsetHelpers:
    def test_pack_vertices_matches_encode(self):
        vertices = [0, 3, 17, 39]
        assert vec.pack_vertices(vertices, 40) == BallBitsetEngine.encode(vertices)
        assert vec.pack_vertices([], 40) == 0

    def test_decode_mask_matches_decode(self):
        mask = BallBitsetEngine.encode([0, 1, 63, 64, 511, 513])
        assert vec.decode_mask(mask) == BallBitsetEngine.decode(mask)
        assert vec.decode_mask(0) == set()


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
        engines = [
            _scalar_engine(graph, monkeypatch),
            BallBitsetEngine(BFSOracle(graph)),
        ]
        assert engines[1].backend == "numpy"
        for vertex in range(0, graph.num_vertices, 5):
            for k in (1, 2, 3):
                balls = {engine.ball(vertex, k) for engine in engines}
                assert len(balls) == 1

    @needs_numpy
    def test_vec_sweeps_counted(self, graph):
        registry = InstrumentRegistry()
        engine = BallBitsetEngine(BFSOracle(graph), instruments=registry)
        engine.ball(0, 2)
        engine.ball(0, 2)  # cache hit: no extra sweep
        assert engine.vec_sweeps == 1
        assert engine.counters()["vec_sweeps"] == 1
        assert registry.report()["counters"]["kernels.vec_sweeps"] == 1

    def test_python_backend_never_sweeps(self, graph, monkeypatch):
        engine = _scalar_engine(graph, monkeypatch)
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
        engine = BallBitsetEngine(BFSOracle(graph))
        assert engine.backend == "python"
        assert engine.ball(0, 2) == reference
        assert engine.vec_sweeps == 0


# ----------------------------------------------------------------------
# No layer takes a backend or layout option: numpy is used whenever it
# imports, and every traversal reads the live adjacency
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
            NLIndex(graph, kernel_backend="fortran")


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
        BFSOracle,
        NLIndex,
        PLLIndex,
        QueryService,
        AlgorithmSpec.build_oracle,
        resolve_distance_engine,
    ):
        names = inspect.signature(layer).parameters
        assert not [
            name for name in names if "backend" in name or name == "graph_layout"
        ], layer
