"""Unit tests for the ball-bitset distance engine."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.branch_and_bound import BranchAndBoundSolver
from repro.core.graph import AttributedGraph
from repro.index.bfs import BFSOracle
from repro.kernels import BallBitsetEngine, DEFAULT_MAX_BALLS, resolve_distance_engine
from repro.obs.instruments import InstrumentRegistry

from tests.conftest import make_random_attributed_graph, run_threads


@pytest.fixture
def graph():
    return make_random_attributed_graph(seed=11)


@pytest.fixture
def engine(graph):
    return BallBitsetEngine(BFSOracle(graph))


class TestBalls:
    def test_ball_matches_within_k(self, graph, engine):
        oracle = BFSOracle(graph)
        for vertex in range(graph.num_vertices):
            for k in (1, 2, 3):
                assert engine.decode(engine.ball(vertex, k)) == oracle.within_k(
                    vertex, k
                )

    def test_ball_excludes_center(self, engine):
        assert not (engine.ball(0, 2) >> 0) & 1

    def test_blocked_mask_includes_center(self, engine):
        assert (engine.blocked_mask(0, 2) >> 0) & 1

    def test_nonpositive_k_is_empty(self, engine):
        assert engine.ball(3, 0) == 0
        assert engine.ball(3, -1) == 0

    def test_encode_decode_roundtrip(self, engine):
        vertices = {0, 3, 17, 21}
        assert engine.decode(engine.encode(vertices)) == vertices
        assert engine.decode(0) == set()

    def test_graph_property(self, graph, engine):
        assert engine.graph is graph


class TestCache:
    def test_hit_counting(self, engine):
        engine.ball(0, 2)
        engine.ball(0, 2)
        assert engine.ball_builds == 1
        assert engine.ball_hits == 1
        assert len(engine) == 1

    def test_lru_eviction(self, graph):
        engine = BallBitsetEngine(BFSOracle(graph), max_balls=2)
        engine.ball(0, 1)
        engine.ball(1, 1)
        engine.ball(0, 1)  # refresh 0 — 1 is now LRU
        engine.ball(2, 1)  # evicts (1, 1)
        assert engine.ball_evictions == 1
        assert len(engine) == 2
        engine.ball(1, 1)
        assert engine.ball_builds == 4  # (1,1) had to be rebuilt

    def test_zero_budget_disables_caching(self, graph):
        engine = BallBitsetEngine(BFSOracle(graph), max_balls=0)
        first = engine.ball(0, 2)
        assert engine.ball(0, 2) == first
        assert engine.ball_builds == 2
        assert engine.ball_hits == 0
        assert len(engine) == 0

    def test_negative_budget_rejected(self, graph):
        with pytest.raises(ValueError, match="max_balls"):
            BallBitsetEngine(BFSOracle(graph), max_balls=-1)

    def test_version_bump_invalidates(self):
        g = AttributedGraph(4, [(0, 1), (2, 3)], {v: ["a"] for v in range(4)})
        engine = BallBitsetEngine(BFSOracle(g))
        assert engine.decode(engine.ball(0, 1)) == {1}
        g.add_edge(0, 2)
        # The oracle rebuild is the caller's concern; a fresh oracle on
        # the mutated graph shows the kernel dropping its stale balls.
        engine = BallBitsetEngine(BFSOracle(g))
        assert engine.decode(engine.ball(0, 1)) == {1, 2}

    def test_stale_version_detected_inline(self):
        g = AttributedGraph(4, [(0, 1), (2, 3)], {v: ["a"] for v in range(4)})
        oracle = BFSOracle(g)
        engine = BallBitsetEngine(oracle)
        engine.ball(0, 1)
        g.add_edge(0, 2)
        oracle.rebuild()
        assert engine.decode(engine.ball(0, 1)) == {1, 2}
        assert engine.ball_builds == 2

    def test_counters_dict(self, engine):
        engine.ball(0, 2)
        engine.ball(0, 2)
        counts = engine.counters()
        assert counts["ball_builds"] == 1
        assert counts["ball_hits"] == 1
        assert counts["ball_evictions"] == 0
        assert counts["mask_filters"] == 0

    def test_registry_counters(self, graph):
        registry = InstrumentRegistry()
        engine = BallBitsetEngine(BFSOracle(graph), instruments=registry)
        engine.ball(0, 2)
        engine.ball(0, 2)
        engine.filter_list([1, 2], engine.encode([1, 2]), 0, 2)
        report = registry.report()["counters"]
        assert report["kernels.ball_builds"] == 1
        # One direct re-read plus the filter's own ball lookup.
        assert report["kernels.ball_hits"] == 2
        assert report["kernels.mask_filters"] == 1


class TestCounterThreadSafety:
    def test_thread_hammer_counters_match_registry(self, graph):
        """Bare ``+= 1`` on the stat counters loses increments under a
        thread fleet; with the lock-protected bumps the local mirrors,
        the registry totals and the exact call count all agree."""
        registry = InstrumentRegistry()
        engine = BallBitsetEngine(
            BFSOracle(graph), max_balls=8, instruments=registry
        )
        threads = 8
        rounds = 300

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(rounds):
                vertex = rng.randrange(graph.num_vertices)
                k = rng.choice((1, 2, 3))
                engine.ball(vertex, k)
                engine.filter_mask(1 << vertex, (vertex + 1) % graph.num_vertices, k)

        run_threads(threads, hammer)

        counts = engine.counters()
        report = registry.report()["counters"]
        for name, value in counts.items():
            assert report.get(f"kernels.{name}", 0) == value
        # Every iteration calls ball() twice (once directly, once inside
        # filter_mask), so a single lost increment breaks this total.
        assert counts["ball_builds"] + counts["ball_hits"] == threads * rounds * 2
        assert counts["mask_filters"] == threads * rounds
        # The tiny budget forces heavy eviction churn under contention.
        assert counts["ball_evictions"] > 0
        assert len(engine) <= 8


class TestFiltering:
    def test_filter_list_preserves_order(self, graph, engine):
        oracle = BFSOracle(graph)
        candidates = list(range(graph.num_vertices))
        mask = engine.encode(candidates)
        filtered, filtered_mask = engine.filter_list(candidates, mask, 0, 2)
        assert filtered == oracle.filter_candidates(candidates, 0, 2)
        assert engine.decode(filtered_mask) == set(filtered)

    def test_filter_list_noop_returns_same_list(self, engine):
        # A candidate set already disjoint from the ball is returned
        # as-is (no copy) — the hot-path fast exit.
        ball = engine.ball(0, 1)
        far = [v for v in range(40) if not (ball >> v) & 1 and v != 0][:4]
        mask = engine.encode(far)
        filtered, filtered_mask = engine.filter_list(far, mask, 0, 1)
        assert filtered is far
        assert filtered_mask == mask

    def test_filter_candidates_matches_oracle(self, graph, engine):
        oracle = BFSOracle(graph)
        candidates = list(range(0, graph.num_vertices, 2))
        assert engine.filter_candidates(candidates, 1, 2) == oracle.filter_candidates(
            candidates, 1, 2
        )

    def test_exclusion_mask(self, graph, engine):
        mask = engine.exclusion_mask([0, 5], 2)
        expected = engine.blocked_mask(0, 2) | engine.blocked_mask(5, 2)
        assert mask == expected


class TestTenuity:
    def test_is_tenuous_matches_oracle(self, graph, engine):
        oracle = BFSOracle(graph)
        for u in range(0, graph.num_vertices, 3):
            for v in range(1, graph.num_vertices, 4):
                for k in (1, 2):
                    assert engine.is_tenuous(u, v, k) == oracle.is_tenuous(u, v, k)

    def test_pairwise_tenuous_matches_oracle(self, graph, engine):
        oracle = BFSOracle(graph)
        groups = [[0, 7, 19], [2, 3], [1, 12, 25, 33], [5]]
        for members in groups:
            for k in (1, 2):
                expected = all(
                    oracle.is_tenuous(a, b, k)
                    for i, a in enumerate(members)
                    for b in members[i + 1 :]
                )
                assert engine.pairwise_tenuous(members, k) == expected

    def test_new_member_tenuous(self, graph, engine):
        oracle = BFSOracle(graph)
        members = [0, 19]
        members_mask = engine.encode(members)
        for vertex in range(graph.num_vertices):
            if vertex in members:
                continue
            expected = all(oracle.is_tenuous(vertex, m, 2) for m in members)
            assert engine.new_member_tenuous(members_mask, vertex, 2) == expected


class TestResolveAndPickle:
    def test_resolve_rejects_unknown_engine(self, graph):
        with pytest.raises(ValueError, match="distance_engine"):
            resolve_distance_engine("quantum", BFSOracle(graph), None)

    def test_resolve_rejects_foreign_kernel(self, graph):
        kernel = BallBitsetEngine(BFSOracle(graph))
        with pytest.raises(ValueError, match="different oracle"):
            resolve_distance_engine("bitset", BFSOracle(graph), kernel)

    def test_resolve_builds_default(self, graph):
        oracle = BFSOracle(graph)
        kernel = resolve_distance_engine("bitset", oracle, None)
        assert isinstance(kernel, BallBitsetEngine)
        assert kernel.oracle is oracle
        assert kernel.max_balls == DEFAULT_MAX_BALLS
        assert resolve_distance_engine("oracle", oracle, None) is None

    def test_pickle_drops_balls_keeps_config(self, graph):
        engine = BallBitsetEngine(BFSOracle(graph), max_balls=17)
        engine.ball(0, 2)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.max_balls == 17
        assert len(clone) == 0
        # The clone is fully usable (lock restored, balls rebuilt).
        assert clone.ball(0, 2) == engine.ball(0, 2)

    def test_solver_accepts_kernel_instance(self, graph):
        oracle = BFSOracle(graph)
        kernel = BallBitsetEngine(oracle)
        solver = BranchAndBoundSolver(graph, oracle=oracle, kernel=kernel)
        assert solver.kernel is kernel
        assert solver.distance_engine == "bitset"

    def test_solver_rejects_mismatched_kernel(self, graph):
        kernel = BallBitsetEngine(BFSOracle(graph))
        with pytest.raises(ValueError, match="different oracle"):
            BranchAndBoundSolver(graph, oracle=BFSOracle(graph), kernel=kernel)
