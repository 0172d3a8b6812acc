"""Unit tests for the NLRNL index."""

import pickle
import sys
import threading

import pytest

import repro.index.nlrnl as nlrnl_mod
from repro.core.graph import AttributedGraph
from repro.index.bfs import BFSOracle
from repro.index.nlrnl import NLRNLIndex


class TestConstruction:
    def test_c_values_are_peak_levels(self, figure1):
        index = NLRNLIndex(figure1)
        for vertex in figure1.vertices():
            levels = {}
            for other in figure1.vertices():
                if other == vertex:
                    continue
                distance = figure1.hop_distance(vertex, other)
                if distance is not None:
                    levels[distance] = levels.get(distance, 0) + 1
            if levels:
                peak = max(levels.values())
                assert levels[index.c_value(vertex)] == peak

    def test_id_halving(self, figure1):
        index = NLRNLIndex(figure1)
        for vertex in figure1.vertices():
            assert all(other > vertex for other in index._depth_of[vertex])

    def test_level_c_is_skipped(self, figure1):
        index = NLRNLIndex(figure1)
        for vertex in figure1.vertices():
            c = index.c_value(vertex)
            assert all(depth != c for depth in index._depth_of[vertex].values())

    def test_entries_counted(self, figure1):
        index = NLRNLIndex(figure1)
        assert index.stats.entries == sum(
            len(vertex_map) for vertex_map in index._depth_of
        )

    def test_smaller_than_unhalved_full_storage(self, figure1):
        # The map stores at most half the (ordered) pair universe.
        index = NLRNLIndex(figure1)
        pairs = figure1.num_vertices * (figure1.num_vertices - 1) // 2
        assert index.stats.entries <= pairs


class TestProbes:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_matches_bfs_ground_truth(self, figure1, k):
        index = NLRNLIndex(figure1)
        reference = BFSOracle(figure1)
        for u in figure1.vertices():
            for v in figure1.vertices():
                assert index.is_tenuous(u, v, k) == reference.is_tenuous(u, v, k), (
                    u,
                    v,
                    k,
                )

    def test_symmetry(self, figure1):
        index = NLRNLIndex(figure1)
        for u in figure1.vertices():
            for v in figure1.vertices():
                assert index.is_tenuous(u, v, 2) == index.is_tenuous(v, u, 2)

    def test_disconnected_pairs(self, disconnected_graph):
        index = NLRNLIndex(disconnected_graph)
        assert index.is_tenuous(0, 5, 100)
        assert index.is_tenuous(0, 3, 100)
        assert not index.is_tenuous(0, 1, 1)

    def test_missing_pair_is_distance_c(self, figure1):
        # For every same-component pair absent from the map, the true
        # distance must equal the smaller vertex's c value.
        index = NLRNLIndex(figure1)
        for u in figure1.vertices():
            for v in figure1.vertices():
                if v <= u or v in index._depth_of[u]:
                    continue
                assert figure1.hop_distance(u, v) == index.c_value(u)

    def test_distance_class_matches_bfs(self, figure1, disconnected_graph):
        for graph in (figure1, disconnected_graph):
            index = NLRNLIndex(graph)
            for u in graph.vertices():
                for v in graph.vertices():
                    expected = graph.hop_distance(u, v)
                    decoded = index.distance_class(u, v)
                    if expected is None:
                        assert decoded == float("inf")
                    else:
                        assert decoded == expected

    def test_paper_probe_example(self, figure1):
        # Checking dist(u3, u5) > 3: the paper's NLRNL walkthrough
        # concludes "not greater than 3" (the distance is exactly 3).
        index = NLRNLIndex(figure1)
        assert not index.is_tenuous(3, 5, 3)
        assert index.is_tenuous(3, 5, 2)


class TestFilterCandidates:
    def test_matches_bfs(self, figure1):
        index = NLRNLIndex(figure1)
        reference = BFSOracle(figure1)
        candidates = list(figure1.vertices())
        for member in figure1.vertices():
            for k in (0, 1, 2, 3):
                assert index.filter_candidates(candidates, member, k) == (
                    reference.filter_candidates(candidates, member, k)
                ), (member, k)

    def test_within_k_matches_bfs(self, figure1):
        index = NLRNLIndex(figure1)
        reference = BFSOracle(figure1)
        for vertex in figure1.vertices():
            assert index.within_k(vertex, 2) == reference.within_k(vertex, 2)


class TestSingletons:
    def test_single_vertex_graph(self):
        graph = AttributedGraph(1)
        index = NLRNLIndex(graph)
        assert index.stats.entries == 0
        assert not index.is_tenuous(0, 0, 1)

    def test_empty_graph(self):
        index = NLRNLIndex(AttributedGraph(0))
        assert index.stats.entries == 0

    def test_star_graph(self):
        graph = AttributedGraph(5, [(0, i) for i in range(1, 5)])
        index = NLRNLIndex(graph)
        reference = BFSOracle(graph)
        for u in graph.vertices():
            for v in graph.vertices():
                for k in (0, 1, 2, 3):
                    assert index.is_tenuous(u, v, k) == reference.is_tenuous(u, v, k)


def assert_filters_match_bfs(index, graph, ks=(0, 1, 2, 3, 4)):
    reference = BFSOracle(graph)
    candidates = list(graph.vertices())
    for member in graph.vertices():
        for k in ks:
            assert index.filter_candidates(candidates, member, k) == (
                reference.filter_candidates(candidates, member, k)
            ), (member, k)


class TestRowCache:
    def test_rows_are_built_lazily(self, figure1):
        index = NLRNLIndex(figure1)
        assert index._rows == {} and index._row_bytes == 0
        index.filter_candidates([1, 2, 3], 0, 2)
        assert set(index._rows) == {(0, -1), (0, 2)}
        assert index._row_bytes == 2 * figure1.num_vertices

    def test_filtering_keeps_probe_and_entry_accounting(self, figure1):
        index = NLRNLIndex(figure1)
        entries = index.stats.entries
        candidates = list(figure1.vertices())
        for _ in range(2):  # cold, then warm
            index.filter_candidates(candidates, 3, 1)
        assert index.stats.probes == 2 * len(candidates)
        assert index.stats.entries == entries

    def test_candidate_order_and_duplicates_preserved(self, figure1):
        index = NLRNLIndex(figure1)
        reference = BFSOracle(figure1)
        candidates = [9, 2, 2, 0, 11, 5, 9]
        assert index.filter_candidates(candidates, 4, 1) == (
            reference.filter_candidates(candidates, 4, 1)
        )

    def test_disconnected_and_large_k(self, disconnected_graph):
        index = NLRNLIndex(disconnected_graph)
        assert_filters_match_bfs(index, disconnected_graph, ks=(0, 1, 2, 254, 255, 1000))

    def test_byte_budget_bounds_the_cache(self, random_graph, monkeypatch):
        n = random_graph.num_vertices
        monkeypatch.setattr(nlrnl_mod, "ROW_CACHE_BYTES", 5 * n)
        index = NLRNLIndex(random_graph)
        assert_filters_match_bfs(index, random_graph)
        assert index._row_bytes <= 5 * n
        assert index._row_bytes == sum(len(row) for row in index._rows.values())

    def test_edge_repair_evicts_only_affected_rows(self, disconnected_graph):
        index = NLRNLIndex(disconnected_graph)
        for member in disconnected_graph.vertices():
            index.filter_candidates([0, 1, 2, 3, 4, 5], member, 1)
        # Joining 3-4 to 5 changes no distance inside the triangle.
        index.insert_edge(4, 5)
        assert {key[0] for key in index._rows} == {0, 1, 2}
        assert_filters_match_bfs(index, disconnected_graph)
        index.delete_edge(0, 1)
        assert_filters_match_bfs(index, disconnected_graph)

    def test_keyword_edit_keeps_rows_and_vertex_insert_resets(self, figure1):
        index = NLRNLIndex(figure1)
        index.filter_candidates([1, 2], 0, 1)
        figure1.set_keywords(0, ["SN"])
        index.note_keywords_changed()
        assert (0, 1) in index._rows
        index.insert_vertex(["QP"])
        assert index._rows == {} and index._row_bytes == 0
        assert_filters_match_bfs(index, figure1)

    def test_rebuild_resets(self, figure1):
        index = NLRNLIndex(figure1)
        index.filter_candidates([1, 2], 0, 1)
        index.rebuild()
        assert index._rows == {}

    def test_pickle_drops_the_cache(self, figure1):
        index = NLRNLIndex(figure1)
        assert_filters_match_bfs(index, figure1)
        state = index.__getstate__()
        assert "_rows" not in state and "_row_lock" not in state
        clone = pickle.loads(pickle.dumps(index))
        assert clone._rows == {} and clone._row_bytes == 0
        assert_filters_match_bfs(clone, clone.graph)
        far = max(clone.graph.vertices(), key=lambda v: clone.distance_class(0, v))
        clone.insert_edge(0, far)
        assert_filters_match_bfs(clone, clone.graph)


class TestRowCacheThreads:
    def test_concurrent_filters_stay_exact_under_eviction(self, monkeypatch):
        from tests.conftest import make_random_attributed_graph

        graph = make_random_attributed_graph(num_vertices=60, seed=3)
        n = graph.num_vertices
        # A budget of a few rows forces constant eviction while threads
        # build and read rows.
        monkeypatch.setattr(nlrnl_mod, "ROW_CACHE_BYTES", 6 * n)
        index = NLRNLIndex(graph)
        reference = BFSOracle(graph)
        candidates = list(graph.vertices())
        expected = {
            (member, k): reference.filter_candidates(candidates, member, k)
            for member in graph.vertices()
            for k in (1, 2, 3)
        }
        mismatches: list = []

        def worker(offset):
            for step in range(300):
                member, k = (offset * 7 + step) % n, 1 + (offset + step) % 3
                if index.filter_candidates(candidates, member, k) != expected[(member, k)]:
                    mismatches.append((member, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert index._row_bytes == sum(len(row) for row in index._rows.values())
        assert index._row_bytes <= 6 * n


class TestLongDistances:
    """Distances >= 255 switch distance rows to a wider array type."""

    @pytest.fixture(scope="class")
    def long_path(self):
        # 0-1-...-299 plus an isolated vertex 300.
        return AttributedGraph(301, [(i, i + 1) for i in range(299)])

    def test_filter_matches_true_distances(self, long_path):
        index = NLRNLIndex(long_path)
        candidates = list(long_path.vertices())
        for member in (0, 5, 150, 299, 300):
            for k in (0, 1, 200, 254, 255, 256, 298, 299, 300, 10**9):
                expected = [
                    v
                    for v in candidates
                    if v != member
                    and (v == 300 or member == 300 or abs(v - member) > k)
                ]
                assert index.filter_candidates(candidates, member, k) == expected
        assert index._rows[(0, -1)].typecode == "H"
        assert isinstance(index._rows[(150, -1)], bytes)
