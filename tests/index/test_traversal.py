"""Unit tests for the BFS traversal primitives."""

from repro.core.graph import AttributedGraph
from repro.index._traversal import (
    UNREACHABLE,
    bfs_distance_array,
    bfs_levels,
)


def adjacency_of(graph):
    return graph.adjacency_view()


class TestBfsLevels:
    def test_path_levels(self, path_graph):
        levels = bfs_levels(adjacency_of(path_graph), 0)
        assert levels == [[1], [2], [3], [4]]

    def test_max_depth_truncates(self, path_graph):
        levels = bfs_levels(adjacency_of(path_graph), 0, max_depth=2)
        assert levels == [[1], [2]]

    def test_no_trailing_empty_levels(self, path_graph):
        levels = bfs_levels(adjacency_of(path_graph), 2)
        assert levels == [[1, 3], [0, 4]]

    def test_source_not_included(self, path_graph):
        levels = bfs_levels(adjacency_of(path_graph), 0)
        assert all(0 not in level for level in levels)

    def test_isolated_vertex(self):
        graph = AttributedGraph(3, [(0, 1)])
        assert bfs_levels(adjacency_of(graph), 2) == []

    def test_levels_partition_component(self, figure1):
        levels = bfs_levels(adjacency_of(figure1), 0)
        flattened = [v for level in levels for v in level]
        assert sorted(flattened) == [v for v in range(12) if v != 0]
        assert len(set(flattened)) == len(flattened)

    def test_levels_match_distances(self, figure1):
        for source in figure1.vertices():
            levels = bfs_levels(adjacency_of(figure1), source)
            for depth, level in enumerate(levels, start=1):
                for vertex in level:
                    assert figure1.hop_distance(source, vertex) == depth


class TestBfsDistanceArray:
    def test_path_distances(self, path_graph):
        assert bfs_distance_array(adjacency_of(path_graph), 0) == [0, 1, 2, 3, 4]

    def test_unreachable_marked(self, disconnected_graph):
        distances = bfs_distance_array(adjacency_of(disconnected_graph), 0)
        assert distances[3] == UNREACHABLE
        assert distances[5] == UNREACHABLE
        assert distances[0] == 0

    def test_matches_graph_bfs(self, figure1):
        for source in figure1.vertices():
            array = bfs_distance_array(adjacency_of(figure1), source)
            reference = figure1.bfs_distances(source)
            for vertex in figure1.vertices():
                expected = reference.get(vertex, UNREACHABLE)
                assert array[vertex] == expected

    def test_max_depth_truncates(self, path_graph):
        # Vertices past max_depth hops keep UNREACHABLE, mirroring the
        # bfs_levels semantics.
        adjacency = adjacency_of(path_graph)
        assert bfs_distance_array(adjacency, 0, max_depth=2) == [
            0,
            1,
            2,
            UNREACHABLE,
            UNREACHABLE,
        ]
        assert bfs_distance_array(adjacency, 0, max_depth=0) == [
            0,
            UNREACHABLE,
            UNREACHABLE,
            UNREACHABLE,
            UNREACHABLE,
        ]

    def test_max_depth_matches_unbounded_prefix(self, figure1):
        adjacency = adjacency_of(figure1)
        for source in figure1.vertices():
            full = bfs_distance_array(adjacency, source)
            for max_depth in (1, 2, 3):
                bounded = bfs_distance_array(adjacency, source, max_depth)
                assert bounded == [
                    d if 0 <= d <= max_depth else UNREACHABLE for d in full
                ]
