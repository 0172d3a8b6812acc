"""Unit tests for the attributed-graph substrate."""

import pickle

import pytest

from repro.core.errors import (
    GraphConstructionError,
    KeywordLabelError,
    UnknownVertexError,
)
from repro.core.graph import AttributedGraph, KeywordTable


class TestKeywordTable:
    def test_intern_assigns_dense_ids(self):
        table = KeywordTable()
        assert table.intern("SN") == 0
        assert table.intern("QP") == 1
        assert table.intern("SN") == 0
        assert len(table) == 2

    def test_label_round_trip(self):
        table = KeywordTable(["a", "b"])
        assert table.label(table.id_of("b")) == "b"

    def test_labels_sorted_by_id(self):
        table = KeywordTable(["z", "a", "m"])
        assert table.labels({2, 0}) == ["z", "m"]

    def test_get_returns_none_for_unknown(self):
        table = KeywordTable()
        assert table.get("missing") is None

    def test_id_of_raises_for_unknown(self):
        with pytest.raises(KeyError):
            KeywordTable().id_of("missing")

    def test_contains_and_iter(self):
        table = KeywordTable(["a", "b"])
        assert "a" in table
        assert "c" not in table
        assert list(table) == ["a", "b"]


class TestConstruction:
    def test_empty_graph(self):
        graph = AttributedGraph(0)
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert graph.average_degree() == 0.0

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphConstructionError):
            AttributedGraph(-1)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphConstructionError, match="self-loop"):
            AttributedGraph(2, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphConstructionError, match="duplicate"):
            AttributedGraph(2, [(0, 1), (1, 0)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(UnknownVertexError):
            AttributedGraph(2, [(0, 5)])

    def test_non_int_vertex_rejected(self):
        with pytest.raises(GraphConstructionError):
            AttributedGraph(2, [("a", 1)])

    def test_bool_vertex_rejected(self):
        with pytest.raises(GraphConstructionError):
            AttributedGraph(2, [(True, 0)])

    def test_keyword_mapping(self):
        graph = AttributedGraph(3, [], {0: ["a", "b"], 2: ["a"]})
        assert graph.keyword_labels(0) == ["a", "b"]
        assert graph.keyword_labels(1) == []
        assert graph.keyword_labels(2) == ["a"]

    def test_keyword_sequence(self):
        graph = AttributedGraph(2, [], [["a"], ["b"]])
        assert graph.keyword_labels(1) == ["b"]

    def test_keyword_sequence_length_mismatch_rejected(self):
        with pytest.raises(GraphConstructionError, match="length"):
            AttributedGraph(3, [], [["a"], ["b"]])

    def test_keyword_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertexError):
            AttributedGraph(2, [], {5: ["a"]})

    def test_shared_keyword_table(self):
        table = KeywordTable(["a"])
        graph = AttributedGraph(1, [], {0: ["b"]}, keyword_table=table)
        assert graph.keyword_table is table
        assert table.id_of("b") == 1


class TestTopology:
    def test_neighbors_and_degree(self, figure1):
        assert sorted(figure1.neighbors(0)) == [1, 2, 3, 4, 9, 11]
        assert figure1.degree(0) == 6
        assert sorted(figure1.neighbors(3)) == [0, 2, 4, 9]

    def test_degrees_table(self, path_graph):
        assert path_graph.degrees() == [1, 2, 2, 2, 1]

    def test_has_edge_symmetric(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert path_graph.has_edge(1, 0)
        assert not path_graph.has_edge(0, 2)

    def test_edges_iterates_once_each(self, figure1):
        edges = list(figure1.edges())
        assert len(edges) == figure1.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_average_degree(self, path_graph):
        assert path_graph.average_degree() == pytest.approx(2 * 4 / 5)

    def test_unknown_vertex_probes_raise(self, path_graph):
        with pytest.raises(UnknownVertexError):
            path_graph.neighbors(99)
        with pytest.raises(UnknownVertexError):
            path_graph.degree(-1)


class TestDistances:
    def test_hop_distance_basic(self, path_graph):
        assert path_graph.hop_distance(0, 0) == 0
        assert path_graph.hop_distance(0, 1) == 1
        assert path_graph.hop_distance(0, 4) == 4

    def test_hop_distance_cutoff(self, path_graph):
        assert path_graph.hop_distance(0, 4, cutoff=3) is None
        assert path_graph.hop_distance(0, 3, cutoff=3) == 3

    def test_hop_distance_unreachable(self, disconnected_graph):
        assert disconnected_graph.hop_distance(0, 3) is None
        assert disconnected_graph.hop_distance(5, 0) is None

    def test_bfs_distances_full(self, path_graph):
        assert path_graph.bfs_distances(0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_distances_truncated(self, path_graph):
        assert path_graph.bfs_distances(0, max_depth=2) == {0: 0, 1: 1, 2: 2}

    def test_eccentricity(self, path_graph):
        assert path_graph.eccentricity(0) == 4
        assert path_graph.eccentricity(2) == 2

    def test_figure1_documented_distances(self, figure1):
        assert figure1.hop_distance(3, 5) == 3
        within2_of_8 = {
            v
            for v in figure1.vertices()
            if v != 8 and (d := figure1.hop_distance(8, v)) is not None and d <= 2
        }
        assert within2_of_8 == {0, 3, 4, 6, 7}


class TestMutation:
    def test_add_edge_bumps_version(self, path_graph):
        version = path_graph.version
        path_graph.add_edge(0, 4)
        assert path_graph.version == version + 1
        assert path_graph.has_edge(0, 4)
        assert path_graph.num_edges == 5

    def test_add_duplicate_edge_rejected(self, path_graph):
        with pytest.raises(GraphConstructionError):
            path_graph.add_edge(0, 1)

    def test_remove_edge(self, path_graph):
        path_graph.remove_edge(1, 2)
        assert not path_graph.has_edge(1, 2)
        assert path_graph.hop_distance(0, 4) is None

    def test_remove_missing_edge_rejected(self, path_graph):
        with pytest.raises(GraphConstructionError, match="does not exist"):
            path_graph.remove_edge(0, 3)

    def test_set_keywords(self, path_graph):
        path_graph.set_keywords(0, ["x", "y"])
        assert path_graph.keyword_labels(0) == ["x", "y"]


BAD_LABELS = ["xy", b"xy", 7, [7], ["ok", None], [""], ["a\x00b"], [("x",)]]


class TestKeywordLabelValidation:
    @pytest.mark.parametrize("labels", BAD_LABELS)
    def test_set_keywords_rejects_bad_labels(self, path_graph, labels):
        version = path_graph.version
        known = len(path_graph.keyword_table)
        with pytest.raises(KeywordLabelError):
            path_graph.set_keywords(0, labels)
        assert path_graph.version == version
        assert path_graph.keyword_labels(0) == ["a"]
        assert len(path_graph.keyword_table) == known  # nothing interned

    @pytest.mark.parametrize("labels", BAD_LABELS)
    def test_add_vertex_rejects_bad_labels(self, path_graph, labels):
        with pytest.raises(KeywordLabelError):
            path_graph.add_vertex(labels)
        assert path_graph.num_vertices == 5

    def test_constructor_rejects_bad_labels(self):
        with pytest.raises(KeywordLabelError):
            AttributedGraph(2, [], {0: "ab"})

    def test_error_is_a_graph_construction_value_error(self, path_graph):
        with pytest.raises(GraphConstructionError):
            path_graph.set_keywords(0, [1])
        with pytest.raises(ValueError):
            path_graph.set_keywords(0, [1])

    def test_any_iterable_of_strings_is_accepted(self, path_graph):
        path_graph.set_keywords(0, (label for label in ("x", "y")))
        assert path_graph.keyword_labels(0) == ["x", "y"]
        vertex = path_graph.add_vertex(frozenset({"z"}))
        assert path_graph.keyword_labels(vertex) == ["z"]


class TestDerived:
    def test_connected_components(self, disconnected_graph):
        component = disconnected_graph.connected_components()
        assert component[0] == component[1] == component[2]
        assert component[3] == component[4]
        assert component[0] != component[3]
        assert component[5] not in (component[0], component[3])

    def test_vertices_with_any_keyword(self, disconnected_graph):
        table = disconnected_graph.keyword_table
        x_id = table.id_of("x")
        assert disconnected_graph.vertices_with_any_keyword(frozenset({x_id})) == [0, 2, 4]

    def test_subgraph_structure(self, figure1):
        sub = figure1.subgraph([0, 1, 2, 11])
        assert sub.num_vertices == 4
        # 0-1, 0-2, 1-2, 0-11 survive with remapped ids.
        assert sub.num_edges == 4
        assert sub.keyword_labels(3) == figure1.keyword_labels(11)

    def test_subgraph_duplicate_rejected(self, figure1):
        with pytest.raises(GraphConstructionError, match="duplicates"):
            figure1.subgraph([0, 0])

    def test_networkx_round_trip(self, figure1):
        nx_graph = figure1.to_networkx()
        back = AttributedGraph.from_networkx(nx_graph)
        assert back.num_vertices == figure1.num_vertices
        assert sorted(back.edges()) == sorted(figure1.edges())
        for vertex in figure1.vertices():
            assert back.keyword_labels(vertex) == figure1.keyword_labels(vertex)

    def test_pickle_round_trip(self, figure1):
        """Process-pool workers receive the graph pickled: every slot
        survives, and the clone mutates independently."""
        figure1.set_keywords(0, ["SN", "extra"])
        clone = pickle.loads(pickle.dumps(figure1))
        assert clone.version == figure1.version
        assert clone.num_edges == figure1.num_edges
        assert sorted(clone.edges()) == sorted(figure1.edges())
        assert list(clone.keyword_table) == list(figure1.keyword_table)
        for vertex in figure1.vertices():
            assert clone.keywords_of(vertex) == figure1.keywords_of(vertex)
        u, v = next(iter(figure1.edges()))
        clone.remove_edge(u, v)
        assert figure1.has_edge(u, v)

    def test_repr_mentions_sizes(self, figure1):
        assert "|V|=12" in repr(figure1)
