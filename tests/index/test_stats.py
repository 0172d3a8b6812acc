"""Unit tests for index footprint accounting (Figure 9 inputs)."""

import pytest

from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.index.nlrnl import NLRNLIndex
from repro.index.stats import (
    IndexFootprint,
    adjacency_footprint_bytes,
    measure_footprint,
    oracle_by_name,
)


class TestOracleByName:
    def test_known_names(self, figure1):
        assert isinstance(oracle_by_name("bfs", figure1), BFSOracle)
        assert isinstance(oracle_by_name("nl", figure1), NLIndex)
        assert isinstance(oracle_by_name("NLRNL", figure1), NLRNLIndex)

    def test_unknown_rejected(self, figure1):
        with pytest.raises(ValueError, match="unknown oracle"):
            oracle_by_name("btree", figure1)

    def test_options_forwarded(self, figure1):
        oracle = oracle_by_name("nl", figure1, depth=2)
        assert oracle.depth == 2


class TestAdjacencyFootprint:
    def test_adjacency_footprint_positive(self, figure1):
        footprint = adjacency_footprint_bytes(figure1)
        # At least one boxed int per stored endpoint, plus the sets.
        assert footprint > 28 * 2 * figure1.num_edges
        figure1.add_vertex(["SN"])
        assert adjacency_footprint_bytes(figure1) > footprint


class TestMeasureFootprint:
    def test_builds_and_measures(self, figure1):
        footprint = measure_footprint(figure1, "nlrnl")
        assert footprint.oracle_name == "nlrnl"
        assert footprint.num_vertices == 12
        assert footprint.entries > 0
        assert footprint.estimated_bytes == footprint.entries * 16
        assert footprint.build_seconds > 0

    def test_reuses_existing_oracle(self, figure1):
        oracle = NLRNLIndex(figure1)
        footprint = measure_footprint(figure1, "nlrnl", oracle=oracle)
        assert footprint.entries == oracle.stats.entries
        assert footprint.build_seconds == oracle.stats.build_seconds

    def test_bfs_has_no_entries(self, figure1):
        assert measure_footprint(figure1, "bfs").entries == 0

    def test_row_shape(self, figure1):
        row = measure_footprint(figure1, "nl").row()
        assert set(row) == {
            "oracle",
            "vertices",
            "edges",
            "entries",
            "estimated_mb",
            "build_seconds",
        }

    def test_entries_per_vertex(self):
        footprint = IndexFootprint("nl", 10, 20, 50, 800, 0.1)
        assert footprint.entries_per_vertex == 5.0
        empty = IndexFootprint("nl", 0, 0, 0, 0, 0.0)
        assert empty.entries_per_vertex == 0.0


class TestFigure9Shape:
    """The headline Figure 9 relationships on a real-ish graph."""

    def test_nlrnl_smaller_than_nl(self, random_graph):
        nl = measure_footprint(random_graph, "nl")
        nlrnl = measure_footprint(random_graph, "nlrnl")
        assert nlrnl.entries < nl.entries
