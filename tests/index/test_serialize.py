"""Unit tests for index persistence (save/load round trips)."""

import json
import pickle

import pytest

from repro.core.errors import IndexBuildError
from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.index.nlrnl import NLRNLIndex
from repro.index.pll import PLLIndex
from repro.index.serialize import graph_fingerprint, load_index, save_index
from tests.conftest import make_random_attributed_graph


@pytest.fixture
def graph():
    return make_random_attributed_graph(num_vertices=30, seed=4)


def assert_probe_equivalent(a, b, graph):
    for u in graph.vertices():
        for v in graph.vertices():
            for k in (0, 1, 2, 3, 4):
                assert a.is_tenuous(u, v, k) == b.is_tenuous(u, v, k), (u, v, k)


class TestRoundTrips:
    @pytest.mark.parametrize("index_cls", [NLRNLIndex, PLLIndex])
    def test_probe_equivalence(self, graph, tmp_path, index_cls):
        original = index_cls(graph)
        path = tmp_path / "index.json"
        save_index(original, path)
        loaded = load_index(graph, path)
        assert type(loaded) is index_cls
        assert loaded.stats.entries == original.stats.entries
        assert_probe_equivalent(original, loaded, graph)

    def test_nl_round_trip(self, graph, tmp_path):
        original = NLIndex(graph, depth=2)
        path = tmp_path / "index.json"
        save_index(original, path)
        loaded = load_index(graph, path)
        assert loaded.depth == 2
        assert_probe_equivalent(original, loaded, graph)

    def test_loaded_nlrnl_still_updates(self, graph, tmp_path):
        original = NLRNLIndex(graph)
        path = tmp_path / "index.json"
        save_index(original, path)
        loaded = load_index(graph, path)
        non_edge = next(
            (u, v)
            for u in graph.vertices()
            for v in graph.vertices()
            if u < v and not graph.has_edge(u, v)
        )
        loaded.insert_edge(*non_edge)
        assert not loaded.is_tenuous(*non_edge, 1)
        graph.remove_edge(*non_edge)  # restore for other assertions

    def test_loaded_nlrnl_filters_through_its_row_cache(self, graph, tmp_path):
        original = NLRNLIndex(graph)
        original.filter_candidates(list(graph.vertices()), 0, 2)  # warm rows
        path = tmp_path / "index.json"
        save_index(original, path)
        loaded = load_index(graph, path)
        reference = BFSOracle(graph)
        candidates = list(graph.vertices())
        for member in graph.vertices():
            for k in (0, 1, 2, 3):
                assert loaded.filter_candidates(candidates, member, k) == (
                    reference.filter_candidates(candidates, member, k)
                )
        clone = pickle.loads(pickle.dumps(loaded))
        assert clone._rows == {}
        assert clone.filter_candidates(candidates, 5, 2) == (
            reference.filter_candidates(candidates, 5, 2)
        )


class TestFailureModes:
    def test_bfs_oracle_not_serialisable(self, graph, tmp_path):
        with pytest.raises(IndexBuildError, match="no serialisable state"):
            save_index(BFSOracle(graph), tmp_path / "x.json")

    def test_stale_index_rejected(self, graph, tmp_path):
        index = NLRNLIndex(graph)
        graph.add_edge(
            *next(
                (u, v)
                for u in graph.vertices()
                for v in graph.vertices()
                if u < v and not graph.has_edge(u, v)
            )
        )
        with pytest.raises(IndexBuildError, match="stale"):
            save_index(index, tmp_path / "x.json")

    def test_fingerprint_mismatch_rejected(self, graph, tmp_path):
        index = NLRNLIndex(graph)
        path = tmp_path / "index.json"
        save_index(index, path)
        other = make_random_attributed_graph(num_vertices=30, seed=99)
        with pytest.raises(IndexBuildError, match="mismatch"):
            load_index(other, path)

    def test_bad_format_version_rejected(self, graph, tmp_path):
        index = NLRNLIndex(graph)
        path = tmp_path / "index.json"
        save_index(index, path)
        document = json.loads(path.read_text())
        document["format"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(IndexBuildError, match="format"):
            load_index(graph, path)

    def test_unknown_kind_rejected(self, graph, tmp_path):
        index = NLRNLIndex(graph)
        path = tmp_path / "index.json"
        save_index(index, path)
        document = json.loads(path.read_text())
        document["kind"] = "btree"
        path.write_text(json.dumps(document))
        with pytest.raises(IndexBuildError, match="unknown"):
            load_index(graph, path)

    def test_corrupt_file_rejected(self, graph, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("{not json")
        with pytest.raises(IndexBuildError, match="cannot load"):
            load_index(graph, path)

    def test_missing_file_rejected(self, graph, tmp_path):
        with pytest.raises(IndexBuildError, match="cannot load"):
            load_index(graph, tmp_path / "missing.json")


class TestAtomicWrites:
    """A crash mid-save must never corrupt an existing index file."""

    def test_interrupted_save_leaves_previous_index_intact(
        self, graph, tmp_path, monkeypatch
    ):
        import repro.index.serialize as serialize_module

        index = NLRNLIndex(graph)
        path = tmp_path / "index.json"
        save_index(index, path)
        good_document = path.read_text()

        # Simulate a crash after the temp file is partially written but
        # before it replaces the target: fail the final rename.
        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(serialize_module.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            save_index(index, path)

        # The previous document survives byte-for-byte and still loads.
        assert path.read_text() == good_document
        loaded = load_index(graph, path)
        assert loaded.stats.entries == index.stats.entries
        # No temp-file litter is left behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_interrupted_write_cleans_temp_file(self, graph, tmp_path, monkeypatch):
        import repro.index.serialize as serialize_module

        index = NLRNLIndex(graph)
        path = tmp_path / "index.json"

        def exploding_fsync(fd):
            raise OSError("simulated crash mid-write")

        # Fail after bytes were written to the temp file but before it
        # can be renamed: nothing may appear at *path* and the torn temp
        # file must be removed.
        monkeypatch.setattr(serialize_module.os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="mid-write"):
            save_index(index, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_partial_document_rejected_on_load(self, graph, tmp_path):
        index = NLRNLIndex(graph)
        path = tmp_path / "index.json"
        save_index(index, path)
        text = path.read_text()
        # A torn write under the old non-atomic scheme: half a document.
        path.write_text(text[: len(text) // 2])
        with pytest.raises(IndexBuildError, match="cannot load"):
            load_index(graph, path)


class TestNLRngPersistence:
    """Loaded NL indexes must not diverge from built ones on later
    sampling-dependent operations (auto-depth re-selection on rebuild)."""

    @staticmethod
    def _big_graph(seed=11):
        # > _AUTO_SAMPLE vertices so the auto-depth heuristic actually
        # consumes RNG draws when sampling BFS profiles.
        return make_random_attributed_graph(num_vertices=90, seed=seed)

    def test_rng_state_round_trips(self, tmp_path):
        graph = self._big_graph()
        built = NLIndex(graph, depth="auto")
        path = tmp_path / "nl.json"
        save_index(built, path)
        loaded = load_index(graph, path)
        assert loaded._rng.getstate() == built._rng.getstate()
        assert loaded._requested_depth == built._requested_depth

    def test_build_save_load_mutate_equals_build_mutate(self, tmp_path):
        graph_a = self._big_graph()
        graph_b = self._big_graph()
        built = NLIndex(graph_a, depth="auto")
        path = tmp_path / "nl.json"
        save_index(built, path)
        loaded = load_index(graph_b, path)

        non_edge = next(
            (u, v)
            for u in graph_a.vertices()
            for v in graph_a.vertices()
            if u < v and not graph_a.has_edge(u, v)
        )
        built.insert_edge(*non_edge)    # build -> mutate (rebuilds)
        loaded.insert_edge(*non_edge)   # build -> save -> load -> mutate

        assert loaded.depth == built.depth
        assert loaded._rng.getstate() == built._rng.getstate()
        for vertex in (0, 1, non_edge[0], non_edge[1]):
            assert loaded.level_sets(vertex) == built.level_sets(vertex)

    def test_legacy_document_without_rng_state_still_loads(self, graph, tmp_path):
        built = NLIndex(graph, depth=2)
        path = tmp_path / "nl.json"
        save_index(built, path)
        document = json.loads(path.read_text())
        del document["payload"]["rng_state"]
        del document["payload"]["requested_depth"]
        path.write_text(json.dumps(document))
        loaded = load_index(graph, path)
        assert loaded.depth == 2
        assert_probe_equivalent(built, loaded, graph)


class TestFingerprint:
    def test_stable(self, graph):
        assert graph_fingerprint(graph) == graph_fingerprint(graph)

    def test_changes_with_edges(self, graph):
        before = graph_fingerprint(graph)
        non_edge = next(
            (u, v)
            for u in graph.vertices()
            for v in graph.vertices()
            if u < v and not graph.has_edge(u, v)
        )
        graph.add_edge(*non_edge)
        assert graph_fingerprint(graph) != before
