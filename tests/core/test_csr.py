"""CSR snapshot tests: structure, view parity, shared-memory lifecycle.

The lifecycle section covers the edge cases the shared-memory protocol
promises to survive: isolated vertices, version invalidation, double
close/release, and attaching after the owner released the segment.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.csr import (
    CsrSnapshot,
    adjacency_footprint_bytes,
    counter_totals,
    reset_counters,
)
from repro.core.errors import SnapshotAttachError, SnapshotError
from repro.core.graph import AttributedGraph
from repro.obs.instruments import InstrumentRegistry
from tests.conftest import make_random_attributed_graph


@pytest.fixture
def graph():
    return AttributedGraph(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4)],
        {0: ["x"], 1: ["y"], 2: ["x", "y"], 3: ["z"], 4: ["x"], 5: ["z"]},
    )


class TestSnapshotStructure:
    def test_rows_are_sorted_neighbour_lists(self, graph):
        snapshot = CsrSnapshot.from_graph(graph)
        indptr, indices = snapshot.indptr, snapshot.indices
        assert len(indptr) == graph.num_vertices + 1
        assert len(indices) == 2 * graph.num_edges
        for v in graph.vertices():
            row = indices[indptr[v] : indptr[v + 1]]
            assert row == sorted(graph.neighbors(v))

    def test_isolated_vertices_get_empty_rows(self, graph):
        snapshot = CsrSnapshot.from_graph(graph)
        indptr = snapshot.indptr
        assert indptr[5 + 1] - indptr[5] == 0
        assert snapshot.neighbors_list(5) == []

    def test_graph_of_only_isolated_vertices(self):
        lonely = AttributedGraph(4, [], {0: ["a"]})
        snapshot = CsrSnapshot.from_graph(lonely)
        assert snapshot.indices == []
        assert snapshot.indptr == [0, 0, 0, 0, 0]
        view = snapshot.view()
        assert view.degrees() == [0, 0, 0, 0]
        assert view.hop_distance(0, 1) is None

    def test_empty_graph(self):
        snapshot = CsrSnapshot.from_graph(AttributedGraph(0, []))
        assert snapshot.num_vertices == 0
        assert snapshot.indptr == [0]
        assert list(snapshot.view().vertices()) == []

    def test_keyword_masks_round_trip(self, graph):
        snapshot = CsrSnapshot.from_graph(graph)
        view = snapshot.view()
        for v in graph.vertices():
            assert view.keywords_of(v) == graph.keywords_of(v)
            assert sorted(view.keyword_labels(v)) == sorted(graph.keyword_labels(v))

    def test_cached_snapshot_reused_until_version_bump(self, graph):
        first = graph.csr_snapshot()
        assert graph.csr_snapshot() is first
        graph.add_edge(2, 3)
        second = graph.csr_snapshot()
        assert second is not first
        assert second.graph_version == graph.version
        assert second.view().has_edge(2, 3)

    def test_set_keywords_also_invalidates(self, graph):
        first = graph.csr_snapshot()
        graph.set_keywords(5, ["x", "w"])
        second = graph.csr_snapshot()
        assert second is not first
        assert second.view().keywords_of(5) == graph.keywords_of(5)


class TestViewParity:
    def test_view_matches_graph_read_api(self):
        graph = make_random_attributed_graph(num_vertices=30, seed=3)
        view = graph.csr_snapshot().view()
        assert view.num_vertices == graph.num_vertices
        assert view.num_edges == graph.num_edges
        assert view.version == graph.version
        assert view.degrees() == graph.degrees()
        assert sorted(view.edges()) == sorted(graph.edges())
        for v in graph.vertices():
            assert view.neighbors(v) == graph.neighbors(v)
            assert view.bfs_distances(v) == graph.bfs_distances(v)
        for u in range(0, 30, 5):
            for v in range(0, 30, 7):
                assert view.has_edge(u, v) == graph.has_edge(u, v)
                assert view.hop_distance(u, v) == graph.hop_distance(u, v)

    def test_vertices_with_any_keyword(self, graph):
        view = graph.csr_snapshot().view()
        table = graph.keyword_table
        wanted = frozenset({table.intern("x"), table.intern("z")})
        assert view.vertices_with_any_keyword(wanted) == [0, 2, 3, 4, 5]

    def test_view_is_read_only(self, graph):
        view = graph.csr_snapshot().view()
        with pytest.raises(SnapshotError):
            view.add_edge(0, 5)
        with pytest.raises(SnapshotError):
            view.remove_edge(0, 1)
        with pytest.raises(SnapshotError):
            view.set_keywords(0, ["q"])


class TestSharedLifecycle:
    def test_share_attach_round_trip(self, graph):
        local = CsrSnapshot.from_graph(graph)
        shared = local.share()
        try:
            attached = CsrSnapshot.attach(shared.name)
            assert attached.indptr == local.indptr
            assert attached.indices == local.indices
            assert attached.keyword_masks == local.keyword_masks
            assert attached.keyword_labels == local.keyword_labels
            attached.close()
        finally:
            shared.release()

    def test_double_close_and_double_release_are_idempotent(self, graph):
        shared = CsrSnapshot.from_graph(graph).share()
        attached = CsrSnapshot.attach(shared.name)
        attached.close()
        attached.close()
        shared.release()
        shared.release()
        assert shared.closed

    def test_attach_after_release_raises(self, graph):
        shared = CsrSnapshot.from_graph(graph).share()
        name = shared.name
        shared.release()
        assert shared.name is None
        with pytest.raises(SnapshotAttachError, match="already released"):
            CsrSnapshot.attach(name)

    def test_attach_unknown_name_raises(self):
        with pytest.raises(SnapshotAttachError):
            CsrSnapshot.attach("psm_no_such_segment")

    def test_attach_corrupt_segment_closes_handle(self, monkeypatch):
        """A failed attach must close the segment handle it opened.

        An attacher dying between open and view construction would
        otherwise keep the mapping alive after the owner unlinks the
        name, leaving ``/dev/shm`` populated (the CI leak check catches
        exactly this).  The zero-filled segment has the wrong magic, so
        ``_load_header`` rejects it after the handle is already open.
        """
        import repro.core.csr as csr_mod
        from multiprocessing import shared_memory

        owner = shared_memory.SharedMemory(create=True, size=128)
        closes: list[bool] = []
        real_attach = csr_mod._attach_segment

        def recording_attach(name):
            shm = real_attach(name)
            original_close = shm.close

            def close():
                closes.append(True)
                original_close()

            shm.close = close
            return shm

        monkeypatch.setattr(csr_mod, "_attach_segment", recording_attach)
        try:
            with pytest.raises(
                SnapshotAttachError, match="does not hold a CSR snapshot"
            ):
                CsrSnapshot.attach(owner.name)
            assert closes == [True]
        finally:
            owner.close()
            owner.unlink()

    def test_closed_snapshot_rejects_reads(self, graph):
        shared = CsrSnapshot.from_graph(graph).share()
        attached = CsrSnapshot.attach(shared.name)
        attached.close()
        with pytest.raises(SnapshotError, match="closed"):
            attached.materialize()
        shared.release()

    def test_materialize_detaches_from_segment(self, graph):
        shared = CsrSnapshot.from_graph(graph).share()
        local = shared.materialize()
        shared.release()
        # The copy survives the segment: reads hit process-local bytes.
        assert local.view().neighbors(0) == graph.neighbors(0)

    def test_snapshot_is_not_picklable(self, graph):
        with pytest.raises(SnapshotError):
            pickle.dumps(CsrSnapshot.from_graph(graph))

    def test_graph_pickles_without_its_snapshot_cache(self, graph):
        graph.csr_snapshot()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone._csr_cache is None
        assert clone.csr_snapshot().indices == graph.csr_snapshot().indices


class TestCounters:
    def test_module_totals_and_registry(self, graph):
        reset_counters()
        registry = InstrumentRegistry()
        shared = CsrSnapshot.from_graph(graph, instruments=registry).share(
            instruments=registry
        )
        CsrSnapshot.attach(shared.name, instruments=registry).close()
        shared.release(instruments=registry)
        totals = counter_totals()
        assert totals["builds"] == 1
        assert totals["attaches"] == 1
        assert totals["segment_releases"] == 1
        assert totals["bytes"] == 2 * shared.nbytes
        report = registry.report()["counters"]
        assert report["csr.builds"] == 1
        assert report["csr.attaches"] == 1
        assert report["csr.segment_releases"] == 1

    def test_release_counts_only_real_unlinks(self, graph):
        reset_counters()
        shared = CsrSnapshot.from_graph(graph).share()
        shared.release()
        shared.release()
        assert counter_totals()["segment_releases"] == 1

    def test_adjacency_footprint_positive(self, graph):
        footprint = adjacency_footprint_bytes(graph)
        assert footprint > CsrSnapshot.from_graph(graph).nbytes
