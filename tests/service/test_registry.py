"""Unit tests for the graph registry and graph_id cache isolation."""

from __future__ import annotations

import pytest

from repro.core.errors import RegistryError, UnknownGraphError
from repro.core.query import KTGQuery
from repro.datasets.registry import load_dataset
from repro.obs.instruments import InstrumentRegistry
from repro.service import GraphRegistry, QueryService
from tests.conftest import make_random_attributed_graph


def _query() -> KTGQuery:
    return KTGQuery(
        keywords=("kw000", "kw001"), group_size=2, tenuity=2, top_n=2
    )


def test_load_get_drop_lifecycle():
    graph = make_random_attributed_graph(num_vertices=20, seed=1)
    with GraphRegistry() as registry:
        entry = registry.load("alpha", graph=graph)
        assert entry.graph_id == "alpha#1"
        assert registry.names() == ["alpha"]
        assert "alpha" in registry
        assert len(registry) == 1
        assert registry.get("alpha") is entry.service
        rows = registry.describe()
        assert rows[0]["graph_id"] == "alpha#1"
        assert rows[0]["vertices"] == graph.num_vertices
        registry.drop("alpha")
        assert registry.names() == []
        with pytest.raises(UnknownGraphError):
            registry.get("alpha")
        with pytest.raises(UnknownGraphError):
            registry.drop("alpha")


def test_load_requires_profile_or_graph_and_a_name():
    with GraphRegistry() as registry:
        with pytest.raises(RegistryError):
            registry.load("nameless")
        with pytest.raises(RegistryError):
            registry.load("")


def test_reload_bumps_generation_and_swaps_service():
    graph = make_random_attributed_graph(num_vertices=20, seed=1)
    with GraphRegistry() as registry:
        first = registry.load("alpha", graph=graph)
        second = registry.load("alpha", graph=graph)
        assert second.graph_id == "alpha#2"
        assert registry.get("alpha") is second.service
        assert second.service is not first.service
        # A third incarnation after a drop keeps counting upward, so a
        # dropped-and-reloaded name can never reuse an old graph_id.
        registry.drop("alpha")
        third = registry.load("alpha", graph=graph)
        assert third.graph_id == "alpha#3"


def test_load_from_dataset_profile():
    with GraphRegistry() as registry:
        entry = registry.load("bk", "brightkite", scale=0.08, seed=0)
        assert entry.profile == "brightkite"
        assert entry.graph.num_vertices > 0
        served = entry.service.submit(_query())
        assert served.result is not None


def test_same_version_graphs_get_distinct_cache_keys():
    """The graph_id regression: two tenants must never share a cache slot.

    Both graphs sit at the same version with the same algorithm spec, so
    before graph_id entered the cache key their canonical queries
    collided — one tenant would be served the other's groups.
    """
    graph_a, _ = load_dataset("brightkite", scale=0.08)
    graph_b, _ = load_dataset("brightkite", scale=0.08)
    assert graph_a.version == graph_b.version
    query = _query()
    with QueryService(graph_a, "KTG-VKC-NLRNL", graph_id="a#1") as sa:
        with QueryService(graph_b, "KTG-VKC-NLRNL", graph_id="b#1") as sb:
            assert sa.cache_key(query) != sb.cache_key(query)
            first = sa.submit(query)
            second = sb.submit(query)
            # Identical datasets: same answer, but each from its own solve.
            assert not first.from_cache and not second.from_cache
            assert [g.members for g in first.result.groups] == [
                g.members for g in second.result.groups
            ]
            assert sa.submit(query).from_cache
            assert sb.submit(query).from_cache


def test_registry_tenants_are_cache_isolated():
    with GraphRegistry(algorithm="KTG-VKC-NLRNL") as registry:
        registry.load("t1", "brightkite", scale=0.08)
        registry.load("t2", "brightkite", scale=0.08)
        query = _query()
        s1, s2 = registry.get("t1"), registry.get("t2")
        assert s1.cache_key(query) != s2.cache_key(query)
        assert not s1.submit(query).from_cache
        assert not s2.submit(query).from_cache


def test_registry_counts_loads_and_drops():
    graph = make_random_attributed_graph(num_vertices=20, seed=1)
    instruments = InstrumentRegistry()
    with GraphRegistry(instruments=instruments) as registry:
        registry.load("alpha", graph=graph)
        registry.load("beta", graph=graph)
        registry.drop("alpha")
    assert instruments.counter("registry.graphs_loaded").value == 2
    # close() drops the remaining tenant.
    assert instruments.counter("registry.graphs_dropped").value == 2


def test_service_rejects_empty_graph_id():
    graph = make_random_attributed_graph(num_vertices=16, seed=2)
    with pytest.raises(ValueError):
        QueryService(graph, graph_id="")
