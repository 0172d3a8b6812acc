"""Cross-validation of every oracle's incremental maintenance hooks.

The mutation path (:mod:`repro.core.epoch`) routes edits through
``insert_edge`` / ``delete_edge`` / ``insert_vertex`` on whichever
oracle is live, so all four implementations (BFS, NL, NLRNL, PLL) must
answer every distance/tenuity probe exactly like an oracle rebuilt from
scratch after *any* mutation stream — and must not report themselves
stale afterwards.  NLRNL has its own focused suite in
``test_updates.py``; this file pins the shared contract across the
whole family under one randomized stream.
"""

from __future__ import annotations

import random

import pytest

from repro.index.bfs import BFSOracle
from repro.index.nl import NLIndex
from repro.index.nlrnl import NLRNLIndex
from repro.index.pll import PLLIndex
from tests.conftest import make_random_attributed_graph

ORACLES = [
    pytest.param(BFSOracle, id="bfs"),
    pytest.param(NLIndex, id="nl"),
    pytest.param(NLRNLIndex, id="nlrnl"),
    pytest.param(PLLIndex, id="pll"),
]


def assert_matches_fresh_bfs(oracle) -> None:
    """Every tenuity probe must agree with a fresh BFS over the graph."""
    graph = oracle.graph
    reference = BFSOracle(graph)
    for u in graph.vertices():
        for v in graph.vertices():
            for k in (0, 1, 2, 4):
                assert oracle.is_tenuous(u, v, k) == reference.is_tenuous(u, v, k), (
                    type(oracle).__name__,
                    u,
                    v,
                    k,
                )


def drive(oracle, seed: int, steps: int) -> None:
    """Apply a random stream of inserts/deletes/vertex appends."""
    rng = random.Random(seed)
    graph = oracle.graph
    for _ in range(steps):
        action = rng.random()
        if action < 0.15:
            oracle.insert_vertex([f"kw{rng.randrange(4):03d}"])
            continue
        u, v = rng.sample(range(graph.num_vertices), 2)
        if graph.has_edge(u, v):
            oracle.delete_edge(u, v)
        else:
            oracle.insert_edge(u, v)


@pytest.mark.parametrize("oracle_cls", ORACLES)
def test_supports_incremental_updates(oracle_cls):
    graph = make_random_attributed_graph(num_vertices=10, seed=0)
    assert oracle_cls(graph).supports_incremental_updates()


@pytest.mark.parametrize("oracle_cls", ORACLES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mutation_stream_matches_fresh_rebuild(oracle_cls, seed):
    graph = make_random_attributed_graph(num_vertices=14, seed=seed)
    oracle = oracle_cls(graph)
    drive(oracle, seed=seed * 31, steps=15)
    assert not oracle.is_stale()
    assert_matches_fresh_bfs(oracle)


@pytest.mark.parametrize("oracle_cls", ORACLES)
def test_insert_vertex_returns_dense_id_and_stays_exact(oracle_cls):
    graph = make_random_attributed_graph(num_vertices=8, seed=9)
    oracle = oracle_cls(graph)
    vertex = oracle.insert_vertex(["kw000"])
    assert vertex == graph.num_vertices - 1
    # Isolated vertex: tenuous to everyone at any k.
    assert oracle.is_tenuous(vertex, 0, 4)
    oracle.insert_edge(vertex, 0)
    assert not oracle.is_tenuous(vertex, 0, 1)
    assert not oracle.is_stale()
    assert_matches_fresh_bfs(oracle)


def test_pll_delete_counts_rebuilds():
    """PLL deletions fall back to a rebuild (decremental 2-hop repair is
    unsound); the fallback is observable via ``delete_rebuilds``."""
    graph = make_random_attributed_graph(num_vertices=10, seed=4)
    oracle = PLLIndex(graph)
    u, v = next(iter(graph.edges()))
    oracle.delete_edge(u, v)
    assert oracle.stats.extra.get("delete_rebuilds") == 1
    assert_matches_fresh_bfs(oracle)
