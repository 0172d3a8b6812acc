"""Shared fixtures for the test suite.

Small deterministic graphs dominate: exactness tests compare solvers
against brute force, which needs tiny instances; index tests compare
against BFS ground truth, which needs full-graph scans.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.graph import AttributedGraph
from repro.datasets.figure1 import figure1_example, figure1_query
from repro.datasets.keywords import KeywordModel, assign_keywords
from repro.datasets.synthetic import powerlaw_cluster_graph


@pytest.fixture
def figure1():
    """The paper's Figure 1 running example."""
    return figure1_example()


@pytest.fixture
def figure1_q():
    """The paper's running query ``<{SN,QP,DQ,GQ,GD}, 3, 1, 2>``."""
    return figure1_query()


@pytest.fixture
def path_graph():
    """0-1-2-3-4 path, keywords a..e in order."""
    return AttributedGraph(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        {i: [label] for i, label in enumerate("abcde")},
    )


@pytest.fixture
def disconnected_graph():
    """Two components: a triangle (0,1,2) and an edge (3,4); 5 isolated."""
    return AttributedGraph(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4)],
        {0: ["x"], 1: ["y"], 2: ["x", "y"], 3: ["z"], 4: ["x"], 5: ["z"]},
    )


def run_threads(count, work):
    """Run ``work(worker)`` on *count* threads released together."""
    barrier = threading.Barrier(count)
    errors = []

    def runner(worker):
        barrier.wait()
        try:
            work(worker)
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append((worker, exc))

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors


def make_random_attributed_graph(
    num_vertices: int = 40,
    edges_per_vertex: int = 2,
    seed: int = 0,
    vocabulary_size: int = 12,
) -> AttributedGraph:
    """Small seeded random graph with keywords, for cross-validation."""
    rng = random.Random(seed)
    graph = powerlaw_cluster_graph(num_vertices, edges_per_vertex, 0.3, rng)
    assign_keywords(
        graph,
        KeywordModel(vocabulary_size=vocabulary_size, min_keywords=0, max_keywords=3),
        rng,
    )
    return graph


@pytest.fixture
def random_graph():
    return make_random_attributed_graph(seed=7)
