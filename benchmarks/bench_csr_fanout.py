"""CSR snapshot fan-out — flat-array traversal and zero-copy pool init.

Quantifies the two effects ``graph_layout="csr"`` exists for, on the
dense-large profile (Twitter, the paper's densest graph):

* **Traversal throughput** — full BFS sweeps and ball-bitset builds over
  the snapshot's flat ``indptr``/``indices`` lists vs the per-vertex
  adjacency sets (claim: >1.2x at full bench scale).
* **Worker-state fan-out** — the cost of making per-worker solver state
  available to a process fleet.  The classic path serialises the graph
  *and* the prebuilt NLRNL oracle and every worker deserialises its own
  copy; the csr path copies one shared-memory segment and workers
  attach zero-copy (claim: >=2x faster pool init at full bench scale).
  Measured on the payload path directly because Linux ``fork`` pools
  inherit initargs copy-on-write — the pickle round-trip timed here is
  what every ``spawn`` pool, respawned worker, or cross-machine ship
  of the same state pays.
"""

from __future__ import annotations

import pickle

from conftest import bench_dataset, check_claim, register_bench_meta

register_bench_meta(
    "csr_fanout",
    title="CSR snapshot traversal throughput and zero-copy worker-state fan-out",
)

from repro.core import csr as csr_module
from repro.index._traversal import bfs_levels, bfs_levels_csr
from repro.index.bfs import BFSOracle
from repro.index.nlrnl import NLRNLIndex
from repro.kernels import BallBitsetEngine

#: The dense profile at its fig7 scale (as in bench_fig7_dense_large).
DENSE_SCALE = 0.35
BALL_K = 2
#: Fleet size for the state fan-out comparison: the deserialise side
#: pays per worker, the attach side is near-constant.
FANOUT_JOBS = 4

#: Cross-test state: the adjacency-side timings each csr test compares
#: against (file order puts the adjacency variant first).
_reference: dict[str, object] = {}


def _graph():
    graph, _ = bench_dataset("twitter", DENSE_SCALE)
    return graph


# ----------------------------------------------------------------------
# BFS sweep throughput
# ----------------------------------------------------------------------
def test_bfs_sweep_adjacency(benchmark):
    graph = _graph()
    adjacency = graph.adjacency_view()

    def sweep():
        return [bfs_levels(adjacency, v) for v in graph.vertices()]

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    _reference["bfs_s"] = benchmark.stats.stats.mean
    benchmark.extra_info["vertices"] = graph.num_vertices


def test_bfs_sweep_csr(benchmark):
    graph = _graph()
    snapshot = graph.csr_snapshot()
    indptr, indices = snapshot.indptr, snapshot.indices
    adjacency = graph.adjacency_view()

    def sweep():
        return [bfs_levels_csr(indptr, indices, v) for v in graph.vertices()]

    levels = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Order within a level is kernel-specific; the level *sets* are not.
    probe = graph.num_vertices // 2
    assert [sorted(lv) for lv in levels[probe]] == [
        sorted(lv) for lv in bfs_levels(adjacency, probe)
    ]

    mean_s = benchmark.stats.stats.mean
    speedup = _reference["bfs_s"] / mean_s if mean_s > 0 else 0.0
    benchmark.extra_info["speedup_vs_adjacency"] = round(speedup, 3)
    benchmark.extra_info["snapshot_bytes"] = snapshot.nbytes
    check_claim(
        speedup > 1.2,
        f"csr BFS sweep speedup {speedup:.2f}x <= 1.2x on dense-large",
    )


# ----------------------------------------------------------------------
# Ball-bitset build throughput
# ----------------------------------------------------------------------
def test_ball_build_adjacency(benchmark):
    graph = _graph()

    def build():
        engine = BallBitsetEngine(BFSOracle(graph))
        return [engine.ball(v, BALL_K) for v in graph.vertices()]

    _reference["balls"] = benchmark.pedantic(build, rounds=1, iterations=1)
    _reference["ball_s"] = benchmark.stats.stats.mean


def test_ball_build_csr(benchmark):
    graph = _graph()
    graph.csr_snapshot()  # build outside timing, as solvers do

    def build():
        engine = BallBitsetEngine(BFSOracle(graph), graph_layout="csr")
        return [engine.ball(v, BALL_K) for v in graph.vertices()]

    balls = benchmark.pedantic(build, rounds=1, iterations=1)
    assert balls == _reference["balls"]  # bit-identical ball bitsets

    mean_s = benchmark.stats.stats.mean
    speedup = _reference["ball_s"] / mean_s if mean_s > 0 else 0.0
    benchmark.extra_info["speedup_vs_adjacency"] = round(speedup, 3)
    benchmark.extra_info["ball_k"] = BALL_K
    check_claim(
        speedup > 1.2,
        f"csr ball-build speedup {speedup:.2f}x <= 1.2x on dense-large",
    )


# ----------------------------------------------------------------------
# Worker-state fan-out: pickle round-trip vs shared-memory attach
# ----------------------------------------------------------------------
def test_worker_state_fanout_pickled(benchmark):
    graph = _graph()
    oracle = NLRNLIndex(graph)  # prebuilt once, shipped to every worker

    def fan_out():
        payload = pickle.dumps((graph, oracle))
        return [pickle.loads(payload) for _ in range(FANOUT_JOBS)], len(payload)

    (copies, payload_bytes) = benchmark.pedantic(fan_out, rounds=1, iterations=1)
    assert copies[-1][0].num_edges == graph.num_edges
    _reference["fanout_s"] = benchmark.stats.stats.mean
    benchmark.extra_info["jobs"] = FANOUT_JOBS
    benchmark.extra_info["payload_bytes"] = payload_bytes
    benchmark.extra_info["oracle_entries"] = oracle.stats.entries


def test_worker_state_fanout_shared_memory(benchmark):
    graph = _graph()
    snapshot = graph.csr_snapshot()  # cached; built once per graph version
    csr_module.reset_counters()

    def fan_out():
        shared = snapshot.share()
        try:
            oracles = []
            for _ in range(FANOUT_JOBS):
                attached = csr_module.CsrSnapshot.attach(shared.name)
                oracles.append(BFSOracle(attached.view(), graph_layout="csr"))
            return oracles
        finally:
            for oracle in oracles:
                oracle.graph.snapshot.close()
            shared.release()

    oracles = benchmark.pedantic(fan_out, rounds=1, iterations=1)
    assert len(oracles) == FANOUT_JOBS

    mean_s = benchmark.stats.stats.mean
    speedup = _reference["fanout_s"] / mean_s if mean_s > 0 else 0.0
    totals = csr_module.counter_totals()
    assert totals["attaches"] == FANOUT_JOBS
    assert totals["segment_releases"] == 1
    benchmark.extra_info["jobs"] = FANOUT_JOBS
    benchmark.extra_info["segment_bytes"] = snapshot.nbytes
    benchmark.extra_info["speedup_vs_pickled"] = round(speedup, 3)
    benchmark.extra_info["csr_attaches"] = totals["attaches"]
    benchmark.extra_info["csr_segment_releases"] = totals["segment_releases"]
    check_claim(
        speedup >= 2.0,
        f"shared-memory pool-init fan-out speedup {speedup:.2f}x < 2x vs pickling",
    )
