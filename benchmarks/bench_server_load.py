"""Server load — open-loop HTTP serving under ramped arrival rates.

The serving front end (:mod:`repro.server`) promises two things the
bare service cannot: identical concurrent queries collapse onto one
solver run, and tail latency stays bounded as the arrival rate climbs
(requests overlap on the solver thread pool instead of queueing behind
a single caller).  This bench measures both over the real wire:

1. **Coalescing acceptance** — N identical concurrent requests against
   a cold canonical key must execute the solver exactly once (the obs
   counter ``server.solver_runs`` is the witness; it only counts
   non-cache-hit leader solves, so the invariant holds whether a
   request coalesced in flight or arrived late and hit the cache).
2. **Open-loop ramp** — a load generator fires a fixed request mix at
   three scheduled arrival rates (arrivals are *independent* of
   completions — the generator never waits for a response before
   sending the next request, so server slowdowns show up as latency,
   not as reduced offered load).  Per-step p50/p95/p99 client-observed
   latencies are the figure data.

The rate limiter is disabled and ``max_inflight`` is generous: every
request must succeed, keeping the non-time artifact metrics exactly
reproducible for baseline comparison.
"""

from __future__ import annotations

import threading

import asyncio

from conftest import bench_dataset, register_bench_meta, smoke_mode

register_bench_meta("server_load", title="open-loop HTTP serving under ramped load")
from repro.obs.instruments import InstrumentRegistry
from repro.server import KTGServer, ServerThread, arequest, http_request
from repro.service import QueryService
from repro.workloads.runner import percentile_nearest_rank

ALGORITHM = "KTG-VKC-NLRNL"
#: Arrival-rate ramp (requests/second) — the ISSUE's ">= 3 steps".
RATES_QPS = (10.0, 20.0, 40.0)
REQUESTS_PER_STEP = 24
SMOKE_REQUESTS_PER_STEP = 8
COALESCE_CLIENTS = 8
DISTINCT_QUERIES = 6


def _payloads(graph):
    """A deterministic request mix: distinct queries with repeats."""
    labels = tuple(sorted(graph.keyword_table))
    payloads = []
    for index in range(DISTINCT_QUERIES):
        size = 3 + index % 2
        start = index % max(1, len(labels) - size)
        payloads.append(
            {
                "keywords": list(labels[start : start + size]),
                "group_size": 2,
                "tenuity": 1 + index % 2,
                "top_n": 2,
            }
        )
    return payloads


async def _run_step(host, port, rate_qps, payloads, count):
    """Fire *count* requests at *rate_qps*, open-loop; return latencies."""
    loop = asyncio.get_running_loop()
    step_start = loop.time()

    async def one(index):
        delay = index / rate_qps - (loop.time() - step_start)
        if delay > 0:
            await asyncio.sleep(delay)
        started = loop.time()
        status, _ = await arequest(
            host, port, "POST", "/solve", payloads[index % len(payloads)]
        )
        return status, (loop.time() - started) * 1000.0

    return await asyncio.gather(*(one(i) for i in range(count)))


def _coalescing_phase(host, port, payloads, registry):
    """N identical concurrent cold requests -> exactly one solver run."""
    cold = dict(payloads[0], tenuity=3)  # key no ramp query will touch
    runs_before = registry.counter("server.solver_runs").value
    barrier = threading.Barrier(COALESCE_CLIENTS)
    statuses = []
    lock = threading.Lock()

    def fire(client):
        barrier.wait()
        status, _ = http_request(
            host, port, "POST", "/solve", cold,
            headers={"X-Client-Id": f"bench-coalesce-{client}"},
        )
        with lock:
            statuses.append(status)

    threads = [
        threading.Thread(target=fire, args=(i,))
        for i in range(COALESCE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert statuses == [200] * COALESCE_CLIENTS
    return registry.counter("server.solver_runs").value - runs_before


def test_server_load_ramp(benchmark):
    graph, _ = bench_dataset("brightkite")
    payloads = _payloads(graph)
    per_step = SMOKE_REQUESTS_PER_STEP if smoke_mode() else REQUESTS_PER_STEP
    registry = InstrumentRegistry()
    service = QueryService(graph, ALGORITHM, instruments=registry)
    server = KTGServer(
        service,
        max_inflight=256,
        solver_threads=8,
        instruments=registry,
    )
    with service, ServerThread(server) as handle:
        host, port = handle.address

        # Exact acceptance invariant, asserted hard at every scale.
        coalesce_runs = _coalescing_phase(host, port, payloads, registry)
        assert coalesce_runs == 1, (
            f"{COALESCE_CLIENTS} identical concurrent requests ran the "
            f"solver {coalesce_runs} times (expected exactly 1)"
        )

        def ramp():
            steps = []
            for rate in RATES_QPS:
                outcomes = asyncio.run(
                    _run_step(host, port, rate, payloads, per_step)
                )
                steps.append(outcomes)
            return steps

        steps = benchmark.pedantic(ramp, rounds=1, iterations=1)

    benchmark.extra_info["coalesce_clients"] = COALESCE_CLIENTS
    benchmark.extra_info["coalesce_solver_runs"] = coalesce_runs
    benchmark.extra_info["rate_steps"] = len(RATES_QPS)
    benchmark.extra_info["total_requests"] = per_step * len(RATES_QPS)

    for number, (rate, outcomes) in enumerate(zip(RATES_QPS, steps), start=1):
        statuses = [status for status, _ in outcomes]
        latencies = sorted(latency for _, latency in outcomes)
        # Open-loop, no limiter, generous inflight cap: every request
        # must succeed — and the artifact counts stay deterministic.
        assert statuses == [200] * per_step, f"step {number}: {statuses}"
        prefix = f"step{number}"
        benchmark.extra_info[f"{prefix}_rate_qps"] = rate
        benchmark.extra_info[f"{prefix}_sent"] = len(outcomes)
        benchmark.extra_info[f"{prefix}_ok"] = statuses.count(200)
        benchmark.extra_info[f"{prefix}_p50_ms"] = round(
            percentile_nearest_rank(latencies, 0.50), 3
        )
        benchmark.extra_info[f"{prefix}_p95_ms"] = round(
            percentile_nearest_rank(latencies, 0.95), 3
        )
        benchmark.extra_info[f"{prefix}_p99_ms"] = round(
            percentile_nearest_rank(latencies, 0.99), 3
        )
