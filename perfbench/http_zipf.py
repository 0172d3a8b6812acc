"""``http_zipf``: open-loop HTTP traffic against a ``ktg serve`` process.

The server runs in its own process with every default of
``python -m repro.cli.main serve brightkite`` (no rate limit, result
cache of 1,024 entries) except the dataset scale.  The benchmark
process drives it over real sockets from one asyncio loop with two
keep-alive connections.

Traffic: a seeded pool of 3,072 distinct queries, three times the
cache, whose popularity is Zipf(1.0) over the pool, so the head stays
cached while the tail keeps missing and evicting.  Before timing, a
closed-loop priming pass fills the cache with the head of the
distribution, so the timed part starts near steady state.  The
timed part is three fixed-rate steps, each a Poisson process
conditioned on its arrival count (sorted uniform arrival times).
Latency is measured from each request's due time, so a stall also
charges the requests queued behind it; how late the generator itself
ran is reported as ``loadgen.lag_p99_ms``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from common import (
    OUT_DIR,
    ROOT,
    SRC,
    BenchmarkError,
    SpeedReference,
    Tracer,
    coverage_digest,
    derived_rng,
    highest_supported,
    histogram_percentile,
    latency_summary,
    median,
    nearest_rank,
    process_peak_rss_mb,
    query_identity,
    supports,
)

PROFILE = "brightkite"
#: 210 vertices.  At k=4 a cold solve costs ~3 ms median with a light
#: tail (max ~7 ms): the solver holds the server's interpreter lock only
#: briefly, the load stays well below one CPU at every step and the
#: priming pass below stays short.
SCALE = 0.15
SHAPE = {"keyword_size": 6, "group_size": 3, "tenuity": 4, "top_n": 3}
POOL_SIZE = 3072
ZIPF_EXPONENT = 1.0
CONNECTIONS = 2
#: (arrivals per second, share of the run's seconds).  The middle step
#: is the nominal rate whose goodput and latency are the headline.
STEPS = ((80.0, 0.2), (160.0, 0.5), (240.0, 0.3))
NOMINAL_STEP = 1
#: A step is sustained when this percentile limit holds with no growing
#: backlog (failed requests count as missing the limit).
P99_LIMIT_MS = 100.0
#: The backlog grows when, as a step's last arrival is due, more than
#: this share of the step's arrivals still waits for a connection, or
#: when the step's last quarter waits far longer than its first.  A
#: queue of a few requests at that instant is a burst, not a trend.
BACKLOG_SHARE = 0.02
#: Priming requests each of the most popular ``PRIME_DISTINCT`` queries
#: once, least popular first: the cache ends full (and already
#: evicting), holding the head of the distribution.
PRIME_DISTINCT = 1100
#: Most popular pool queries whose answers are digested after the run.
DIGEST_TOP = 64
SETUP_REPEATS = 5
#: Same warm-up query for every seed (kept out of the pool).
WARM_UP_SEED = 0
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 10.0

_SERVING_LINE = re.compile(r"on http://([0-9.]+):(\d+)")


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``ktg serve`` child process; always stopped by :meth:`stop`."""

    def __init__(self, log_name: str) -> None:
        self.log_path = OUT_DIR / log_name
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, warm_payload: dict) -> float:
        """Spawn, wait for the listening line, warm up; return seconds."""
        from repro.server.client import http_request

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        command = [
            sys.executable, "-m", "repro.cli.main", "serve", PROFILE,
            "--scale", str(SCALE), "--port", "0",
        ]
        started = time.perf_counter()
        with self.log_path.open("a") as log:
            self.proc = subprocess.Popen(
                command,
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        self.host, self.port = self._await_listening(started + START_TIMEOUT_S)
        status, body = http_request(
            self.host, self.port, "POST", "/solve", warm_payload,
            timeout=START_TIMEOUT_S,
        )
        if status != 200:
            raise BenchmarkError(f"warm-up solve answered {status}: {body}")
        return time.perf_counter() - started

    def _await_listening(self, deadline: float) -> tuple[str, int]:
        assert self.proc is not None and self.proc.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not selector.select(timeout=max(0.0, deadline - time.perf_counter())):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _SERVING_LINE.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        raise BenchmarkError(f"server did not start; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()


def stats_snapshot(server: ServerProcess) -> dict:
    from repro.server.client import http_request

    status, body = http_request(server.host, server.port, "GET", "/stats")
    if status != 200 or body is None:
        raise BenchmarkError(f"GET /stats answered {status}")
    return body


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection posting to ``/solve``."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None

    async def post(self, body: bytes) -> tuple[int, Optional[dict]]:
        assert self.reader is not None and self.writer is not None
        head = (
            f"POST /solve HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        header = await self.reader.readuntil(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length)
        return status, json.loads(payload) if payload else None


@dataclass
class Record:
    item: int
    due: float
    enqueued: float
    picked: float
    done: float
    status: int
    body: Optional[dict]
    error: Optional[str]

    @property
    def ok(self) -> bool:
        return (
            self.status == 200
            and self.body is not None
            and not self.body.get("degraded", True)
        )


async def _run_step(
    connections: list[Connection],
    arrivals: list[tuple[float, int]],
    payloads: list[bytes],
) -> tuple[float, int, list[Record]]:
    """Send ``arrivals`` (offset seconds, pool item) on schedule.

    Returns the step's start time, the queue depth when the last
    arrival was due, and one record per arrival.
    """
    queue: asyncio.Queue = asyncio.Queue()
    records: list[Optional[Record]] = [None] * len(arrivals)
    origin = time.perf_counter()

    async def scheduler() -> int:
        for rid, (offset, item) in enumerate(arrivals):
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((rid, due, time.perf_counter(), item))
        backlog = queue.qsize()
        for _ in connections:
            queue.put_nowait(None)
        return backlog

    async def worker(connection: Connection) -> None:
        while True:
            job = await queue.get()
            if job is None:
                return
            rid, due, enqueued, item = job
            picked = time.perf_counter()
            status, body, error = 0, None, None
            try:
                status, body = await asyncio.wait_for(
                    connection.post(payloads[item]), REQUEST_TIMEOUT_S
                )
            except (OSError, ValueError, IndexError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
                error = repr(exc)
                await connection.close()
                await connection.open()
            records[rid] = Record(
                item, due, enqueued, picked, time.perf_counter(), status, body, error
            )

    backlog, *_ = await asyncio.gather(
        scheduler(), *(worker(connection) for connection in connections)
    )
    return origin, backlog, [r for r in records if r is not None]


async def _drive(host: str, port: int, phases, payloads):
    connections = [Connection(host, port) for _ in range(CONNECTIONS)]
    try:
        for connection in connections:
            await connection.open()
        return [await _run_step(connections, arrivals, payloads) for arrivals in phases]
    finally:
        for connection in connections:
            await connection.close()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    graph: object
    pool: list
    payloads: list[bytes]
    warm_payload: dict
    cum_weights: list[float]


def _payload(query) -> dict:
    return {
        "keywords": list(query.keywords),
        "group_size": query.group_size,
        "tenuity": query.tenuity,
        "top_n": query.top_n,
    }


def make_inputs(seed: int) -> Inputs:
    """The seeded query pool (popularity rank = pool index) and warm-up."""
    from repro.datasets.registry import load_dataset
    from repro.workloads.generator import WorkloadGenerator

    graph, vocabulary = load_dataset(PROFILE, scale=SCALE)
    generator = WorkloadGenerator(graph, vocabulary, PROFILE)
    rng = derived_rng(seed, "http-pool")
    warm = generator.generate(count=1, seed=WARM_UP_SEED, **SHAPE).queries[0]
    seen = {query_identity(warm)}
    pool = []
    while len(pool) < POOL_SIZE:
        batch = generator.generate(count=POOL_SIZE, seed=rng.getrandbits(62), **SHAPE)
        for query in batch:
            key = query_identity(query)
            if key not in seen and len(pool) < POOL_SIZE:
                seen.add(key)
                pool.append(query)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(POOL_SIZE)]
    return Inputs(
        graph=graph,
        pool=pool,
        payloads=[json.dumps(_payload(q)).encode("utf-8") for q in pool],
        warm_payload=_payload(warm),
        cum_weights=list(itertools.accumulate(weights)),
    )


def schedule(inputs: Inputs, seed: int, seconds: float) -> list[list[tuple[float, int]]]:
    """Priming pass (all due at once) followed by the timed rate steps."""
    items = range(POOL_SIZE)
    phases = [[(0.0, item) for item in reversed(range(PRIME_DISTINCT))]]
    rng = derived_rng(seed, "http-arrivals")
    for rate, share in STEPS:
        duration = seconds * share
        count = max(1, round(rate * duration))
        offsets = sorted(rng.uniform(0.0, duration) for _ in range(count))
        chosen = rng.choices(items, cum_weights=inputs.cum_weights, k=count)
        phases.append(list(zip(offsets, chosen)))
    return phases


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
def setup(inputs: Inputs, repeats: int, log_name: str) -> tuple[ServerProcess, list[float]]:
    """Start the server ``repeats`` times; keep the last one running.

    Each start is calibrated by the host's slowdown measured just before
    it (see :class:`common.SpeedReference`): a start is interpreter,
    import and index-build work, which the reference tracks.
    """
    reference = SpeedReference()
    timings: list[float] = []
    server: Optional[ServerProcess] = None
    try:
        for _ in range(repeats):
            if server is not None:
                server.stop()
            server = ServerProcess(log_name)
            slowdown = reference.slowdown()
            timings.append(server.start(inputs.warm_payload) / slowdown)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    assert server is not None
    return server, timings


def _step_summary(rate: float, origin: float, backlog: int, records: list[Record]) -> dict:
    ok = [r for r in records if r.ok]
    latencies = sorted((r.done - r.due) * 1000.0 for r in ok)
    # Failed requests miss every latency limit.
    with_failures = latencies + [math.inf] * (len(records) - len(ok))
    fraction = 0.99 if supports(len(records), 0.99) else highest_supported(len(records))
    at_limit = nearest_rank(with_failures, fraction) if records else math.inf
    quarter = max(1, len(records) // 4)
    by_due = sorted(records, key=lambda r: r.due)
    head = median([(r.done - r.due) * 1000.0 for r in by_due[:quarter]])
    tail = median([(r.done - r.due) * 1000.0 for r in by_due[-quarter:]])
    growing = backlog > BACKLOG_SHARE * len(records) or tail > 2.0 * head + 10.0
    end = max((r.done for r in records), default=origin)
    summary = latency_summary(latencies)
    return {
        "rate": rate,
        "attempted": len(records),
        "succeeded": len(ok),
        "failed": len(records) - len(ok),
        "p50_ms": summary["p50"],
        "p95_ms": summary["p95"],
        "p99_ms": summary["p99"],
        "p99_supported": summary["p99_supported"],
        "limit_percentile": fraction,
        "latency_at_limit_ms": at_limit,
        "backlog_at_end": backlog,
        "backlog_growing": growing,
        "sustained": at_limit <= P99_LIMIT_MS and not growing,
        "goodput_qps": len(ok) / (end - origin) if end > origin else 0.0,
    }


def _audit(inputs: Inputs, records: list[Record]) -> tuple[list[str], int]:
    """Validate every distinct answer against the benchmark's own graph."""
    from repro.core.branch_and_bound import KTGResult
    from repro.core.results import Group
    from repro.core.validate import ResultValidationError, validate_ktg_result

    answers: dict[int, set] = {}
    for record in records:
        if record.ok:
            groups = tuple(
                (tuple(g["members"]), g["coverage"]) for g in record.body["groups"]
            )
            answers.setdefault(record.item, set()).add(groups)
    failures = []
    for item, variants in answers.items():
        query = inputs.pool[item]
        if len(variants) > 1:
            failures.append(f"{query_identity(query)}: {len(variants)} different answers")
        for groups in variants:
            result = KTGResult(
                query=query,
                algorithm="served",
                groups=tuple(Group(coverage=c, members=m) for m, c in groups),
            )
            try:
                validate_ktg_result(inputs.graph, result)
            except ResultValidationError as exc:
                failures.append(f"{query_identity(query)}: {exc}")
    return failures, len(answers)


def run_pass(
    inputs: Inputs,
    seed: int,
    seconds: float,
    *,
    setup_repeats: int,
    tracer: Optional[Tracer] = None,
    log_name: str = "http_zipf-server.log",
) -> dict:
    phases = schedule(inputs, seed, seconds)
    digest_phase = [(0.0, item) for item in range(DIGEST_TOP)]
    server, setup_s = setup(inputs, setup_repeats, log_name)
    try:
        (prime,) = asyncio.run(_drive(server.host, server.port, phases[:1], inputs.payloads))
        before = stats_snapshot(server)
        timed = asyncio.run(_drive(server.host, server.port, phases[1:], inputs.payloads))
        after = stats_snapshot(server)
        (digest,) = asyncio.run(
            _drive(server.host, server.port, [digest_phase], inputs.payloads)
        )
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    steps = [
        _step_summary(rate, origin, backlog, records)
        for (rate, _share), (origin, backlog, records) in zip(STEPS, timed)
    ]
    all_records = prime[2] + [r for _o, _b, rs in timed for r in rs] + digest[2]
    audit_failures, audited = _audit(inputs, all_records)
    digest_rows = []
    for record in sorted(digest[2], key=lambda r: r.item):
        coverages = [g["coverage"] for g in record.body["groups"]] if record.ok else []
        digest_rows.append((query_identity(inputs.pool[record.item]), coverages))
    errors = [
        f"item {r.item}: status {r.status} {r.error or ''}".strip()
        for r in all_records
        if not r.ok
    ]

    timed_records = [r for _o, _b, rs in timed for r in rs]
    if tracer is not None:
        for rid, record in enumerate(timed_records):
            root = tracer.record("request", rid, record.due, record.done, item=record.item)
            tracer.record("loadgen.queue", rid, record.due, record.picked, parent=root)
            tracer.record(
                "http.exchange", rid, record.picked, record.done, parent=root,
                status=record.status,
                server_latency_ms=(record.body or {}).get("latency_ms"),
                from_cache=(record.body or {}).get("from_cache"),
            )

    sustained = [s for s in steps if s["sustained"]]
    return {
        "setup_seconds": setup_s,
        "steps": steps,
        "prime": {
            "attempted": len(prime[2]),
            "failed": sum(1 for r in prime[2] if not r.ok),
        },
        "attempted": len(all_records),
        "failed": sum(1 for r in all_records if not r.ok),
        "errors": errors[:20],
        "audit_failures": audit_failures,
        "audited": audited,
        "digest": coverage_digest(digest_rows),
        "digest_count": len(digest_rows),
        "peak_rss_mb": peak_rss,
        "sustained_qps": max((s["goodput_qps"] for s in sustained), default=0.0),
        "timed_records": timed_records,
        "stats_before": before,
        "stats_after": after,
    }


def end_to_end(outcome: dict) -> dict:
    nominal = outcome["steps"][NOMINAL_STEP]
    return {
        "setup_s": median(outcome["setup_seconds"]),
        "throughput_qps": nominal["goodput_qps"],
        "sustained_qps": outcome["sustained_qps"],
        "latency_p50_ms": nominal["p50_ms"],
        "latency_p95_ms": nominal["p95_ms"],
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def extras(outcome: dict) -> dict:
    return {
        "latency_p95_ms": outcome["steps"][NOMINAL_STEP]["p95_ms"],
        "latency_p99_ms": outcome["steps"][NOMINAL_STEP]["p99_ms"],
        "steps": outcome["steps"],
        "prime": outcome["prime"],
        "p99_limit_ms": P99_LIMIT_MS,
        "nominal_rate": STEPS[NOMINAL_STEP][0],
    }


# ----------------------------------------------------------------------
# Per-layer metrics (traced pass)
# ----------------------------------------------------------------------
def _counter(snapshot: dict, name: str) -> int:
    return snapshot.get("instruments", {}).get("counters", {}).get(name, 0)


def _timer_delta(before: dict, after: dict, name: str) -> tuple[list, list[int]]:
    timer_after = after.get("instruments", {}).get("timers", {}).get(name)
    if timer_after is None:
        return [], []
    timer_before = before.get("instruments", {}).get("timers", {}).get(name)
    buckets = list(timer_after["buckets"])
    if timer_before is not None:
        buckets = [a - b for a, b in zip(buckets, timer_before["buckets"])]
    return timer_after["bucket_bounds_ms"], buckets


def layer_metrics(outcome: dict) -> dict:
    before, after = outcome["stats_before"], outcome["stats_after"]
    records = [r for r in outcome["timed_records"] if r.ok]

    def delta(name: str) -> int:
        return _counter(after, name) - _counter(before, name)

    wire = sorted(
        (r.done - r.picked) * 1000.0 - r.body["latency_ms"] for r in records
    )
    hits = sorted(r.body["latency_ms"] for r in records if r.body["from_cache"])
    lag = sorted((r.enqueued - r.due) * 1000.0 for r in outcome["timed_records"])
    conn_wait = sorted((r.picked - r.enqueued) * 1000.0 for r in outcome["timed_records"])
    request_bounds, request_buckets = _timer_delta(before, after, "server.request_ms")
    solve_bounds, solve_buckets = _timer_delta(before, after, "service.solve_ms")
    cache_before, cache_after = before["cache"], after["cache"]
    lookups = cache_after["lookups"] - cache_before["lookups"]
    oracle_before, oracle_after = before.get("oracle", {}), after.get("oracle", {})
    memo = {
        key: oracle_after.get(key, 0) - oracle_before.get(key, 0)
        for key in ("probes", "expansions", "memo_hits", "memo_misses")
    }
    memo_total = memo["memo_hits"] + memo["memo_misses"]
    solve_requests = delta("server.requests.solve")
    return {
        "server.wire_ms.p50": nearest_rank(wire, 0.5),
        "server.request_ms.p50": histogram_percentile(request_bounds, request_buckets, 0.5),
        "server.request_ms.p99": histogram_percentile(request_bounds, request_buckets, 0.99),
        "server.coalesced_ratio": (
            delta("server.coalesced_followers") / solve_requests if solve_requests else 0.0
        ),
        "server.solver_runs": delta("server.solver_runs"),
        "server.rejected": (
            delta("server.rate_limited")
            + delta("server.overload_rejected")
            + delta("server.deadline_rejected")
        ),
        "loadgen.lag_p99_ms": nearest_rank(lag, 0.99),
        "loadgen.conn_wait_p99_ms": nearest_rank(conn_wait, 0.99),
        "service.cache_hit_rate": (
            (cache_after["hits"] - cache_before["hits"]) / lookups if lookups else 0.0
        ),
        "service.cache_evictions": cache_after["evictions"] - cache_before["evictions"],
        # A cache hit's serve time is pure service overhead (no solve).
        "service.overhead_ms.p50": nearest_rank(hits, 0.5),
        "service.solve_ms.p50": histogram_percentile(solve_bounds, solve_buckets, 0.5),
        "service.solve_ms.p95": histogram_percentile(solve_bounds, solve_buckets, 0.95),
        "index.build_s": oracle_after.get("build_seconds", 0.0),
        "index.probes": memo["probes"],
        "index.expansions": memo["expansions"],
        "index.memo_hit_rate": memo["memo_hits"] / memo_total if memo_total else 0.0,
        "kernels.ball_builds": delta("kernels.ball_builds"),
        "kernels.node_batches": delta("kernels.node_batches"),
        "kernels.batched_scores": delta("kernels.batched_scores"),
        "parallel.tasks": delta("parallel.tasks"),
        "shard.engines": len(after.get("shard", [])),
    }
