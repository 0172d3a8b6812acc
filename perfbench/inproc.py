"""In-process workloads: ``solve_grid`` and ``churn_mixed``.

Both drive one :class:`repro.service.QueryService` built with its
defaults (``KTG-VKC-DEG-NLRNL``, oracle distance engine, ``jobs=1``,
``shards=1``, result cache on) from a single closed-loop client: the
next operation starts when the previous one returns.

``solve_grid`` serves a seeded stream of distinct queries on the
``gowalla`` profile that walks the paper's Table I grid one factor at a
time from the defaults (k 1-4, |W_Q| 4-8, N 3-11, p = 3), interleaved
cell by cell so every prefix of the stream holds the same mix.  Every
query is distinct, so the cache misses by input.

``churn_mixed`` serves the same stream on a ``QueryService(mutations=
True)`` and puts one seeded mutation after every four solves: edge
inserts, deletes of earlier inserts and keyword rewrites.  Writes run
through the epoch layer (incremental NLRNL repair, delta buffer,
snapshot rotations) beside the reads.

Only the calls into the service are timed; input generation and the
answer audit run between them with the clock stopped.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from common import (
    SpeedReference,
    Tracer,
    calibrate,
    coverage_digest,
    derived_rng,
    latency_summary,
    median,
    query_identity,
    self_peak_rss_mb,
)
from layers import LayerProbe

PROFILE = "gowalla"
#: 320 vertices: large enough for the k=1..4 grid to differ, small
#: enough for ~1,500 distinct solves per 25 s run (p99 needs 1,000).
SCALE = 0.2
DEFAULT_SHAPE = {"keyword_size": 6, "group_size": 3, "tenuity": 2, "top_n": 3}
#: One Table I factor varied at a time; ``tenuity=2`` is the all-default
#: cell, so |W_Q|=6 and N=3 are not repeated.  p >= 4 is left out: one
#: such query can take seconds and would dominate a run.
GRID_CELLS = (
    [{"tenuity": k} for k in (1, 2, 3, 4)]
    + [{"keyword_size": w} for w in (4, 5, 7, 8)]
    + [{"top_n": n} for n in (5, 7, 9, 11)]
)
#: Solves whose answers are digested and whose search counts are summed
#: exactly; every run completes at least this many.
PREFIX = 200
#: ``churn_mixed``: every fifth operation is a mutation.
MUTATE_EVERY = 5
MUTATION_CYCLE = ("add_edge", "add_edge", "remove_edge", "set_keywords", "remove_edge")
SETUP_REPEATS = 11
#: The warm-up query is the same for every seed, so every set-up does
#: the same work.
WARM_UP_SEED = 0

SEARCH_COUNTS = ("nodes_expanded", "keyword_prunes", "kline_removed", "feasible_groups")


class QueryStream:
    """Seeded, endless stream of distinct grid queries."""

    def __init__(self, graph, vocabulary, seed: int, exclude: set[str]) -> None:
        from repro.workloads.generator import WorkloadGenerator

        self._generator = WorkloadGenerator(graph, vocabulary, PROFILE)
        self._rng = derived_rng(seed, "grid-queries")
        self._seen = set(exclude)
        self._index = 0

    def __iter__(self) -> "QueryStream":
        return self

    def __next__(self):
        while True:
            shape = dict(DEFAULT_SHAPE, **GRID_CELLS[self._index % len(GRID_CELLS)])
            self._index += 1
            query = self._generator.generate(
                count=1, seed=self._rng.getrandbits(62), **shape
            ).queries[0]
            key = query_identity(query)
            if key not in self._seen:
                self._seen.add(key)
                return query


class MutationStream:
    """Seeded mutations that always apply: fresh inserts, deletes of the
    oldest surviving insert, and keyword sets copied between vertices,
    each undone by the next keyword mutation.  At most two inserted edges
    and one rewritten vertex are live at a time, so the graph does not
    drift away from its profile over a run."""

    def __init__(self, graph, seed: int) -> None:
        self._graph = graph
        self._rng = derived_rng(seed, "churn-mutations")
        self._inserted: deque = deque()
        self._rewritten: Optional[tuple[int, list[str]]] = None
        self._index = 0

    def next(self) -> tuple[str, tuple]:
        kind = MUTATION_CYCLE[self._index % len(MUTATION_CYCLE)]
        self._index += 1
        graph, rng = self._graph, self._rng
        if kind == "remove_edge" and not self._inserted:
            kind = "add_edge"
        if kind == "add_edge":
            while True:
                u, v = rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices)
                if u != v and not graph.has_edge(u, v):
                    self._inserted.append((u, v))
                    return kind, (u, v)
        if kind == "remove_edge":
            return kind, self._inserted.popleft()
        if self._rewritten is not None:
            restore, self._rewritten = self._rewritten, None
            return kind, restore
        vertex = rng.randrange(graph.num_vertices)
        donor = rng.randrange(graph.num_vertices)
        self._rewritten = (vertex, graph.keyword_labels(vertex))
        return kind, (vertex, graph.keyword_labels(donor))


@dataclass
class Setup:
    graph: object
    vocabulary: object
    service: object
    warm_key: str
    seconds: list[float] = field(default_factory=list)


def setup(*, mutations: bool, repeats: int, instruments=None) -> Setup:
    """Build the service ``repeats`` times; keep the last, time them all.

    One set-up is dataset generation, service construction and one
    warm-up solve (which builds the NLRNL index lazily), i.e. everything
    up to the first timed request.  Each timing is calibrated by the
    host's slowdown measured just before it (see :class:`SpeedReference`).
    """
    from repro.datasets.registry import load_dataset
    from repro.service import QueryService
    from repro.workloads.generator import WorkloadGenerator

    reference = SpeedReference()
    timings: list[float] = []
    kept: Optional[Setup] = None
    for _ in range(repeats):
        if kept is not None:
            kept.service.close()
        slowdown = reference.slowdown()
        started = time.perf_counter()
        graph, vocabulary = load_dataset(PROFILE, scale=SCALE)
        options = {"mutations": mutations}
        if instruments is not None:
            options["instruments"] = instruments
        service = QueryService(graph, **options)
        warm = WorkloadGenerator(graph, vocabulary, PROFILE).generate(
            count=1, seed=WARM_UP_SEED, **DEFAULT_SHAPE
        ).queries[0]
        service.submit(warm)
        timings.append((time.perf_counter() - started) / slowdown)
        kept = Setup(graph, vocabulary, service, query_identity(warm))
    assert kept is not None
    kept.seconds = timings
    return kept


def _oracle_row(service) -> dict:
    return dict(service.instrument_report().get("oracle", {}))


def drive(
    state: Setup,
    seed: int,
    seconds: float,
    *,
    churn: bool,
    tracer: Optional[Tracer] = None,
    probe: Optional[LayerProbe] = None,
) -> dict:
    """Run the closed loop for ``seconds`` of service time; audit answers."""
    from repro.core.validate import ResultValidationError, validate_ktg_result

    service, graph = state.service, state.graph
    stream = QueryStream(graph, state.vocabulary, seed, {state.warm_key})
    mutations = MutationStream(graph, seed) if churn else None

    reference = SpeedReference()
    ops: list[tuple[bool, float, float]] = []  # (is_solve, seconds, reference seconds)
    latency_ms: list[float] = []
    mutation_ms: list[float] = []
    answers: list = []  # (query, result) pairs awaiting audit (read-only graph)
    digest_rows: list = []
    audit_failures: list[str] = []
    errors: list[str] = []
    layer_rows: list[dict] = []
    prefix_counts = {name: 0 for name in SEARCH_COUNTS}
    oracle_before = _oracle_row(service)
    oracle_at_prefix: Optional[dict] = None
    attempted = failed = 0
    busy = 0.0
    op = 0

    while busy < seconds:
        op += 1
        reference_s = reference.sample()
        if mutations is not None and op % MUTATE_EVERY == 0:
            kind, args = mutations.next()
            attempted += 1
            started = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("epoch.mutate", request_id=op) as span:
                        getattr(service, kind)(*args)
                    span.attrs["kind"] = kind
                else:
                    getattr(service, kind)(*args)
            except Exception as exc:  # counted and reported, never fatal
                failed += 1
                errors.append(f"{kind}{args}: {exc!r}")
                elapsed = time.perf_counter() - started
                busy += elapsed
                ops.append((False, elapsed, reference_s))
                continue
            elapsed = time.perf_counter() - started
            busy += elapsed
            ops.append((False, elapsed, reference_s))
            mutation_ms.append(elapsed * 1000.0)
            continue

        query = next(stream)
        attempted += 1
        if probe is not None:
            probe.reset_request()
        started = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("service.submit", request_id=op) as span:
                    served = service.submit(query)
            else:
                served = service.submit(query)
        except Exception as exc:  # counted and reported, never fatal
            failed += 1
            errors.append(f"{query_identity(query)}: {exc!r}")
            elapsed = time.perf_counter() - started
            busy += elapsed
            ops.append((False, elapsed, reference_s))
            continue
        elapsed = time.perf_counter() - started
        busy += elapsed
        ops.append((not served.degraded, elapsed, reference_s))
        if served.degraded:
            failed += 1
            errors.append(f"{query_identity(query)}: degraded answer")
            continue
        latency_ms.append(elapsed * 1000.0)
        stats = served.result.stats

        if probe is not None:
            solve = stats.elapsed_seconds * 1000.0
            row = {
                "wall_ms": elapsed * 1000.0,
                "solve_ms": solve,
                "qualify_ms": probe.qualify_seconds * 1000.0,
                "probe_ms": probe.probe_seconds * 1000.0,
                "nodes": stats.nodes_expanded,
                "from_cache": served.from_cache,
            }
            span.attrs.update(
                solve_ms=solve,
                probe_ms=row["probe_ms"],
                probe_calls=probe.probe_calls,
                from_cache=served.from_cache,
            )
            layer_rows.append(row)

        if len(latency_ms) <= PREFIX:
            digest_rows.append(
                (query_identity(query), [g.coverage for g in served.result.groups])
            )
            for name in SEARCH_COUNTS:
                prefix_counts[name] += getattr(stats, name)
            if len(latency_ms) == PREFIX:
                oracle_at_prefix = _oracle_row(service)

        if churn:
            # The graph changes with the next mutation: audit now, against
            # the version this answer was served on.
            try:
                validate_ktg_result(graph, served.result)
            except ResultValidationError as exc:
                audit_failures.append(f"{query_identity(query)}: {exc}")
        else:
            answers.append((query, served.result))

    for query, result in answers:
        try:
            validate_ktg_result(graph, result)
        except ResultValidationError as exc:
            audit_failures.append(f"{query_identity(query)}: {exc}")

    return {
        "busy_s": busy,
        "calibrated": calibrate(ops),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "latency_ms": latency_ms,
        "mutation_ms": mutation_ms,
        "audit_failures": audit_failures,
        "audited": len(latency_ms),
        "digest": coverage_digest(digest_rows),
        "digest_count": len(digest_rows),
        "prefix_counts": prefix_counts if oracle_at_prefix else None,
        "oracle_before": oracle_before,
        "oracle_at_prefix": oracle_at_prefix,
        "layer_rows": layer_rows,
    }


def end_to_end(state: Setup, outcome: dict) -> dict:
    """The workload's end-to-end metrics from one untraced (or traced) pass.

    Times are calibrated (see :func:`common.calibrate`): wall times
    rescaled by the host's speed at the moment they were taken.
    """
    calibrated = outcome["calibrated"]
    latency = latency_summary(calibrated["latency_ms"])
    throughput = len(calibrated["latency_ms"]) / calibrated["busy_s"]
    return {
        "setup_s": median(state.seconds),
        "throughput_qps": throughput,
        # A single closed-loop client never builds a backlog: the rate it
        # completes is the rate it sustains.
        "sustained_qps": throughput,
        "latency_p50_ms": latency["p50"],
        "latency_p95_ms": latency["p95"],
        "peak_rss_mb": self_peak_rss_mb(),
    }


def extras(outcome: dict) -> dict:
    """Workload-specific figures printed beside the gated metrics."""
    calibrated = outcome["calibrated"]
    latency = latency_summary(calibrated["latency_ms"])
    wall = latency_summary(outcome["latency_ms"])
    out = {
        "solves": latency["count"],
        "latency_p95_ms": latency["p95"],
        "latency_p99_ms": latency["p99"],
        "p95_supported": latency["p95_supported"],
        "p99_supported": latency["p99_supported"],
        "host_slowdown": calibrated["slowdown"],
        "wall_throughput_qps": wall["count"] / outcome["busy_s"],
        "wall_latency_p50_ms": wall["p50"],
    }
    if outcome["mutation_ms"]:
        mutation = latency_summary(outcome["mutation_ms"])
        out.update(
            mutations=mutation["count"],
            mutation_p50_ms=mutation["p50"],
            mutation_p95_ms=mutation["p95"],
            mutation_p95_supported=mutation["p95_supported"],
        )
    return out
