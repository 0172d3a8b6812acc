"""`KTGServer`: the asyncio HTTP front end over :class:`QueryService`.

Request path for ``POST /solve``::

    client ──▶ rate limiter (per-client token bucket)      429 on drain
                 │
                 ▼ deadline check (X-Deadline-Ms / body)   503 if expired
                 ▼ overload check (in-flight leader cap)   503 + Retry-After
                 ▼ coalescer (canonical query identity)
                 │    leader:   QueryService.submit in a worker thread
                 │    follower: await the leader's future (deadline-capped)
                 ▼
               JSON answer {groups, exact, degraded, from_cache, coalesced}

Design rules:

* **The event loop never solves.**  Every ``QueryService.submit`` runs
  in a dedicated thread pool via ``run_in_executor``; the loop only
  parses, admits, coalesces and serializes, so health checks and stats
  stay responsive while solves grind.
* **Deadlines become budgets.**  A client deadline (relative
  ``deadline_ms``) is mapped onto the solver's anytime ``time_budget``
  machinery: the effective budget is the minimum of the service
  default, the request's own ``time_budget`` and the remaining
  deadline.  A budget-tripped answer comes back HTTP 200 with
  ``degraded: true`` — the anytime contract on the wire.
* **Degradation before rejection.**  Above ``pressure_threshold``
  in-flight solves, new solves are clamped to
  ``pressure_time_budget`` (partial answers under load); only above
  ``max_inflight`` are requests rejected with 503 + Retry-After.
* **Metrics are obs counters.**  Every admission decision and endpoint
  hit increments a ``server.*`` counter in the shared
  :class:`~repro.obs.instruments.InstrumentRegistry`; ``GET /stats``
  returns them together with ``ServiceStats`` and the service's own
  instrument report.

The server object is loop-agnostic: ``await start()`` binds the
socket, ``await stop()`` drains connections and shuts the solver
threads down (no leaked threads, asserted by the CI smoke job).  See
``docs/server.md``.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Optional

import asyncio

from repro.core.errors import QueryValidationError, ReproError, UnknownGraphError
from repro.core.query import DKTGQuery, KTGQuery
from repro.obs.instruments import InstrumentRegistry
from repro.server.coalesce import InflightCoalescer
from repro.server.http import (
    HttpError,
    HttpRequest,
    json_body,
    json_response,
    read_request,
)
from repro.server.ratelimit import RateLimiter
from repro.service.registry import GraphRegistry
from repro.service.service import QueryService, ServiceResult
from repro.workloads.runner import ALGORITHMS

__all__ = ["KTGServer"]

#: Endpoint names used in per-endpoint counters/timers.
_ENDPOINTS = ("solve", "batch", "stats", "healthz", "mutate", "graphs")

#: Mutation operations accepted by ``POST /mutate`` and the payload
#: fields each one requires beyond ``op``.
_MUTATION_OPS = {
    "add_edge": ("u", "v"),
    "remove_edge": ("u", "v"),
    "set_keywords": ("vertex", "keywords"),
    "add_vertex": (),
}


def _parse_query(payload: dict) -> KTGQuery:
    """Build a query object from a request payload (400 on bad input)."""
    keywords = payload.get("keywords")
    if not isinstance(keywords, list) or not all(
        isinstance(label, str) for label in keywords
    ):
        raise HttpError(400, "'keywords' must be a list of strings")
    fields: dict = {"keywords": tuple(keywords)}
    for name, kind in (
        ("group_size", int),
        ("tenuity", int),
        ("top_n", int),
    ):
        if name in payload:
            value = payload[name]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise HttpError(400, f"'{name}' must be an integer")
            fields[name] = value
    if "excluded_anchors" in payload:
        anchors = payload["excluded_anchors"]
        if not isinstance(anchors, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in anchors
        ):
            raise HttpError(400, "'excluded_anchors' must be a list of integers")
        fields["excluded_anchors"] = tuple(anchors)
    try:
        if "gamma" in payload:
            gamma = payload["gamma"]
            if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
                raise HttpError(400, "'gamma' must be a number")
            return DKTGQuery(gamma=float(gamma), **fields)
        return KTGQuery(**fields)
    except QueryValidationError as exc:
        raise HttpError(400, f"invalid query: {exc}") from exc


def _parse_deadline_ms(request: HttpRequest, payload: dict) -> Optional[float]:
    """Relative client deadline in ms (body field wins over header)."""
    raw: object = payload.get("deadline_ms")
    if raw is None:
        header = request.header("x-deadline-ms")
        if header is None:
            return None
        try:
            raw = float(header)
        except ValueError as exc:
            raise HttpError(400, "X-Deadline-Ms must be a number") from exc
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise HttpError(400, "'deadline_ms' must be a number")
    return float(raw)


class KTGServer:
    """Asyncio HTTP serving layer over one :class:`QueryService`.

    Parameters
    ----------
    service:
        The query service answering solves.  Its thread-safety contract
        (concurrent ``submit`` calls are safe) is what lets the solver
        thread pool fan requests into it.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (tests and the
        smoke job read it back from :attr:`address` after ``start``).
    rate_limit_qps / rate_limit_burst:
        Per-client token bucket (``X-Client-Id`` header, else peer
        host).  ``0`` disables limiting.
    max_inflight:
        Hard cap on concurrently *leading* solves; beyond it new solve
        requests get 503 with a Retry-After hint.  Coalesced followers
        do not count — they consume no solver capacity.
    pressure_threshold / pressure_time_budget:
        Soft degradation band: at or above ``pressure_threshold``
        in-flight solves, new solves are clamped to
        ``pressure_time_budget`` seconds so the server sheds load with
        partial (degraded) answers before it starts rejecting.
        ``pressure_threshold=None`` (default) disables the band.
    registry:
        Optional :class:`~repro.service.registry.GraphRegistry` enabling
        multi-graph serving: a ``graph`` field on ``/solve``/``/batch``
        /``/mutate`` payloads routes the request to that tenant's own
        service, ``GET /graphs`` lists the tenants, ``POST
        /graphs/load`` / ``POST /graphs/drop`` manage them at runtime,
        and ``GET /stats?graph=name`` scopes the instrument report.
        Without a registry those surfaces answer 400 and the server
        behaves exactly as before over its single default service.
    solver_threads:
        Width of the thread pool that runs ``service.submit`` (and
        graph loads and drops) off the event loop.
    instruments:
        Shared obs registry for the ``server.*`` counters/timers.  When
        omitted (or given the null sink) the server creates a live
        private registry — ``/stats`` must always have real numbers.
    """

    def __init__(
        self,
        service: QueryService,
        *,
        registry: Optional[GraphRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_limit_qps: float = 0.0,
        rate_limit_burst: float = 0.0,
        max_inflight: int = 64,
        pressure_threshold: Optional[int] = None,
        pressure_time_budget: float = 0.05,
        solver_threads: int = 4,
        instruments: Optional[InstrumentRegistry] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if pressure_threshold is not None and pressure_threshold < 1:
            raise ValueError(
                f"pressure_threshold must be >= 1, got {pressure_threshold}"
            )
        self.service = service
        self.registry = registry
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.pressure_threshold = pressure_threshold
        self.pressure_time_budget = pressure_time_budget
        self.limiter = RateLimiter(rate_limit_qps, rate_limit_burst)
        self.coalescer = InflightCoalescer()
        if instruments is None or not instruments.enabled:
            instruments = InstrumentRegistry()
        self.instruments = instruments
        self._active_solves = 0
        self._started_unix = time.time()
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[asyncio.Task] = set()
        from concurrent.futures import ThreadPoolExecutor

        self._solver_pool = ThreadPoolExecutor(
            max_workers=solver_threads,
            thread_name_prefix="ktg-server-solve",
        )
        self._requests = instruments.counter("server.requests")
        self._endpoint_counters = {
            name: instruments.counter(f"server.requests.{name}")
            for name in _ENDPOINTS
        }
        self._not_found = instruments.counter("server.not_found")
        self._http_errors = instruments.counter("server.http_errors")
        self._rate_limited = instruments.counter("server.rate_limited")
        self._deadline_rejected = instruments.counter("server.deadline_rejected")
        self._overload_rejected = instruments.counter("server.overload_rejected")
        self._pressure_degraded = instruments.counter("server.pressure_degraded")
        self._coalesced_followers = instruments.counter("server.coalesced_followers")
        self._solver_runs = instruments.counter("server.solver_runs")
        self._mutations = instruments.counter("server.mutations")
        self._degraded_responses = instruments.counter("server.degraded_responses")
        self._request_timer = instruments.timer("server.request_ms")
        self._solve_timer = instruments.timer("server.solve_request_ms")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`start`."""
        return (self.host, self.port)

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``ktg serve`` foreground path)."""
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drain connections, shut solver threads down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = [task for task in self._connections if not task.done()]
        if pending:
            done, still_pending = await asyncio.wait(pending, timeout=5.0)
            for task in still_pending:
                task.cancel()
            if still_pending:
                await asyncio.gather(*still_pending, return_exceptions=True)
        # Solver threads must not outlive the server: the smoke job
        # asserts the process thread count returns to its baseline.
        self._solver_pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else "unknown"
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    self._http_errors.inc()
                    writer.write(
                        json_response(
                            exc.status, {"error": exc.detail}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                started = time.perf_counter()
                self._requests.inc()
                try:
                    response = await self._route(request, peer_host)
                except HttpError as exc:
                    self._http_errors.inc()
                    response = json_response(
                        exc.status,
                        {"error": exc.detail},
                        keep_alive=request.keep_alive,
                    )
                except ReproError as exc:
                    self._http_errors.inc()
                    response = json_response(
                        400, {"error": str(exc)}, keep_alive=request.keep_alive
                    )
                self._request_timer.observe_ms(
                    (time.perf_counter() - started) * 1000.0
                )
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, request: HttpRequest, peer_host: str) -> bytes:
        path, method = request.path, request.method
        if path == "/healthz":
            self._endpoint_counters["healthz"].inc()
            if method != "GET":
                raise HttpError(405, "healthz is GET-only")
            return json_response(
                200, {"status": "ok"}, keep_alive=request.keep_alive
            )
        if path == "/stats":
            self._endpoint_counters["stats"].inc()
            if method != "GET":
                raise HttpError(405, "stats is GET-only")
            return json_response(
                200,
                self.stats_payload(graph=request.query.get("graph")),
                keep_alive=request.keep_alive,
            )
        if path == "/solve":
            self._endpoint_counters["solve"].inc()
            if method != "POST":
                raise HttpError(405, "solve is POST-only")
            return await self._handle_solve(request, peer_host)
        if path == "/batch":
            self._endpoint_counters["batch"].inc()
            if method != "POST":
                raise HttpError(405, "batch is POST-only")
            return await self._handle_batch(request, peer_host)
        if path == "/mutate":
            self._endpoint_counters["mutate"].inc()
            if method != "POST":
                raise HttpError(405, "mutate is POST-only")
            return await self._handle_mutate(request)
        if path == "/graphs":
            self._endpoint_counters["graphs"].inc()
            if method != "GET":
                raise HttpError(405, "graphs is GET-only")
            registry = self._require_registry()
            return json_response(
                200,
                {"graphs": registry.describe(), "count": len(registry)},
                keep_alive=request.keep_alive,
            )
        if path == "/graphs/load":
            self._endpoint_counters["graphs"].inc()
            if method != "POST":
                raise HttpError(405, "graphs/load is POST-only")
            return await self._handle_graph_load(request)
        if path == "/graphs/drop":
            self._endpoint_counters["graphs"].inc()
            if method != "POST":
                raise HttpError(405, "graphs/drop is POST-only")
            return await self._handle_graph_drop(request)
        self._not_found.inc()
        raise HttpError(404, f"no route for {path!r}")

    # ------------------------------------------------------------------
    # Multi-graph registry
    # ------------------------------------------------------------------
    def _require_registry(self) -> GraphRegistry:
        if self.registry is None:
            raise HttpError(
                400, "this server has no graph registry (multi-graph serving is off)"
            )
        return self.registry

    def _service_for(self, payload: dict) -> tuple[QueryService, Optional[str]]:
        """Resolve the service a payload addresses (``graph`` field).

        Returns ``(service, graph_name)`` — the default service and
        ``None`` when the payload names no graph; 400 without a
        registry, 404 for an unknown name.
        """
        name = payload.get("graph")
        if name is None:
            return self.service, None
        if not isinstance(name, str) or not name:
            raise HttpError(400, "'graph' must be a non-empty string")
        registry = self._require_registry()
        try:
            return registry.get(name), name  # type: ignore[return-value]
        except UnknownGraphError as exc:
            raise HttpError(404, str(exc)) from exc

    async def _handle_graph_load(self, request: HttpRequest) -> bytes:
        payload = json_body(request)
        registry = self._require_registry()
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise HttpError(400, "'name' must be a non-empty string")
        profile = payload.get("profile")
        if not isinstance(profile, str) or not profile:
            raise HttpError(400, "'profile' must be a non-empty string")
        scale = payload.get("scale", 1.0)
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise HttpError(400, "'scale' must be a number")
        seed = payload.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise HttpError(400, "'seed' must be an integer")
        overrides: dict = {}
        if "algorithm" in payload:
            algorithm = payload["algorithm"]
            if not isinstance(algorithm, str) or algorithm not in ALGORITHMS:
                raise HttpError(
                    400,
                    f"unknown 'algorithm' {algorithm!r}; available: "
                    + ", ".join(sorted(ALGORITHMS)),
                )
            overrides["algorithm"] = algorithm

        # Dataset generation + service construction block; run them on
        # the solver pool like any other heavy work.
        load = functools.partial(
            registry.load,
            name,
            profile,
            scale=float(scale),
            seed=seed,
            **overrides,
        )
        loop = asyncio.get_running_loop()
        entry = await loop.run_in_executor(self._solver_pool, load)
        return json_response(
            200, dict(entry.describe(), loaded=True), keep_alive=request.keep_alive
        )

    async def _handle_graph_drop(self, request: HttpRequest) -> bytes:
        payload = json_body(request)
        registry = self._require_registry()
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise HttpError(400, "'name' must be a non-empty string")
        try:
            # close() stops the tenant's process pool — solver-pool
            # work, not event-loop work.
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                self._solver_pool, functools.partial(registry.drop, name)
            )
        except UnknownGraphError as exc:
            raise HttpError(404, str(exc)) from exc
        return json_response(
            200, {"name": name, "dropped": True}, keep_alive=request.keep_alive
        )

    # ------------------------------------------------------------------
    # Solve path
    # ------------------------------------------------------------------
    def _client_id(self, request: HttpRequest, peer_host: str) -> str:
        return request.header("x-client-id") or peer_host

    async def _handle_solve(self, request: HttpRequest, peer_host: str) -> bytes:
        payload = json_body(request)
        client = self._client_id(request, peer_host)
        if not self.limiter.allow(client):
            self._rate_limited.inc()
            retry_after = self.limiter.retry_after_seconds(client)
            return json_response(
                429,
                {"error": "rate limited", "retry_after_ms": round(retry_after * 1000, 1)},
                keep_alive=request.keep_alive,
                extra_headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
            )
        started = time.perf_counter()
        outcome = await self._admit_and_solve(request, payload, started)
        self._solve_timer.observe_ms((time.perf_counter() - started) * 1000.0)
        status, body = outcome
        return json_response(status, body, keep_alive=request.keep_alive)

    async def _handle_batch(self, request: HttpRequest, peer_host: str) -> bytes:
        payload = json_body(request)
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise HttpError(400, "'queries' must be a non-empty list")
        if not all(isinstance(entry, dict) for entry in queries):
            raise HttpError(400, "every batch entry must be an object")
        client = self._client_id(request, peer_host)
        # One token per query: a batch is priced like the requests it
        # replaces, so batching cannot be used to outrun the limiter.
        if not self.limiter.allow(client, tokens=float(len(queries))):
            self._rate_limited.inc()
            retry_after = self.limiter.retry_after_seconds(
                client, tokens=float(len(queries))
            )
            return json_response(
                429,
                {"error": "rate limited", "retry_after_ms": round(retry_after * 1000, 1)},
                keep_alive=request.keep_alive,
                extra_headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
            )
        started = time.perf_counter()
        shared_deadline = _parse_deadline_ms(request, payload)
        shared_graph = payload.get("graph")

        async def one(entry: dict) -> dict:
            if shared_graph is not None and "graph" not in entry:
                entry = dict(entry, graph=shared_graph)
            try:
                status, body = await self._admit_and_solve(
                    request, entry, started, inherited_deadline_ms=shared_deadline
                )
            except HttpError as exc:
                return {"status": exc.status, "error": exc.detail}
            body["status"] = status
            return body

        results = await asyncio.gather(*(one(entry) for entry in queries))
        self._solve_timer.observe_ms((time.perf_counter() - started) * 1000.0)
        return json_response(
            200,
            {"results": list(results), "count": len(results)},
            keep_alive=request.keep_alive,
        )

    async def _admit_and_solve(
        self,
        request: HttpRequest,
        payload: dict,
        arrived: float,
        inherited_deadline_ms: Optional[float] = None,
    ) -> tuple[int, dict]:
        """Admission control + coalesced solve for one query payload."""
        service, graph_name = self._service_for(payload)
        query = _parse_query(payload)
        deadline_ms = _parse_deadline_ms(request, payload)
        if deadline_ms is None:
            deadline_ms = inherited_deadline_ms

        remaining: Optional[float] = None
        if deadline_ms is not None:
            remaining = deadline_ms / 1000.0 - (time.perf_counter() - arrived)
            if remaining <= 0:
                self._deadline_rejected.inc()
                return 503, {
                    "error": "deadline expired before solve started",
                    "deadline_ms": deadline_ms,
                }

        time_budget = payload.get("time_budget")
        if time_budget is not None and (
            isinstance(time_budget, bool) or not isinstance(time_budget, (int, float))
        ):
            raise HttpError(400, "'time_budget' must be a number (seconds)")
        if time_budget is not None and not time_budget > 0:
            raise HttpError(400, f"'time_budget' must be positive, got {time_budget}")
        node_budget = payload.get("node_budget")
        if node_budget is not None and (
            isinstance(node_budget, bool) or not isinstance(node_budget, int)
        ):
            raise HttpError(400, "'node_budget' must be an integer")
        if node_budget is not None and node_budget < 1:
            raise HttpError(400, f"'node_budget' must be >= 1, got {node_budget}")

        # The cache key starts with the service's graph_id, so two
        # tenants' identical queries can never coalesce onto one solve.
        key = service.cache_key(query)
        future, is_leader = self.coalescer.join(key)
        if not is_leader:
            self._coalesced_followers.inc()
            try:
                if remaining is not None:
                    served = await asyncio.wait_for(
                        asyncio.shield(future), timeout=remaining
                    )
                else:
                    served = await future
            except asyncio.TimeoutError:
                self._deadline_rejected.inc()
                return 503, {
                    "error": "deadline expired awaiting coalesced solve",
                    "coalesced": True,
                }
            return 200, self._result_payload(
                served, coalesced=True, service=service, graph_name=graph_name
            )

        # Leader path: overload control, then the real solve.
        if self._active_solves >= self.max_inflight:
            self.coalescer.resolve(
                key, future, error=HttpError(503, "server overloaded")
            )
            self._overload_rejected.inc()
            return 503, {
                "error": "server overloaded",
                "inflight": self._active_solves,
                "retry_after_ms": 50.0,
            }

        pressure = (
            self.pressure_threshold is not None
            and self._active_solves >= self.pressure_threshold
        )
        effective_budget = math.inf
        if service.time_budget is not None:
            effective_budget = min(effective_budget, service.time_budget)
        if time_budget is not None:
            effective_budget = min(effective_budget, float(time_budget))
        if remaining is not None:
            effective_budget = min(effective_budget, remaining)
        if pressure:
            effective_budget = min(effective_budget, self.pressure_time_budget)
            self._pressure_degraded.inc()

        submit = functools.partial(
            service.submit,
            query,
            time_budget=None if math.isinf(effective_budget) else effective_budget,
            node_budget=node_budget,
        )
        loop = asyncio.get_running_loop()
        self._active_solves += 1
        try:
            served = await loop.run_in_executor(self._solver_pool, submit)
        except BaseException as exc:
            self.coalescer.resolve(key, future, error=exc)
            raise
        finally:
            self._active_solves -= 1
        if not served.from_cache:
            self._solver_runs.inc()
        self.coalescer.resolve(key, future, result=served)
        return 200, self._result_payload(
            served,
            coalesced=False,
            pressure=pressure,
            service=service,
            graph_name=graph_name,
        )

    # ------------------------------------------------------------------
    # Mutation path (mutations=True services)
    # ------------------------------------------------------------------
    async def _handle_mutate(self, request: HttpRequest) -> bytes:
        """Apply one graph mutation through the service's mutation gate.

        Requires a ``QueryService(..., mutations=True)`` service; against
        a read-only one the :class:`~repro.core.errors.EpochError` the
        service raises surfaces as a 400 via the generic ``ReproError``
        handler.  The apply may wait on the write gate (draining
        in-flight solves), so it runs in the solver pool — the event
        loop never blocks.
        """
        payload = json_body(request)
        op = payload.get("op")
        if op not in _MUTATION_OPS:
            raise HttpError(
                400, f"'op' must be one of {sorted(_MUTATION_OPS)}, got {op!r}"
            )
        for field in ("u", "v", "vertex"):
            if field in _MUTATION_OPS[op]:
                value = payload.get(field)
                if isinstance(value, bool) or not isinstance(value, int):
                    raise HttpError(400, f"'{field}' must be an integer")
        keywords = payload.get("keywords", [])
        if op in ("set_keywords", "add_vertex"):
            if not isinstance(keywords, list) or not all(
                isinstance(label, str) for label in keywords
            ):
                raise HttpError(400, "'keywords' must be a list of strings")

        service, _ = self._service_for(payload)
        if op == "add_edge":
            apply = functools.partial(service.add_edge, payload["u"], payload["v"])
        elif op == "remove_edge":
            apply = functools.partial(service.remove_edge, payload["u"], payload["v"])
        elif op == "set_keywords":
            apply = functools.partial(
                service.set_keywords, payload["vertex"], keywords
            )
        else:
            apply = functools.partial(service.add_vertex, keywords)

        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        new_vertex = await loop.run_in_executor(self._solver_pool, apply)
        self._mutations.inc()
        body = {
            "op": op,
            "applied": True,
            "graph_version": service.graph.version,
            "latency_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        if op == "add_vertex":
            body["vertex"] = new_vertex
        return json_response(200, body, keep_alive=request.keep_alive)

    def _result_payload(
        self,
        served: ServiceResult,
        *,
        coalesced: bool,
        pressure: bool = False,
        service: Optional[QueryService] = None,
        graph_name: Optional[str] = None,
    ) -> dict:
        if service is None:
            service = self.service
        if served.degraded:
            self._degraded_responses.inc()
        payload = {
            "groups": [
                {"members": list(group.members), "coverage": group.coverage}
                for group in served.result.groups
            ],
            "exact": served.is_exact,
            "degraded": served.degraded,
            "from_cache": served.from_cache,
            "coalesced": coalesced,
            "latency_ms": round(served.latency_ms, 3),
            "algorithm": service.spec.name,
        }
        if graph_name is not None:
            payload["graph"] = graph_name
            payload["graph_id"] = service.graph_id
        if pressure:
            payload["pressure"] = True
        return payload

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats_payload(self, graph: Optional[str] = None) -> dict:
        """The ``GET /stats`` body: server + service + instruments.

        ``graph`` scopes the service half of the report to one registry
        tenant (``GET /stats?graph=name``); the server half and the
        registry listing are global either way.
        """
        if graph is None:
            report = self.service.instrument_report()
        else:
            service, _ = self._service_for({"graph": graph})
            report = service.instrument_report()
        if self.registry is not None:
            report["graphs"] = self.registry.describe()
        report["server"] = {
            "uptime_s": round(time.time() - self._started_unix, 3),
            "active_solves": self._active_solves,
            "inflight_coalesced": self.coalescer.inflight(),
            "coalesce_leaders": self.coalescer.leaders,
            "coalesce_followers": self.coalescer.followers,
            "rate_limit_qps": self.limiter.rate,
            "rate_limit_clients": len(self.limiter),
            "rate_limit_admitted": self.limiter.admitted,
            "rate_limit_rejected": self.limiter.rejected,
            "max_inflight": self.max_inflight,
            "counters": {
                counter.name: counter.value
                for counter in sorted(
                    self.instruments.counters(), key=lambda c: c.name
                )
                if counter.name.startswith("server.")
            },
        }
        return report

    def __repr__(self) -> str:
        return (
            f"KTGServer(address={self.address!r}, "
            f"service={self.service.spec.name!r}, "
            f"max_inflight={self.max_inflight})"
        )
