"""CI smoke driver: boot the server, drive the wire, assert clean exit.

Run as ``python -m repro.server.smoke``.  The script brings a real
:class:`KTGServer` up on an ephemeral port over a small dataset and
checks every serving behaviour the front end promises, end to end:

1. ``GET /healthz`` answers 200 while the server is up;
2. ``POST /solve`` answers an exact result, and a repeat is served
   from cache;
3. a coalesced pair — two concurrent identical requests against a cold
   key — executes the solver exactly once (obs counter
   ``server.solver_runs``);
4. a client that exceeds its token bucket gets 429 + Retry-After;
5. a request whose deadline already expired gets a 503 degraded
   response;
6. ``GET /stats`` exports the server counters;
7. shutdown is clean: thread count returns to its pre-server baseline.

``python -m repro.server.smoke --churn`` runs the serve-during-mutation
lane instead: the server boots a ``mutations=True`` service, a driver
thread streams ``POST /mutate`` edge edits while the foreground fires
solves, and the run asserts zero 5xx responses and a read-only control
server rejecting ``/mutate`` with 400.  Then one ``/mutate`` joins two
members of a served group, and the next ``/solve`` of that query must
answer differently and pass the Definitions 3-7 audit
(:mod:`repro.core.validate`) on the mutated graph.  The same thread
leak check runs on the way out.

``python -m repro.server.smoke --registry`` runs the multi-graph lane:
a registry-backed server has two same-dataset tenants loaded over the
wire, interleaved solves must never share a cache entry or a coalesced
solve across tenants, every tenant must answer the same groups,
``/graphs`` list/load/drop and ``/stats?graph=`` are exercised, a load
naming an unknown algorithm is rejected with 400 without disturbing
the server, a dropped tenant answers 404, and the same thread leak
check runs on the way out.

Exit code 0 on success, 1 with a diagnostic on the first failure.
"""

from __future__ import annotations

import random
import sys
import threading
import time

from repro.core.branch_and_bound import KTGResult
from repro.core.query import KTGQuery
from repro.core.results import Group
from repro.core.validate import ResultValidationError, validate_ktg_result
from repro.datasets.registry import load_dataset
from repro.obs.instruments import InstrumentRegistry
from repro.server.app import KTGServer
from repro.server.client import http_request
from repro.server.runner import ServerThread
from repro.service.registry import GraphRegistry
from repro.service.service import QueryService

__all__ = ["main", "churn_main", "registry_main"]


def _query_payload(labels: tuple[str, ...], tenuity: int = 2) -> dict:
    return {
        "keywords": list(labels),
        "group_size": 2,
        "tenuity": tenuity,
        "top_n": 2,
    }


def main() -> int:
    checks: list[str] = []

    def ok(label: str) -> None:
        checks.append(label)
        print(f"ok   {label}")

    def fail(label: str, detail: str) -> int:
        print(f"FAIL {label}: {detail}", file=sys.stderr)
        return 1

    baseline_threads = threading.active_count()

    graph, _ = load_dataset("brightkite", scale=0.08)
    labels = tuple(sorted(graph.keyword_table))
    registry = InstrumentRegistry()
    service = QueryService(
        graph, "KTG-VKC-NLRNL", max_workers=4, instruments=registry
    )
    server = KTGServer(
        service,
        rate_limit_qps=0.5,
        rate_limit_burst=2.0,
        max_inflight=8,
        instruments=registry,
    )

    with service, ServerThread(server) as handle:
        host, port = handle.address

        status, body = http_request(host, port, "GET", "/healthz")
        if status != 200 or not body or body.get("status") != "ok":
            return fail("healthz", f"status={status} body={body}")
        ok("healthz answers 200")

        solve_headers = {"X-Client-Id": "smoke-solver"}
        status, body = http_request(
            host, port, "POST", "/solve",
            _query_payload(labels[:3]), headers=solve_headers,
        )
        if status != 200 or not body or body.get("from_cache"):
            return fail("solve", f"status={status} body={body}")
        ok("solve answers 200 with a fresh result")

        status, body = http_request(
            host, port, "POST", "/solve",
            _query_payload(labels[:3]), headers=solve_headers,
        )
        if status != 200 or not body or not body.get("from_cache"):
            return fail("solve-cache", f"status={status} body={body}")
        ok("repeat solve is served from cache")

        # Coalesced pair: a cold canonical key hit by two concurrent
        # clients must execute the solver exactly once — either the
        # follower shares the in-flight solve, or it arrives after
        # completion and hits the cache.  Both paths mean one run.
        runs_before = registry.counter("server.solver_runs").value
        cold = _query_payload(labels[:4], tenuity=1)
        outcomes: list[tuple[int, dict]] = []
        lock = threading.Lock()

        def fire(client: str) -> None:
            result = http_request(
                host, port, "POST", "/solve", cold,
                headers={"X-Client-Id": client},
            )
            with lock:
                outcomes.append(result)  # type: ignore[arg-type]

        pair = [
            threading.Thread(target=fire, args=(f"smoke-pair-{i}",))
            for i in range(2)
        ]
        for thread in pair:
            thread.start()
        for thread in pair:
            thread.join()
        runs = registry.counter("server.solver_runs").value - runs_before
        if len(outcomes) != 2 or any(status != 200 for status, _ in outcomes):
            return fail("coalesce", f"outcomes={outcomes}")
        if runs != 1:
            return fail("coalesce", f"expected exactly 1 solver run, got {runs}")
        groups = [body.get("groups") for _, body in outcomes]
        if groups[0] != groups[1]:
            return fail("coalesce", f"divergent answers: {groups}")
        ok("coalesced pair shares one solver run")

        # Token bucket: burst of 2, negligible refill — the third
        # request from one client must be rejected.
        limited_headers = {"X-Client-Id": "smoke-limited"}
        statuses = [
            http_request(
                host, port, "POST", "/solve",
                _query_payload(labels[:3]), headers=limited_headers,
            )[0]
            for _ in range(3)
        ]
        if statuses[:2] != [200, 200] or statuses[2] != 429:
            return fail("rate-limit", f"statuses={statuses}")
        ok("rate limiter rejects the post-burst request with 429")

        expired = dict(_query_payload(labels[:3]), deadline_ms=0)
        status, body = http_request(
            host, port, "POST", "/solve", expired,
            headers={"X-Client-Id": "smoke-deadline"},
        )
        if status != 503 or not body or "deadline" not in body.get("error", ""):
            return fail("deadline", f"status={status} body={body}")
        ok("expired deadline answers 503")

        status, body = http_request(host, port, "GET", "/stats")
        if status != 200 or not body or "server" not in body:
            return fail("stats", f"status={status} body={body}")
        counters = body["server"].get("counters", {})
        if counters.get("server.solver_runs", 0) < 1:
            return fail("stats", f"missing server counters: {counters}")
        ok("stats exports server counters")

    service.close()

    # Clean shutdown: background loop thread and solver threads joined.
    deadline = time.monotonic() + 5.0
    while threading.active_count() > baseline_threads and time.monotonic() < deadline:
        time.sleep(0.05)
    if threading.active_count() > baseline_threads:
        leftover = [t.name for t in threading.enumerate()]
        return fail("shutdown-threads", f"threads leaked: {leftover}")
    ok("no leaked threads after shutdown")

    print(f"server smoke: all {len(checks)} checks passed")
    return 0


def churn_main() -> int:
    """The ``--churn`` lane: serve while the graph mutates underneath.

    Asserts the serve-during-mutation contract end to end over the
    wire: zero 5xx responses while edges stream in, a mutation that
    changes a query's answer is visible to the next solve (which passes
    the result audit on the mutated graph), and a clean shutdown with
    no leaked threads.
    """
    checks: list[str] = []

    def ok(label: str) -> None:
        checks.append(label)
        print(f"ok   {label}")

    def fail(label: str, detail: str) -> int:
        print(f"FAIL {label}: {detail}", file=sys.stderr)
        return 1

    baseline_threads = threading.active_count()

    graph, _ = load_dataset("brightkite", scale=0.08)
    labels = tuple(sorted(graph.keyword_table))
    registry = InstrumentRegistry()
    service = QueryService(
        graph,
        "KTG-VKC-NLRNL",
        max_workers=4,
        mutations=True,
        instruments=registry,
    )
    server = KTGServer(service, max_inflight=16, instruments=registry)

    mutations = 60
    solves = 24
    bad: list[tuple[str, int, dict]] = []
    bad_lock = threading.Lock()

    with service, ServerThread(server) as handle:
        host, port = handle.address

        # Read-only control: a second server over a plain service must
        # reject /mutate with a 400 (EpochError), never a 5xx.
        control_service = QueryService(graph, "KTG-VKC-NLRNL", max_workers=1)
        with control_service, ServerThread(KTGServer(control_service)) as control:
            chost, cport = control.address
            status, body = http_request(
                chost, cport, "POST", "/mutate", {"op": "add_edge", "u": 0, "v": 1}
            )
            if status != 400 or not body or "read-only" not in body.get("error", ""):
                return fail("mutate-readonly", f"status={status} body={body}")
        ok("read-only server rejects /mutate with 400")

        rng = random.Random(0)
        n = graph.num_vertices

        def drive_mutations() -> None:
            for _ in range(mutations):
                u, v = rng.sample(range(n), 2)
                op = "remove_edge" if graph.has_edge(u, v) else "add_edge"
                status, body = http_request(
                    host, port, "POST", "/mutate", {"op": op, "u": u, "v": v}
                )
                if status >= 500 or status != 200:
                    with bad_lock:
                        bad.append(("mutate", status, body or {}))

        driver = threading.Thread(target=drive_mutations, name="churn-driver")
        driver.start()
        statuses: list[int] = []
        for i in range(solves):
            status, body = http_request(
                host, port, "POST", "/solve",
                _query_payload(labels[i % max(1, len(labels) - 3):][:3]),
                headers={"X-Client-Id": "churn-solver"},
            )
            statuses.append(status)
            if status >= 500:
                with bad_lock:
                    bad.append(("solve", status, body or {}))
        driver.join()

        if bad:
            return fail("zero-5xx", f"failed requests: {bad[:5]}")
        if any(status != 200 for status in statuses):
            return fail("solve-status", f"statuses={statuses}")
        ok(f"zero 5xx across {mutations} mutations and {solves} solves")

        status, body = http_request(host, port, "GET", "/stats")
        if status != 200 or not body:
            return fail("stats", f"status={status} body={body}")
        counters = body["server"].get("counters", {})
        if counters.get("server.mutations", 0) != mutations:
            return fail("mutate-counter", f"counters={counters}")
        ok("server.mutations counter matches the driven stream")

        # A mutation the next solve must see: join two members of a
        # served group.  They were more than ``tenuity`` hops apart, so
        # the edge makes that group infeasible and the answer changes.
        for start in range(max(1, len(labels) - 2)):
            payload = _query_payload(labels[start:start + 3])
            status, before = http_request(host, port, "POST", "/solve", payload)
            if status != 200:
                return fail("visible-solve", f"status={status} body={before}")
            if before["groups"]:
                break
        else:
            return fail("visible-solve", "no query window has a group")
        u, v = before["groups"][0]["members"][:2]
        status, body = http_request(
            host, port, "POST", "/mutate", {"op": "add_edge", "u": u, "v": v}
        )
        if status != 200 or body.get("graph_version") != graph.version:
            return fail("visible-mutate", f"status={status} body={body}")
        status, after = http_request(host, port, "POST", "/solve", payload)
        if status != 200 or after["from_cache"] or after["groups"] == before["groups"]:
            return fail("visible-answer", f"before={before} after={after}")
        query = KTGQuery(
            keywords=tuple(payload["keywords"]),
            group_size=payload["group_size"],
            tenuity=payload["tenuity"],
            top_n=payload["top_n"],
        )
        served = KTGResult(
            query=query,
            algorithm=after["algorithm"],
            groups=[
                Group.make(group["members"], group["coverage"])
                for group in after["groups"]
            ],
        )
        try:
            validate_ktg_result(graph, served)
        except ResultValidationError as exc:
            return fail("visible-audit", str(exc))
        ok("a mutation changes the next solve's answer, which passes the audit")

    service.close()

    deadline = time.monotonic() + 5.0
    while threading.active_count() > baseline_threads and time.monotonic() < deadline:
        time.sleep(0.05)
    if threading.active_count() > baseline_threads:
        leftover = [t.name for t in threading.enumerate()]
        return fail("shutdown-threads", f"threads leaked: {leftover}")
    ok("no leaked threads after shutdown")

    print(f"churn smoke: all {len(checks)} checks passed")
    return 0


def registry_main() -> int:
    """The ``--registry`` lane: multi-graph serving over the wire.

    Asserts the registry contract end to end: tenants are isolated (no
    cross-tenant cache hits or coalesced solves even for byte-identical
    queries over identical graphs), the ``/graphs`` lifecycle endpoints
    work, a bad load is a clean 400, a dropped tenant is gone, and
    shutdown leaks no threads.
    """
    checks: list[str] = []

    def ok(label: str) -> None:
        checks.append(label)
        print(f"ok   {label}")

    def fail(label: str, detail: str) -> int:
        print(f"FAIL {label}: {detail}", file=sys.stderr)
        return 1

    baseline_threads = threading.active_count()

    graph, _ = load_dataset("brightkite", scale=0.08)
    labels = tuple(sorted(graph.keyword_table))
    registry = InstrumentRegistry()
    service = QueryService(
        graph, "KTG-VKC-NLRNL", max_workers=4, instruments=registry
    )
    graphs = GraphRegistry(
        instruments=registry, algorithm="KTG-VKC-NLRNL", max_workers=2
    )
    server = KTGServer(
        service, registry=graphs, max_inflight=16, instruments=registry
    )

    with service, graphs, ServerThread(server) as handle:
        host, port = handle.address

        status, body = http_request(host, port, "GET", "/graphs")
        if status != 200 or not body or body.get("count") != 0:
            return fail("graphs-empty", f"status={status} body={body}")
        ok("GET /graphs starts empty")

        # Two same-dataset tenants plus the default service: three
        # services over identical graphs is the worst case for
        # cross-tenant cache collisions.
        for name in ("alpha", "beta"):
            status, body = http_request(
                host, port, "POST", "/graphs/load",
                {"name": name, "profile": "brightkite", "scale": 0.08},
            )
            if status != 200 or not body or body.get("graph_id") != f"{name}#1":
                return fail("load-tenant", f"{name}: status={status} body={body}")
        ok("two same-dataset tenants loaded over the wire")

        query = _query_payload(labels[:3])
        answers: dict[str, dict] = {}
        for tenant in (None, "alpha", "beta", "alpha", "beta"):
            payload = dict(query) if tenant is None else dict(query, graph=tenant)
            status, body = http_request(host, port, "POST", "/solve", payload)
            if status != 200 or not body:
                return fail("solve-tenant", f"tenant={tenant} status={status} body={body}")
            key = tenant or "default"
            if key in answers:
                if not body.get("from_cache"):
                    return fail(
                        "tenant-cache", f"repeat solve for {key} missed its own cache"
                    )
            else:
                if body.get("from_cache"):
                    return fail(
                        "tenant-isolation",
                        f"first solve for {key} hit another tenant's cache: {body}",
                    )
                answers[key] = body
        ok("interleaved solves: zero cross-tenant cache hits, per-tenant repeats hit")

        groups = {key: body["groups"] for key, body in answers.items()}
        if len({repr(value) for value in groups.values()}) != 1:
            return fail("tenant-identical", f"tenants diverged: {groups}")
        ok("same-dataset tenants answer identical groups")

        status, body = http_request(host, port, "GET", "/stats?graph=beta")
        if status != 200 or not body or body.get("graph_id") != "beta#1":
            return fail("stats-graph", f"status={status} body-keys={sorted(body or {})}")
        if len(body.get("graphs", [])) != 2:
            return fail("stats-graphs", f"registry listing wrong: {body.get('graphs')}")
        ok("GET /stats?graph= scopes the report to its tenant")

        status, body = http_request(
            host, port, "POST", "/graphs/load",
            {"name": "bad", "profile": "brightkite", "scale": 0.05, "algorithm": "nope"},
        )
        if status != 400 or not body or "KTG-VKC-NLRNL" not in body.get("error", ""):
            return fail("load-bad-algorithm", f"status={status} body={body}")
        status, body = http_request(host, port, "GET", "/graphs")
        if status != 200 or not body or "bad" in {row["name"] for row in body["graphs"]}:
            return fail("load-bad-algorithm", f"after 400: status={status} body={body}")
        ok("unknown algorithm on /graphs/load answers 400 and registers nothing")

        status, body = http_request(
            host, port, "POST", "/solve", dict(query, graph="missing")
        )
        if status != 404:
            return fail("unknown-graph", f"status={status} body={body}")
        ok("unknown tenant answers 404")

        status, body = http_request(
            host, port, "POST", "/graphs/drop", {"name": "beta"}
        )
        if status != 200 or not body or not body.get("dropped"):
            return fail("drop", f"status={status} body={body}")
        status, body = http_request(
            host, port, "POST", "/solve", dict(query, graph="beta")
        )
        if status != 404:
            return fail("drop-404", f"dropped tenant still served: status={status}")
        ok("a dropped tenant answers 404")

        # Reload under the same name: new generation, cold cache.
        status, body = http_request(
            host, port, "POST", "/graphs/load",
            {"name": "alpha", "profile": "brightkite", "scale": 0.08},
        )
        if status != 200 or not body or body.get("graph_id") != "alpha#2":
            return fail("reload", f"status={status} body={body}")
        status, body = http_request(
            host, port, "POST", "/solve", dict(query, graph="alpha")
        )
        if status != 200 or not body or body.get("from_cache"):
            return fail(
                "reload-cold",
                f"reloaded tenant served a stale incarnation's cache: {body}",
            )
        ok("reloading a name bumps the generation and colds the cache")

        # A registry-less control server keeps the single-graph
        # contract: graph surfaces answer 400, never 5xx.
        control_service = QueryService(graph, "KTG-VKC-NLRNL", max_workers=1)
        with control_service, ServerThread(KTGServer(control_service)) as control:
            chost, cport = control.address
            status, _ = http_request(chost, cport, "GET", "/graphs")
            if status != 400:
                return fail("control-graphs", f"status={status}")
            status, _ = http_request(
                chost, cport, "POST", "/solve", dict(query, graph="alpha")
            )
            if status != 400:
                return fail("control-solve", f"status={status}")
        ok("registry-less server rejects graph surfaces with 400")

    service.close()

    deadline = time.monotonic() + 5.0
    while threading.active_count() > baseline_threads and time.monotonic() < deadline:
        time.sleep(0.05)
    if threading.active_count() > baseline_threads:
        leftover_threads = [t.name for t in threading.enumerate()]
        return fail("shutdown-threads", f"threads leaked: {leftover_threads}")
    ok("no leaked threads after shutdown")

    print(f"registry smoke: all {len(checks)} checks passed")
    return 0


def _entry_point() -> int:
    if "--churn" in sys.argv[1:]:
        return churn_main()
    if "--registry" in sys.argv[1:]:
        return registry_main()
    return main()


if __name__ == "__main__":
    raise SystemExit(_entry_point())
