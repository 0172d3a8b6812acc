"""End-to-end tests for :class:`KTGServer` over real sockets.

Each test boots a real server (background event loop thread, ephemeral
port) over a small seeded graph and drives it with the blocking HTTP
client — the same path the CI smoke job exercises, but with surgical
control over rate limits, deadlines, pressure and solver speed.
"""

import http.client
import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.query import KTGQuery
from repro.obs.instruments import InstrumentRegistry
from repro.server import KTGServer, ServerThread, http_request
from repro.service import GraphRegistry, QueryService
from tests.conftest import make_random_attributed_graph


@pytest.fixture(scope="module")
def graph():
    return make_random_attributed_graph(num_vertices=40, seed=11)


@pytest.fixture(scope="module")
def labels(graph):
    return tuple(sorted(graph.keyword_table))


def query_payload(labels, tenuity=2, group_size=2, top_n=2, **extra):
    payload = {
        "keywords": list(labels),
        "group_size": group_size,
        "tenuity": tenuity,
        "top_n": top_n,
    }
    payload.update(extra)
    return payload


@contextmanager
def running_server(graph, *, service_kwargs=None, **server_kwargs):
    registry = InstrumentRegistry()
    service = QueryService(
        graph,
        "KTG-VKC-NLRNL",
        instruments=registry,
        **(service_kwargs or {}),
    )
    server = KTGServer(service, instruments=registry, **server_kwargs)
    with service, ServerThread(server) as handle:
        yield server, service, handle.address, registry


def slow_down(service, delay_s):
    """Make every solver-pool ``service.submit`` sleep first (instance patch)."""
    original = QueryService.submit

    def slow_submit(query, **kwargs):
        time.sleep(delay_s)
        return original(service, query, **kwargs)

    service.submit = slow_submit


class TestRouting:
    def test_healthz(self, graph):
        with running_server(graph) as (_, _, (host, port), _):
            status, body = http_request(host, port, "GET", "/healthz")
            assert status == 200 and body == {"status": "ok"}

    def test_unknown_route_is_404(self, graph):
        with running_server(graph) as (_, _, (host, port), registry):
            status, body = http_request(host, port, "GET", "/nope")
            assert status == 404 and "error" in body
            assert registry.counter("server.not_found").value == 1

    def test_wrong_method_is_405(self, graph):
        with running_server(graph) as (_, _, (host, port), _):
            assert http_request(host, port, "POST", "/healthz", {})[0] == 405
            assert http_request(host, port, "GET", "/solve")[0] == 405

    def test_malformed_payloads_are_400(self, graph, labels):
        with running_server(graph) as (_, _, (host, port), registry):
            cases = [
                None,  # no body at all
                {},  # keywords missing
                {"keywords": "not-a-list"},
                {"keywords": [1, 2]},
                query_payload(labels, group_size="two"),
                query_payload(labels, deadline_ms="soon"),
                query_payload(labels, time_budget="fast"),
                query_payload(labels, gamma="wide"),
            ]
            for payload in cases:
                status, body = http_request(host, port, "POST", "/solve", payload)
                assert status == 400, f"payload={payload!r} body={body}"
            assert registry.counter("server.http_errors").value == len(cases)

    def test_invalid_query_semantics_are_400(self, graph, labels):
        # Structurally fine JSON, rejected by query validation.
        with running_server(graph) as (_, _, (host, port), _):
            status, body = http_request(
                host, port, "POST", "/solve",
                query_payload(labels, group_size=0),
            )
            assert status == 400 and "error" in body


class TestMutateLabels:
    def test_bad_keyword_labels_are_400_and_leave_the_graph_unchanged(self):
        graph = make_random_attributed_graph(num_vertices=40, seed=11)
        labels = sorted(graph.keyword_table)
        with running_server(graph, service_kwargs={"mutations": True}) as (
            _, service, (host, port), _,
        ):
            version = graph.version
            before = graph.keyword_labels(0)
            cases = [
                {"op": "set_keywords", "vertex": 0, "keywords": "abc"},
                {"op": "set_keywords", "vertex": 0, "keywords": [1]},
                # Well-formed JSON strings the graph boundary rejects.
                {"op": "set_keywords", "vertex": 0, "keywords": [""]},
                {"op": "set_keywords", "vertex": 0, "keywords": ["a\x00b"]},
                {"op": "add_vertex", "keywords": [""]},
            ]
            for payload in cases:
                status, body = http_request(host, port, "POST", "/mutate", payload)
                assert status == 400, f"payload={payload!r} body={body}"
                assert "error" in body
            assert graph.version == version
            assert graph.keyword_labels(0) == before
            status, _ = http_request(
                host, port, "POST", "/mutate",
                {"op": "set_keywords", "vertex": 0, "keywords": labels[:2]},
            )
            assert status == 200
            assert graph.version == version + 1
            status, body = http_request(
                host, port, "POST", "/solve", query_payload(labels[:3])
            )
            assert status == 200 and "groups" in body


class TestMutateRepairs:
    def test_stats_report_repaired_vertices(self):
        graph = make_random_attributed_graph(num_vertices=40, seed=11)
        labels = sorted(graph.keyword_table)
        u, v = next(
            (u, v) for u in graph.vertices() for v in graph.vertices()
            if u < v and not graph.has_edge(u, v)
        )
        with running_server(graph, service_kwargs={"mutations": True}) as (
            _, _, (host, port), _,
        ):
            # The oracle is built by the first solve; edits before that
            # have nothing to repair.
            status, _ = http_request(host, port, "POST", "/solve", query_payload(labels[:3]))
            assert status == 200
            _, body = http_request(host, port, "GET", "/stats")
            assert "repaired_vertices" not in body["oracle"]
            assert "repaired_pairs" not in body["oracle"]
            for op in ("add_edge", "remove_edge"):
                status, _ = http_request(
                    host, port, "POST", "/mutate", {"op": op, "u": u, "v": v}
                )
                assert status == 200
            _, body = http_request(host, port, "GET", "/stats")
            # Both edits rebuild at least the two endpoints and patch at
            # least their own pair.
            assert body["oracle"]["repaired_vertices"] >= 4
            assert body["oracle"]["repaired_pairs"] >= 2


class TestSolve:
    def test_solve_matches_direct_service_answer(self, graph, labels):
        query = KTGQuery(
            keywords=labels[:4], group_size=2, tenuity=2, top_n=2
        )
        truth = QueryService(graph, "KTG-VKC-NLRNL").submit(query)
        with running_server(graph) as (_, _, (host, port), _):
            status, body = http_request(
                host, port, "POST", "/solve", query_payload(labels[:4])
            )
            assert status == 200
            assert body["exact"] and not body["degraded"]
            assert not body["from_cache"] and not body["coalesced"]
            assert body["algorithm"] == "KTG-VKC-NLRNL"
            assert [tuple(g["members"]) for g in body["groups"]] == list(
                truth.member_sets()
            )

    def test_repeat_solve_hits_cache(self, graph, labels):
        with running_server(graph) as (_, _, (host, port), registry):
            first = http_request(
                host, port, "POST", "/solve", query_payload(labels[:3])
            )
            second = http_request(
                host, port, "POST", "/solve", query_payload(labels[:3])
            )
            assert not first[1]["from_cache"]
            assert second[1]["from_cache"]
            assert second[1]["groups"] == first[1]["groups"]
            # Cache hits never count as solver runs.
            assert registry.counter("server.solver_runs").value == 1

    def test_batch_endpoint_serves_all_queries(self, graph, labels):
        with running_server(graph) as (_, _, (host, port), _):
            payload = {
                "queries": [
                    query_payload(labels[:3], tenuity=1),
                    query_payload(labels[:3], tenuity=2),
                    query_payload(labels[:3], tenuity=1),  # duplicate of [0]
                ]
            }
            status, body = http_request(host, port, "POST", "/batch", payload)
            assert status == 200 and body["count"] == 3
            assert all(entry["status"] == 200 for entry in body["results"])
            assert body["results"][0]["groups"] == body["results"][2]["groups"]

    @pytest.mark.parametrize(
        "budget",
        [{"node_budget": 0}, {"time_budget": 0}, {"time_budget": -1}],
    )
    def test_non_positive_budget_is_400_and_the_connection_keeps_serving(
        self, graph, labels, budget
    ):
        with running_server(graph) as (_, _, (host, port), registry):
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:

                def solve(payload):
                    body = json.dumps(payload).encode()
                    connection.request("POST", "/solve", body=body)
                    response = connection.getresponse()
                    return response.status, json.loads(response.read())

                status, body = solve(query_payload(labels[:3], **budget))
                assert status == 400
                (name,) = budget
                assert f"'{name}' must be" in body["error"]
                assert registry.counter("server.solver_runs").value == 0
                # Same keep-alive connection: the server is still answering.
                status, body = solve(query_payload(labels[:3]))
                assert status == 200
                assert body["exact"]
            finally:
                connection.close()

    def test_batch_rejects_malformed_entries(self, graph):
        with running_server(graph) as (_, _, (host, port), _):
            assert http_request(host, port, "POST", "/batch", {})[0] == 400
            assert (
                http_request(host, port, "POST", "/batch", {"queries": []})[0]
                == 400
            )
            assert (
                http_request(
                    host, port, "POST", "/batch", {"queries": ["nope"]}
                )[0]
                == 400
            )


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_solve(self, graph, labels):
        # The ISSUE's acceptance check: N identical concurrent requests
        # against a cold key must execute the solver exactly once —
        # asserted through the obs counter, which only counts
        # non-cache-hit leader solves, so the invariant holds whether a
        # given request coalesced in flight or arrived late and hit the
        # result cache.
        n_clients = 6
        with running_server(graph) as (_, _, (host, port), registry):
            payload = query_payload(labels[:4], tenuity=1)
            barrier = threading.Barrier(n_clients)
            outcomes = []
            lock = threading.Lock()

            def fire(client):
                barrier.wait()
                status, body = http_request(
                    host, port, "POST", "/solve", payload,
                    headers={"X-Client-Id": f"client-{client}"},
                )
                with lock:
                    outcomes.append((status, body))

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert len(outcomes) == n_clients
            assert all(status == 200 for status, _ in outcomes)
            groups = [body["groups"] for _, body in outcomes]
            assert all(g == groups[0] for g in groups)
            assert registry.counter("server.solver_runs").value == 1
            # Accounting: every request either led, followed, or hit the
            # result cache after the leader finished.
            followers = registry.counter("server.coalesced_followers").value
            cache_hits = registry.counter("service.cache_hits").value
            assert followers + cache_hits == n_clients - 1
            assert not any(body["degraded"] for _, body in outcomes)

    def test_coalesced_followers_flagged_in_response(self, graph, labels):
        with running_server(graph) as (server, service, (host, port), registry):
            slow_down(service, 0.3)
            payload = query_payload(labels[:4], tenuity=2)
            results = []
            lock = threading.Lock()

            def fire(client):
                result = http_request(
                    host, port, "POST", "/solve", payload,
                    headers={"X-Client-Id": client},
                )
                with lock:
                    results.append(result)

            leader = threading.Thread(target=fire, args=("lead",))
            leader.start()
            time.sleep(0.1)  # let the leader enter the solve
            fire("follow")
            leader.join()
            assert all(status == 200 for status, _ in results)
            flags = sorted(body["coalesced"] for _, body in results)
            assert flags == [False, True]
            assert registry.counter("server.coalesced_followers").value == 1


class TestAdmissionControl:
    def test_rate_limit_rejects_post_burst_with_429(self, graph, labels):
        with running_server(
            graph, rate_limit_qps=0.5, rate_limit_burst=2.0
        ) as (server, _, (host, port), registry):
            headers = {"X-Client-Id": "greedy"}
            outcomes = [
                http_request(
                    host, port, "POST", "/solve",
                    query_payload(labels[:3]), headers=headers,
                )
                for _ in range(3)
            ]
            assert [status for status, _ in outcomes] == [200, 200, 429]
            rejected = outcomes[2][1]
            assert rejected["error"] == "rate limited"
            assert rejected["retry_after_ms"] > 0
            assert registry.counter("server.rate_limited").value == 1
            # A different client is untouched by the greedy one's drain.
            status, _ = http_request(
                host, port, "POST", "/solve",
                query_payload(labels[:3]), headers={"X-Client-Id": "other"},
            )
            assert status == 200
            assert server.limiter.rejected == 1

    def test_batch_is_priced_per_query(self, graph, labels):
        with running_server(
            graph, rate_limit_qps=0.5, rate_limit_burst=2.0
        ) as (_, _, (host, port), _):
            payload = {"queries": [query_payload(labels[:3])] * 3}
            status, body = http_request(
                host, port, "POST", "/batch", payload,
                headers={"X-Client-Id": "batcher"},
            )
            assert status == 429 and body["error"] == "rate limited"

    def test_expired_deadline_is_rejected_503(self, graph, labels):
        with running_server(graph) as (_, _, (host, port), registry):
            status, body = http_request(
                host, port, "POST", "/solve",
                query_payload(labels[:3], deadline_ms=0),
            )
            assert status == 503 and "deadline" in body["error"]
            assert registry.counter("server.deadline_rejected").value == 1
            # Solver never ran for the rejected request.
            assert registry.counter("server.solver_runs").value == 0

    def test_deadline_header_is_honoured(self, graph, labels):
        with running_server(graph) as (_, _, (host, port), _):
            status, body = http_request(
                host, port, "POST", "/solve", query_payload(labels[:3]),
                headers={"X-Deadline-Ms": "0"},
            )
            assert status == 503 and "deadline" in body["error"]

    def test_follower_deadline_expires_while_awaiting_leader(self, graph, labels):
        with running_server(graph) as (_, service, (host, port), registry):
            slow_down(service, 0.6)
            payload = query_payload(labels[:4], tenuity=2)
            leader_result = []

            def lead():
                leader_result.append(
                    http_request(
                        host, port, "POST", "/solve", payload,
                        headers={"X-Client-Id": "lead"},
                    )
                )

            leader = threading.Thread(target=lead)
            leader.start()
            time.sleep(0.15)  # leader is mid-solve
            status, body = http_request(
                host, port, "POST", "/solve",
                dict(payload, deadline_ms=100),
                headers={"X-Client-Id": "impatient"},
            )
            leader.join()
            assert status == 503
            assert body["coalesced"] and "deadline" in body["error"]
            # The leader's solve is unaffected by the follower timeout.
            assert leader_result[0][0] == 200
            assert registry.counter("server.deadline_rejected").value == 1

    def test_overload_rejects_beyond_max_inflight(self, graph, labels):
        with running_server(graph, max_inflight=1) as (
            _, service, (host, port), registry,
        ):
            slow_down(service, 0.6)
            slow_payload = query_payload(labels[:4], tenuity=2)
            leader_result = []

            def lead():
                leader_result.append(
                    http_request(host, port, "POST", "/solve", slow_payload)
                )

            leader = threading.Thread(target=lead)
            leader.start()
            time.sleep(0.15)
            # A *different* query (no coalescing) while the only slot is
            # taken must be shed with 503 + retry hint.
            status, body = http_request(
                host, port, "POST", "/solve",
                query_payload(labels[:4], tenuity=1),
            )
            leader.join()
            assert status == 503 and body["error"] == "server overloaded"
            assert body["retry_after_ms"] > 0
            assert registry.counter("server.overload_rejected").value == 1
            assert leader_result[0][0] == 200

    def test_pressure_band_clamps_budget_and_flags_response(self, graph, labels):
        with running_server(
            graph, pressure_threshold=1, pressure_time_budget=0.001
        ) as (_, service, (host, port), registry):
            slow_down(service, 0.6)
            leader_result = []

            def lead():
                leader_result.append(
                    http_request(
                        host, port, "POST", "/solve",
                        query_payload(labels[:4], tenuity=2),
                    )
                )

            leader = threading.Thread(target=lead)
            leader.start()
            time.sleep(0.15)
            status, body = http_request(
                host, port, "POST", "/solve",
                query_payload(labels[:4], tenuity=1),
            )
            leader.join()
            assert status == 200
            assert body.get("pressure") is True
            assert registry.counter("server.pressure_degraded").value == 1
            # Below the threshold no request is flagged.
            assert "pressure" not in leader_result[0][1]


class TestStatsEndpoint:
    def test_stats_exports_server_service_and_counters(self, graph, labels):
        with running_server(graph) as (_, _, (host, port), _):
            http_request(host, port, "POST", "/solve", query_payload(labels[:3]))
            status, body = http_request(host, port, "GET", "/stats")
            assert status == 200
            assert body["service"]["queries_served"] == 1
            server_section = body["server"]
            assert server_section["max_inflight"] == 64
            assert server_section["counters"]["server.solver_runs"] == 1
            assert server_section["counters"]["server.requests.solve"] == 1
            assert server_section["uptime_s"] >= 0
            assert "instruments" in body


class TestGraphLoad:
    def test_unknown_algorithm_is_400_and_the_connection_keeps_serving(self, graph):
        graphs = GraphRegistry(algorithm="KTG-VKC-NLRNL")
        with graphs, running_server(graph, registry=graphs) as (_, _, (host, port), _):
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:

                def request(method, path, payload=None):
                    body = json.dumps(payload).encode() if payload is not None else None
                    connection.request(method, path, body=body)
                    response = connection.getresponse()
                    return response.status, json.loads(response.read())

                status, body = request(
                    "POST",
                    "/graphs/load",
                    {"name": "a", "profile": "brightkite", "scale": 0.05, "algorithm": "nope"},
                )
                assert status == 400
                assert "'nope'" in body["error"]
                assert "KTG-VKC-DEG-NLRNL" in body["error"]
                # Same keep-alive connection: the server is still answering.
                status, body = request("GET", "/graphs")
                assert status == 200
                assert body["count"] == 0
                assert "a" not in graphs
                status, body = request(
                    "POST",
                    "/graphs/load",
                    {"name": "a", "profile": "brightkite", "scale": 0.05,
                     "algorithm": "KTG-VKC-NLRNL"},
                )
                assert status == 200
                assert body["graph_id"] == "a#1"
            finally:
                connection.close()


class TestLifecycle:
    def test_shutdown_leaves_no_threads_behind(self, graph, labels):
        baseline = threading.active_count()
        with running_server(graph) as (_, _, (host, port), _):
            assert http_request(host, port, "GET", "/healthz")[0] == 200
            assert threading.active_count() > baseline
        deadline = time.monotonic() + 5.0
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= baseline

    def test_constructor_validation(self, graph):
        service = QueryService(graph, "KTG-VKC-NLRNL")
        with pytest.raises(ValueError):
            KTGServer(service, max_inflight=0)
        with pytest.raises(ValueError):
            KTGServer(service, pressure_threshold=0)
        service.close()

    def test_null_registry_is_upgraded_to_live(self, graph):
        from repro.obs.instruments import NULL_REGISTRY

        service = QueryService(graph, "KTG-VKC-NLRNL")
        server = KTGServer(service, instruments=NULL_REGISTRY)
        assert server.instruments.enabled  # /stats must have real numbers
        service.close()
