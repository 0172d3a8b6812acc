"""perfbench: the repository benchmark, one command for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve_grid --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``solve_grid``  — closed loop, in-process service, Table I grid solves;
* ``http_zipf``   — open loop over HTTP, Zipf popularity, fixed rate steps;
* ``churn_mixed`` — closed loop, in-process service, solves + mutations.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice on fresh set-ups, each for half
the seconds: once untraced and once with spans and layer timers on.
It reports the per-layer metrics of the traced pass and the tracing
overhead (traced minus untraced end-to-end numbers).

Every answer is audited outside the timed region; the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and
the exit code is non-zero when an audit fails.  A full report (the
environment, per-step tables, digests, errors) and, for traced runs,
the span dump are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    BenchmarkError,
    Tracer,
    environment,
    latency_summary,
    nearest_rank,
    require_source,
)

WORKLOADS = ("solve_grid", "http_zipf", "churn_mixed")

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "sustained_qps": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Every per-layer metric, emitted by every workload; a layer a workload
#: does not exercise (or cannot observe from outside) reads 0.
PER_LAYER = {
    "server.wire_ms.p50": "ms",
    "server.request_ms.p50": "ms",
    "server.request_ms.p99": "ms",
    "server.coalesced_ratio": "ratio",
    "server.solver_runs": "count",
    "server.rejected": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.conn_wait_p99_ms": "ms",
    "service.cache_hit_rate": "ratio",
    "service.cache_evictions": "count",
    "service.overhead_ms.p50": "ms",
    "service.solve_ms.p50": "ms",
    "service.solve_ms.p95": "ms",
    "core.qualify_ms.p50": "ms",
    "core.search_self_ms": "ms",
    "core.nodes_per_s": "1/s",
    "core.nodes_expanded": "count",
    "core.keyword_prunes": "count",
    "core.kline_removed": "count",
    "core.feasible_groups": "count",
    "core.prune_ratio": "ratio",
    "index.build_s": "s",
    "index.probes": "count",
    "index.expansions": "count",
    "index.probe_ms": "ms",
    "index.memo_hit_rate": "ratio",
    "epoch.rotations": "count",
    "epoch.last_rotation_ms": "ms",
    "epoch.repairs": "count",
    "epoch.delta_reads": "count",
    "epoch.lease_waits": "count",
    "epoch.mutation_ms.p50": "ms",
    "epoch.mutation_ms.p95": "ms",
    "kernels.ball_builds": "count",
    "kernels.node_batches": "count",
    "kernels.batched_scores": "count",
    "kernels.backend": "flag",
    "parallel.tasks": "count",
    "shard.engines": "count",
    "trace.spans": "count",
    "trace.overhead.throughput_qps": "1/s",
    "trace.overhead.latency_p50_ms": "ms",
    "trace.overhead.latency_p95_ms": "ms",
}

OVERHEAD_KEYS = ("throughput_qps", "latency_p50_ms", "latency_p95_ms")


# ----------------------------------------------------------------------
# Workload passes
# ----------------------------------------------------------------------
def _inproc_pass(name: str, seed: int, seconds: float, *, traced: bool, repeats: int) -> dict:
    import inproc
    from layers import LayerProbe
    from repro.core.epoch import counter_totals

    churn = name == "churn_mixed"
    registry = tracer = None
    if traced:
        from repro.obs import InstrumentRegistry

        registry, tracer = InstrumentRegistry(), Tracer()
    state = inproc.setup(mutations=churn, repeats=repeats, instruments=registry)
    epoch_before = counter_totals()
    try:
        if traced:
            with LayerProbe(tracer) as probe:
                outcome = inproc.drive(
                    state, seed, seconds, churn=churn, tracer=tracer, probe=probe
                )
        else:
            outcome = inproc.drive(state, seed, seconds, churn=churn)
        outcome["e2e"] = inproc.end_to_end(state, outcome)
        outcome["extras"] = inproc.extras(outcome)
        outcome["setup_seconds"] = state.seconds
        if traced:
            outcome["layers"] = _inproc_layers(
                state, outcome, registry, tracer, epoch_before, counter_totals()
            )
            outcome["tracer"] = tracer
    finally:
        state.service.close()
    return outcome


def _inproc_layers(state, outcome, registry, tracer, epoch_before, epoch_after) -> dict:
    from inproc import SEARCH_COUNTS

    rows = [r for r in outcome["layer_rows"] if not r["from_cache"]]
    solve = sorted(r["solve_ms"] for r in rows)
    overhead = sorted(r["wall_ms"] - r["solve_ms"] for r in rows)
    qualify = sorted(r["qualify_ms"] for r in rows)
    probe = sorted(r["probe_ms"] for r in rows)
    search_self = [r["solve_ms"] - r["qualify_ms"] - r["probe_ms"] for r in rows]
    self_seconds = sum(search_self) / 1000.0
    counts = outcome["prefix_counts"] or {name: 0 for name in SEARCH_COUNTS}
    oracle_before = outcome["oracle_before"]
    oracle_prefix = outcome["oracle_at_prefix"] or oracle_before
    memo_hits = oracle_prefix.get("memo_hits", 0) - oracle_before.get("memo_hits", 0)
    memo_misses = oracle_prefix.get("memo_misses", 0) - oracle_before.get("memo_misses", 0)
    report = state.service.instrument_report()
    cache = report["cache"]
    stats = state.service.stats()
    mutations = latency_summary(outcome["mutation_ms"])
    from repro.kernels.vec import resolve_kernel_backend

    def counter(name: str) -> int:
        return registry.counter(name).value

    def epoch(name: str) -> int:
        return epoch_after[name] - epoch_before[name]

    return {
        "service.cache_hit_rate": cache["hit_rate"],
        "service.cache_evictions": cache["evictions"],
        "service.overhead_ms.p50": nearest_rank(overhead, 0.5),
        "service.solve_ms.p50": nearest_rank(solve, 0.5),
        "service.solve_ms.p95": nearest_rank(solve, 0.95),
        "core.qualify_ms.p50": nearest_rank(qualify, 0.5),
        "core.search_self_ms": nearest_rank(sorted(search_self), 0.5),
        "core.nodes_per_s": (
            sum(r["nodes"] for r in rows) / self_seconds if self_seconds > 0 else 0.0
        ),
        "core.nodes_expanded": counts["nodes_expanded"],
        "core.keyword_prunes": counts["keyword_prunes"],
        "core.kline_removed": counts["kline_removed"],
        "core.feasible_groups": counts["feasible_groups"],
        "core.prune_ratio": (
            counts["keyword_prunes"] / counts["nodes_expanded"]
            if counts["nodes_expanded"]
            else 0.0
        ),
        "index.build_s": report.get("oracle", {}).get("build_seconds", 0.0),
        "index.probes": oracle_prefix.get("probes", 0) - oracle_before.get("probes", 0),
        "index.expansions": (
            oracle_prefix.get("expansions", 0) - oracle_before.get("expansions", 0)
        ),
        "index.probe_ms": nearest_rank(probe, 0.5),
        "index.memo_hit_rate": (
            memo_hits / (memo_hits + memo_misses) if memo_hits + memo_misses else 0.0
        ),
        "epoch.rotations": epoch("rotations"),
        "epoch.last_rotation_ms": stats.last_rotation_ms or 0.0,
        "epoch.repairs": epoch("repairs"),
        "epoch.delta_reads": epoch("delta_reads"),
        "epoch.lease_waits": epoch("lease_waits"),
        "epoch.mutation_ms.p50": mutations["p50"],
        "epoch.mutation_ms.p95": mutations["p95"],
        "kernels.ball_builds": counter("kernels.ball_builds"),
        "kernels.node_batches": counter("kernels.node_batches"),
        "kernels.batched_scores": counter("kernels.batched_scores"),
        "kernels.backend": 1.0 if resolve_kernel_backend("auto") == "numpy" else 0.0,
        "parallel.tasks": counter("parallel.tasks"),
        "shard.engines": len(report.get("shard", [])),
    }


def _http_pass(seed: int, seconds: float, *, traced: bool, repeats: int, inputs) -> dict:
    import http_zipf

    tracer = Tracer() if traced else None
    outcome = http_zipf.run_pass(
        inputs, seed, seconds, setup_repeats=repeats, tracer=tracer
    )
    outcome["e2e"] = http_zipf.end_to_end(outcome)
    outcome["extras"] = http_zipf.extras(outcome)
    if traced:
        from repro.kernels.vec import resolve_kernel_backend

        outcome["layers"] = dict(
            http_zipf.layer_metrics(outcome),
            **{"kernels.backend": 1.0 if resolve_kernel_backend("auto") == "numpy" else 0.0},
        )
        outcome["tracer"] = tracer
    # Raw records are large; the report keeps the summaries.
    for key in ("timed_records", "stats_before", "stats_after"):
        outcome.pop(key, None)
    return outcome


def run_pass(name: str, seed: int, seconds: float, *, traced: bool, repeats: int, inputs=None) -> dict:
    if name == "http_zipf":
        return _http_pass(seed, seconds, traced=traced, repeats=repeats, inputs=inputs)
    return _inproc_pass(name, seed, seconds, traced=traced, repeats=repeats)


def _datasets(name: str) -> dict:
    if name == "http_zipf":
        import http_zipf

        return {http_zipf.PROFILE: http_zipf.SCALE}
    import inproc

    return {inproc.PROFILE: inproc.SCALE}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _check_manifest() -> None:
    """The metric names here must match ``BENCHMARK.json`` when present."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        return
    spec = json.loads(manifest.read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    if declared != END_TO_END or layered != PER_LAYER or workloads != set(WORKLOADS):
        raise BenchmarkError("BENCHMARK.json and perfbench/run.py disagree on metrics")


def _print_human(name: str, env: dict, outcome: dict, metrics: dict, units: dict) -> None:
    print(f"# perfbench {name} seed={env['seed']} heldout_seed={env['heldout_seed']}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"attempted = {attempted} count")
    print(f"failed = {failed} count")
    print(f"error_rate = {failed / attempted if attempted else 0.0:.6g} ratio")
    for key, value in outcome.get("extras", {}).items():
        if key == "steps":
            for step in value:
                print(
                    "step rate={rate:g}/s attempted={attempted} succeeded={succeeded} "
                    "failed={failed} p50={p50_ms:.3f}ms p95={p95_ms:.3f}ms "
                    "p99={p99_ms:.3f}ms at_limit(p{pct:g})={latency_at_limit_ms:.3f}ms "
                    "backlog={backlog_at_end} sustained={sustained} "
                    "goodput={goodput_qps:.3f}/s".format(
                        pct=step["limit_percentile"] * 100, **step
                    )
                )
        else:
            print(f"{key} = {value}")
    print(f"answers_digest = {outcome['digest']} (first {outcome['digest_count']})")
    print(f"audited = {outcome['audited']} answers, {len(outcome['audit_failures'])} failures")
    for failure in outcome["audit_failures"][:10]:
        print(f"AUDIT FAILURE: {failure}")
    for error in outcome["errors"][:10]:
        print(f"error: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # A run stopped with SIGTERM unwinds, so that child processes are
    # stopped by their finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The server child is stopped with SIGINT.  A shell that starts this
    # command in the background ignores SIGINT, and the child would
    # inherit that; restoring the handler lets exec reset it to default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    require_source()
    _check_manifest()
    env = environment(args.workload, args.seed, _datasets(args.workload))
    started = time.perf_counter()

    inputs = None
    if args.workload == "http_zipf":
        import http_zipf

        inputs = http_zipf.make_inputs(args.seed)

    if args.trace == 0:
        outcome = run_pass(
            args.workload, args.seed, args.seconds, traced=False,
            repeats=_setup_repeats(args.workload), inputs=inputs,
        )
        metrics = {key: outcome["e2e"][key] for key in END_TO_END}
        units = END_TO_END
        passes = [outcome]
    else:
        half = args.seconds / 2.0
        base = run_pass(args.workload, args.seed, half, traced=False, repeats=1, inputs=inputs)
        outcome = run_pass(args.workload, args.seed, half, traced=True, repeats=1, inputs=inputs)
        tracer: Tracer = outcome.pop("tracer")
        layers = outcome["layers"]
        layers["trace.spans"] = len(tracer.spans)
        for key in OVERHEAD_KEYS:
            layers[f"trace.overhead.{key}"] = outcome["e2e"][key] - base["e2e"][key]
        metrics = {key: float(layers.get(key, 0.0)) for key in PER_LAYER}
        units = PER_LAYER
        passes = [base, outcome]
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        outcome["untraced_e2e"] = base["e2e"]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    audit_failures = [f for p in passes for f in p["audit_failures"]]
    correct = not audit_failures and all(p["digest_count"] for p in passes)
    outcome["attempted"], outcome["failed"] = attempted, failed
    outcome["audit_failures"] = audit_failures

    _print_human(args.workload, env, outcome, metrics, units)
    report = {
        "environment": env,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "metrics": metrics,
        "passes": [
            {k: v for k, v in p.items() if k not in ("layer_rows",)} for p in passes
        ],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report_path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _setup_repeats(name: str) -> int:
    if name == "http_zipf":
        import http_zipf

        return http_zipf.SETUP_REPEATS
    import inproc

    return inproc.SETUP_REPEATS


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
