"""Shared infrastructure for the figure-reproduction benchmarks.

Each benchmark file regenerates one table/figure of the paper.  Bench
names encode the series coordinates (dataset, algorithm, parameter
value), so the pytest-benchmark output table *is* the figure data: one
row per plotted point.

Datasets and oracles are cached per session — the paper also builds each
index once and reuses it across queries (index build cost is reported
separately, in Figure 9 / ``bench_fig9_index_overhead``).

Scale notes: profiles are instantiated at ``BENCH_SCALE`` of their
already-scaled-down default sizes and each point averages
``QUERIES_PER_POINT`` queries (the paper uses 100; pure Python trades
repetitions for coverage of the full parameter grid).

Smoke mode (``--smoke``)
------------------------
The CI smoke job runs ``pytest benchmarks --smoke``: one parametrization
per test function, datasets clamped to ``SMOKE_SCALE``, one query per
workload (unless a bench asks for more), and quantitative claims (see :func:`check_claim`) softened to
warnings — the job verifies that every benchmark *runs* and emits a
schema-valid artifact, not that full-scale performance claims hold on a
shared CI runner.  A bench whose artifact records a percentile ratio
asks :func:`bench_workload` for more queries under ``--smoke`` so the
ratio is stable enough to diff against its baseline.

BENCH JSON emission
-------------------
At session end every benchmark module's measurements are written to
``BENCH_<name>.json`` (schema ``ktg-bench/1``, see
:mod:`repro.obs.bench`).  Emission is centralised here: a bench module
only declares its provenance via :func:`register_bench_meta` and
everything it records through the ``benchmark`` fixture is exported
automatically.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from repro.datasets.registry import load_dataset
from repro.obs.bench import bench_entry, write_bench_report
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.runner import ALGORITHMS, ExperimentRunner

#: Fraction of each profile's default (already scaled) vertex count.
BENCH_SCALE = 0.35
#: Queries averaged per plotted point.
QUERIES_PER_POINT = 3
#: Dataset scale cap under ``--smoke``.
SMOKE_SCALE = 0.12

_dataset_cache: dict[str, tuple] = {}
_runner_cache: dict[str, ExperimentRunner] = {}
_workload_cache: dict[tuple, object] = {}

#: Artifact name -> meta dict, filled by register_bench_meta at import.
_BENCH_META: dict[str, dict] = {}

_SMOKE = False


# ----------------------------------------------------------------------
# Smoke mode
# ----------------------------------------------------------------------
def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help=(
            "fast CI mode: one parametrization per benchmark, clamped "
            "dataset scale, soft quantitative claims"
        ),
    )


def pytest_configure(config):
    global _SMOKE
    _SMOKE = bool(config.getoption("--smoke", default=False))


def pytest_collection_modifyitems(config, items):
    """Under --smoke keep only the first parametrization per function."""
    if not config.getoption("--smoke", default=False):
        return
    kept, deselected, seen = [], [], set()
    for item in items:
        module = item.nodeid.split("::", 1)[0]
        key = (module, getattr(item, "originalname", item.name))
        if key in seen:
            deselected.append(item)
        else:
            seen.add(key)
            kept.append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = kept


def smoke_mode() -> bool:
    """Whether this session runs under ``--smoke``."""
    return _SMOKE


def check_claim(condition: bool, message: str) -> None:
    """Assert a quantitative claim — softened to a warning under smoke.

    Shape/exactness claims that hold at any scale should stay plain
    ``assert``s; this is for thresholds (speedup factors, entry-count
    comparisons) that only hold at full bench scale.
    """
    if condition:
        return
    if _SMOKE:
        warnings.warn(f"smoke mode: claim not enforced: {message}", stacklevel=2)
        return
    raise AssertionError(message)


# ----------------------------------------------------------------------
# Cached datasets / runners / workloads
# ----------------------------------------------------------------------
def bench_dataset(name: str, scale: float = BENCH_SCALE):
    """Load-and-cache one dataset profile at bench scale."""
    if _SMOKE:
        scale = min(scale, SMOKE_SCALE)
    key = f"{name}@{scale}"
    if key not in _dataset_cache:
        _dataset_cache[key] = load_dataset(name, scale=scale)
    return _dataset_cache[key]


def bench_runner(name: str, scale: float = BENCH_SCALE) -> ExperimentRunner:
    """Runner (with cached oracles) for one dataset profile."""
    if _SMOKE:
        scale = min(scale, SMOKE_SCALE)
    key = f"{name}@{scale}"
    if key not in _runner_cache:
        graph, _ = bench_dataset(name, scale)
        _runner_cache[key] = ExperimentRunner(graph, dataset_name=name)
    return _runner_cache[key]


def bench_workload(
    dataset: str,
    scale: float = BENCH_SCALE,
    count: int = QUERIES_PER_POINT,
    smoke_count: int = 1,
    **settings,
):
    """Deterministic workload for one parameter point (cached).

    Under ``--smoke`` it keeps *smoke_count* queries (one unless a bench
    needs more samples for a stable artifact value).
    """
    if _SMOKE:
        scale = min(scale, SMOKE_SCALE)
        count = smoke_count
    key = (dataset, scale, count, tuple(sorted(settings.items())))
    if key not in _workload_cache:
        graph, vocabulary = bench_dataset(dataset, scale)
        generator = WorkloadGenerator(graph, vocabulary, dataset_name=dataset)
        _workload_cache[key] = generator.generate(count=count, seed=17, **settings)
    return _workload_cache[key]


def run_point(benchmark, dataset: str, algorithm: str, scale: float = BENCH_SCALE, **settings):
    """Measure one figure point: mean-of-workload latency for one algorithm.

    The oracle is prebuilt outside the timed region; the measured value
    is the full workload execution (the paper's 'average latency' times
    ``QUERIES_PER_POINT``).
    """
    runner = bench_runner(dataset, scale)
    runner.oracle_for(ALGORITHMS[algorithm])  # build outside timing
    workload = bench_workload(dataset, scale, **settings)

    report = benchmark.pedantic(
        lambda: runner.run(algorithm, workload), rounds=1, iterations=1
    )
    benchmark.extra_info["mean_ms"] = round(report.mean_ms, 3)
    benchmark.extra_info["empty_results"] = report.empty_results
    benchmark.extra_info["keyword_prunes"] = report.total_keyword_prunes
    benchmark.extra_info["kline_removed"] = report.total_kline_removed
    return report


@pytest.fixture(scope="session")
def paper_algorithms():
    """The paper's Section VII line-up."""
    return list(ALGORITHMS)


# ----------------------------------------------------------------------
# BENCH_<name>.json emission
# ----------------------------------------------------------------------
def register_bench_meta(name: str, **meta) -> None:
    """Declare a bench module's artifact provenance.

    Call at module import, e.g.
    ``register_bench_meta("fig3_group_size", figure="3", title="...")``.
    *name* must match the module filename without the ``bench_`` prefix;
    the meta dict lands verbatim in the artifact's ``meta`` object.
    """
    _BENCH_META[name] = dict(meta)


def _artifact_name(fullname: str) -> str:
    """``benchmarks/bench_fig3_group_size.py::test[x]`` -> ``fig3_group_size``."""
    module = fullname.split("::", 1)[0]
    stem = Path(module).stem
    return stem[len("bench_"):] if stem.startswith("bench_") else stem


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    return repr(value)


def pytest_sessionfinish(session, exitstatus):
    """Write one schema-valid BENCH_<name>.json per benchmark module."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    grouped: dict[str, list] = {}
    for record in bench_session.benchmarks:
        grouped.setdefault(_artifact_name(record.fullname), []).append(record)

    for name, records in sorted(grouped.items()):
        entries = []
        for record in records:
            stats = None
            if getattr(record, "stats", None) is not None:
                # Fixture-side this is Metadata.stats.stats; session-side
                # the record's .stats already is the Stats object.
                raw = record.stats
                raw = getattr(raw, "stats", raw)
                stats = {
                    "mean_s": raw.mean,
                    "min_s": raw.min,
                    "max_s": raw.max,
                    "stddev_s": raw.stddev if raw.rounds > 1 else 0.0,
                    "rounds": int(raw.rounds),
                }
            entries.append(
                bench_entry(
                    test=record.name,
                    stats=stats,
                    extra=_jsonable(dict(record.extra_info)),
                    group=record.group,
                    params=_jsonable(record.params) if record.params else None,
                    error=stats is None,
                )
            )
        path = write_bench_report(
            name,
            entries,
            directory=session.config.rootpath,
            smoke=_SMOKE,
            meta=_BENCH_META.get(name),
        )
        tw = session.config.get_terminal_writer()
        tw.line(f"bench artifact written: {path}")
