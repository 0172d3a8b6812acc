"""Shared helpers for the perfbench workloads.

Everything here is benchmark-side: locating the program source in the
checkout, percentile arithmetic, the span recorder used by traced runs,
answer digests and the environment record written with every run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run reports and span dumps land here (inside the checkout, ignored by git).
OUT_DIR = ROOT / ".perfbench_out"

#: Seed kept out of every tuning run.  A later change that claims a gain
#: confirms it on this seed as well as on the seeds it was tuned on.
HELDOUT_SEED = 7919


class BenchmarkError(RuntimeError):
    """The benchmark could not run (no source, server failed to start...)."""


def require_source() -> None:
    """Put ``src/`` on the import path, or fail when the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source under {SRC.name}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """Ceiling nearest-rank percentile of an ascending sequence."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def supports(count: int, fraction: float) -> bool:
    """Whether *count* samples leave at least 10 beyond the percentile."""
    return count * (1.0 - fraction) >= 10.0


def highest_supported(count: int) -> float:
    """The highest of p99/p95/p50 that *count* samples support."""
    for fraction in (0.99, 0.95, 0.5):
        if supports(count, fraction):
            return fraction
    return 0.5


def latency_summary(values_ms: Iterable[float]) -> dict:
    """p50/p95/p99 of a latency sample, with its count and support flags."""
    ordered = sorted(values_ms)
    n = len(ordered)
    return {
        "count": n,
        "p50": nearest_rank(ordered, 0.50),
        "p95": nearest_rank(ordered, 0.95),
        "p99": nearest_rank(ordered, 0.99),
        "p95_supported": supports(n, 0.95),
        "p99_supported": supports(n, 0.99),
    }


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: Seconds one :meth:`SpeedReference.sample` takes on an uncontended
#: host (2-vCPU x86-64 VM, CPython 3.11).  Calibrated times are wall
#: times rescaled to a machine that runs the reference loop this fast.
REFERENCE_S = 0.12e-3
#: Operations per calibration block: short enough to follow the host's
#: second-to-second speed changes, long enough for a steady median.
CALIBRATION_BLOCK = 16


class SpeedReference:
    """A fixed pure-Python loop timed beside the workload.

    On a shared host the speed a process gets changes from one second to
    the next (other tenants load the same cores), by up to 1.7x measured.
    The loop shares no code with the program: a breadth-first walk over a
    fixed 400-vertex graph, the same kind of interpreter work the solver
    does.  Timed before every operation, it tells how fast the host ran
    at that moment; :func:`calibrate` rescales the operation times with it.
    """

    def __init__(self) -> None:
        rng = random.Random(1)
        self._adjacency = [tuple(rng.sample(range(400), 5)) for _ in range(400)]

    def _walk(self) -> int:
        adjacency = self._adjacency
        seen = {0: 0}
        frontier = [0]
        while frontier:
            following = []
            for u in frontier:
                depth = seen[u] + 1
                for v in adjacency[u]:
                    if v not in seen:
                        seen[v] = depth
                        following.append(v)
            frontier = following
        return len(seen)

    def sample(self) -> float:
        """Seconds of the faster of two walks."""
        best = math.inf
        for _ in range(2):
            started = time.perf_counter()
            self._walk()
            best = min(best, time.perf_counter() - started)
        return best

    def slowdown(self) -> float:
        """The host's slowdown now: a block's median sample over REFERENCE_S."""
        return median([self.sample() for _ in range(CALIBRATION_BLOCK)]) / REFERENCE_S


def calibrate(ops: Sequence[tuple[bool, float, float]]) -> dict:
    """Rescale ``(is_solve, seconds, reference_seconds)`` rows, in run order.

    Each block of :data:`CALIBRATION_BLOCK` rows is divided by its
    slowdown, the median reference time over :data:`REFERENCE_S`.
    Returns the calibrated busy seconds, the calibrated solve latencies
    (ms) and the median slowdown of the run.
    """
    busy = 0.0
    latency_ms: list[float] = []
    slowdowns: list[float] = []
    for start in range(0, len(ops), CALIBRATION_BLOCK):
        block = ops[start:start + CALIBRATION_BLOCK]
        slowdown = median([row[2] for row in block]) / REFERENCE_S
        slowdowns.append(slowdown)
        busy += sum(row[1] for row in block) / slowdown
        latency_ms.extend(row[1] / slowdown * 1000.0 for row in block if row[0])
    return {"busy_s": busy, "latency_ms": latency_ms, "slowdown": median(slowdowns)}


def histogram_percentile(
    bounds: Sequence[float], buckets: Sequence[int], fraction: float
) -> float:
    """Percentile of a bucketed histogram, interpolated inside its bucket.

    ``buckets[i]`` counts observations in ``(bounds[i-1], bounds[i]]``;
    the last bucket is open-ended and reports its lower bound.
    """
    total = sum(buckets)
    if total == 0:
        return 0.0
    target = fraction * total
    seen = 0
    for index, count in enumerate(buckets):
        if count and seen + count >= target:
            low = bounds[index - 1] if index > 0 else 0.0
            if index >= len(bounds):
                return low
            high = bounds[index]
            return low + (high - low) * (target - seen) / count
        seen += count
    return bounds[-1]


# ----------------------------------------------------------------------
# Span recording (traced runs only)
# ----------------------------------------------------------------------
@dataclass
class Span:
    span_id: int
    name: str
    request_id: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "request_id": self.request_id,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "duration_ms": (self.end - self.start) * 1000.0,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """In-memory span recorder for one benchmark thread.

    Spans nest through an explicit stack, so a span opened while
    another is open records it as its parent and inherits its request
    id.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[Span]:
        parent = self.current
        if request_id is None:
            request_id = parent.request_id if parent is not None else -1
        span = Span(
            span_id=len(self.spans) + 1,
            name=name,
            request_id=request_id,
            parent=parent.span_id if parent is not None else None,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def record(
        self,
        name: str,
        request_id: int,
        start: float,
        end: float,
        parent: Optional[int] = None,
        **attrs,
    ) -> int:
        """Record an already-finished span; returns its id."""
        span = Span(len(self.spans) + 1, name, request_id, parent, start, end, attrs)
        self.spans.append(span)
        return span.span_id

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


# ----------------------------------------------------------------------
# Answers, memory, environment
# ----------------------------------------------------------------------
def coverage_digest(rows: Iterable[tuple[str, Sequence[float]]]) -> str:
    """SHA-256 over ``(query identity, top-N coverage vector)`` rows."""
    digest = hashlib.sha256()
    for key, coverages in rows:
        digest.update(key.encode("utf-8"))
        digest.update(b"|")
        digest.update(",".join(repr(float(c)) for c in coverages).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def query_identity(query) -> str:
    """A stable text identity of a KTG query, used in digests and audits."""
    return (
        f"{','.join(query.keywords)};p={query.group_size};"
        f"k={query.tenuity};N={query.top_n}"
    )


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def derived_rng(seed: int, stream: str) -> random.Random:
    """An independent, reproducible RNG stream per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")


def source_digest() -> str:
    """SHA-256 over the program source, for runs outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(workload: str, seed: int, datasets: dict) -> dict:
    """What a run depends on besides the code: compare runs only if equal."""
    from repro.kernels.vec import numpy_available, resolve_kernel_backend

    return {
        "workload": workload,
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy_available": numpy_available(),
        "kernel_backend": resolve_kernel_backend("auto"),
        "datasets": datasets,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
