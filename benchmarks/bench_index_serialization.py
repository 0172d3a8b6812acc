"""Ablation A5 — index persistence: load-from-disk vs rebuild.

The operational argument for :mod:`repro.index.serialize`: NL and PLL
construction is BFS-per-vertex, so a service answering query batches
should build once and reload.  NLRNL builds from one bit-parallel pass
per depth and rebuilds faster than it loads.  This bench times build
vs save vs load for each serialisable oracle on one dataset profile and
records the on-disk footprint.
"""

from __future__ import annotations

import pytest

from conftest import bench_dataset, register_bench_meta

register_bench_meta("index_serialization", ablation="A5", title="index persistence vs rebuild")
from repro.index.nl import NLIndex
from repro.index.nlrnl import NLRNLIndex
from repro.index.pll import PLLIndex
from repro.index.serialize import load_index, save_index

FACTORIES = {
    "nl": NLIndex,
    "nlrnl": NLRNLIndex,
    "pll": PLLIndex,
}


@pytest.mark.parametrize("kind", list(FACTORIES))
def test_serialization_build(benchmark, kind):
    graph, _ = bench_dataset("brightkite")
    index = benchmark.pedantic(lambda: FACTORIES[kind](graph), rounds=1, iterations=1)
    benchmark.extra_info["entries"] = index.stats.entries


@pytest.mark.parametrize("kind", list(FACTORIES))
def test_serialization_save(benchmark, kind, tmp_path):
    graph, _ = bench_dataset("brightkite")
    index = FACTORIES[kind](graph)
    path = tmp_path / f"{kind}.json"
    benchmark.pedantic(lambda: save_index(index, path), rounds=1, iterations=1)
    benchmark.extra_info["bytes_on_disk"] = path.stat().st_size


@pytest.mark.parametrize("kind", list(FACTORIES))
def test_serialization_load(benchmark, kind, tmp_path):
    graph, _ = bench_dataset("brightkite")
    index = FACTORIES[kind](graph)
    path = tmp_path / f"{kind}.json"
    save_index(index, path)
    loaded = benchmark.pedantic(lambda: load_index(graph, path), rounds=1, iterations=1)
    assert loaded.stats.entries == index.stats.entries
    # Record NLRNL's build time beside its load time.
    if kind == "nlrnl":
        benchmark.extra_info["build_seconds"] = round(index.stats.build_seconds, 4)
