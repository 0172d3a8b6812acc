"""What a served answer keeps alive, and what a service loads.

These run in the numpy-absent CI lane too: the checks hold whether or
not numpy is installed.

* An in-process :class:`QueryService` solve loads neither numpy (the
  vectorized kernels load it on first use) nor ``multiprocessing`` (the
  batch process pool loads it when first built).
* :func:`repro.kernels.vec.numpy_available` answers without importing
  numpy; a :class:`BallBitsetEngine` imports it, and falls back to the
  scalar path when the import fails (with ``vec._np = None``, see
  ``test_vec.py``).
* :class:`KTGResult` stores its groups and stats as two ``bytes``
  records, yet reads back an ordinary tuple of :class:`Group` and a
  :class:`SearchStats`, and compares, hashes and pickles as before.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.core.branch_and_bound import BranchAndBoundSolver, KTGResult, SearchStats
from repro.core.query import KTGQuery
from repro.core.results import Group
from repro.kernels import vec

SRC = str(Path(repro.__file__).resolve().parents[1])


def run_python(code: str, *path: str) -> dict:
    """Run *code* in a fresh interpreter with ``src`` (after *path*) on
    its path; return the JSON object it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((*path, SRC)))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestLoadedModules:
    def test_service_solve_loads_neither_numpy_nor_multiprocessing(self):
        loaded = run_python(
            """
            import json, sys
            from repro.core.graph import AttributedGraph
            from repro.core.query import KTGQuery
            from repro.service import QueryService

            graph = AttributedGraph(
                6, [(0, 1), (1, 2), (3, 4)], {v: ["a", "b"][: 1 + v % 2] for v in range(6)}
            )
            served = QueryService(graph).submit(
                KTGQuery(keywords=("a", "b"), group_size=2, tenuity=1, top_n=2)
            )
            assert served.result.groups
            print(json.dumps({m: m in sys.modules for m in ("numpy", "multiprocessing")}))
            """
        )
        assert loaded == {"numpy": False, "multiprocessing": False}

    def test_numpy_available_does_not_import_numpy(self):
        seen = run_python(
            """
            import importlib.util, json, sys
            from repro.kernels import vec

            print(json.dumps({
                "available": vec.numpy_available(),
                "installed": importlib.util.find_spec("numpy") is not None,
                "loaded": "numpy" in sys.modules,
            }))
            """
        )
        assert seen["available"] == seen["installed"]
        assert not seen["loaded"]

    @pytest.mark.skipif(vec.numpy_or_none() is None, reason="numpy not importable")
    def test_engine_construction_loads_numpy(self):
        seen = run_python(
            """
            import json, sys
            from repro.core.graph import AttributedGraph
            from repro.index.bfs import BFSOracle
            from repro.kernels import BallBitsetEngine

            engine = BallBitsetEngine(BFSOracle(AttributedGraph(3, [(0, 1)])))
            print(json.dumps({"backend": engine.backend, "loaded": "numpy" in sys.modules}))
            """
        )
        assert seen == {"backend": "numpy", "loaded": True}

    def test_engine_falls_back_when_numpy_fails_to_import(self, tmp_path):
        shadow = tmp_path / "numpy"
        shadow.mkdir()
        (shadow / "__init__.py").write_text("raise ImportError('numpy is broken')\n")
        seen = run_python(
            """
            import json
            from repro.core.graph import AttributedGraph
            from repro.index.bfs import BFSOracle
            from repro.kernels import BallBitsetEngine, vec

            before = vec.numpy_available()
            engine = BallBitsetEngine(BFSOracle(AttributedGraph(4, [(0, 1), (1, 2), (2, 3)])))
            print(json.dumps({
                "before": before,
                "after": vec.numpy_available(),
                "backend": engine.backend,
                "ball": sorted(engine.decode(engine.ball(0, 2))),
            }))
            """,
            str(tmp_path),
        )
        assert seen == {"before": True, "after": False, "backend": "python", "ball": [1, 2]}


GROUPS = (
    Group(coverage=1.0, members=(3, 7, 250)),
    Group(coverage=0.75, members=(1, 300, 400)),
    Group(coverage=0.5, members=(2, 4)),
)
QUERY = KTGQuery(keywords=("a", "b", "c", "d"), group_size=3, tenuity=1, top_n=3)


@pytest.fixture
def result() -> KTGResult:
    return KTGResult(
        query=QUERY, algorithm="KTG-X", groups=GROUPS, stats=SearchStats(nodes_expanded=9)
    )


class TestPackedResult:
    def test_groups_read_back_as_a_tuple_of_groups(self, result):
        assert result.groups == GROUPS
        assert isinstance(result.groups, tuple)
        assert len(result.groups) == 3
        assert result.groups[1] == GROUPS[1]
        assert list(result.groups) == list(GROUPS)
        assert hash(result.groups) == hash(GROUPS)
        assert KTGResult(query=QUERY, algorithm="KTG-X").groups == ()

    def test_equality_and_hash(self, result):
        twin = KTGResult(query=QUERY, algorithm="KTG-X", groups=list(GROUPS))
        assert twin == result  # stats do not take part
        assert hash(twin) == hash(result)
        assert result != KTGResult(query=QUERY, algorithm="KTG-X", groups=GROUPS[:2])
        assert result != KTGResult(query=QUERY, algorithm="KTG-Y", groups=GROUPS)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, result, protocol):
        clone = pickle.loads(pickle.dumps(result, protocol))
        assert clone == result
        assert clone.groups == GROUPS
        assert clone.stats == result.stats

    def test_replace(self, result):
        fewer = dataclasses.replace(result, groups=GROUPS[:1])
        assert fewer.groups == GROUPS[:1]
        assert fewer.stats == result.stats
        renamed = dataclasses.replace(result, algorithm="KTG-Z")
        assert renamed.groups == GROUPS
        assert renamed.algorithm == "KTG-Z"

    def test_stats_read_back_field_for_field(self, result):
        assert result.stats == SearchStats(nodes_expanded=9)
        stats = SearchStats(
            nodes_expanded=5, elapsed_seconds=0.25, first_feasible_node=0, budget_exhausted=True
        )
        assert KTGResult(query=QUERY, algorithm="KTG-X", stats=stats).stats == stats
        assert result.stats is not result.stats  # rebuilt on each read

    @pytest.mark.parametrize("member", [70_000, 1 << 40, -1])
    def test_values_past_the_narrow_codes_round_trip(self, member):
        groups = (Group(coverage=0.5, members=(0, member)),)
        stats = SearchStats(kline_removed=1 << 40, node_prunes=70_000, first_feasible_node=None)
        result = KTGResult(query=QUERY, algorithm="KTG-X", groups=groups, stats=stats)
        assert result.groups == groups
        assert result.stats == stats
        assert result == KTGResult(query=QUERY, algorithm="KTG-X", groups=groups)
        assert result != KTGResult(query=QUERY, algorithm="KTG-X", groups=(Group(0.5, (0, 1)),))

    def test_best_coverage_and_member_sets(self, result):
        assert result.best_coverage == 1.0
        assert result.member_sets() == [(3, 7, 250), (1, 300, 400), (2, 4)]
        empty = KTGResult(query=QUERY, algorithm="KTG-X", groups=())
        assert empty.best_coverage == 0.0
        assert empty.member_sets() == []

    def test_solver_results_survive_the_packing(self, figure1, figure1_q):
        result = BranchAndBoundSolver(figure1).solve(figure1_q)
        assert [round(g.coverage, 9) for g in result.groups] == [0.8, 0.8]
        assert all(g.members == tuple(sorted(g.members)) for g in result.groups)

    def test_retained_bytes_per_result(self):
        """A 3-group, p=3 result keeps at most 200 bytes alive besides
        its query, stats included (a tuple of groups and a live
        :class:`SearchStats` kept about 460 + 250)."""
        count = 2_000
        vertices = list(range(1_000, 1_000 + 9 * count))
        coverages = (1.0, 0.75, 0.5)
        groups = [
            tuple(
                Group(coverages[g], tuple(vertices[9 * i + 3 * g : 9 * i + 3 * g + 3]))
                for g in range(3)
            )
            for i in range(count)
        ]
        kept = [None] * count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, chosen in enumerate(groups):
                stats = SearchStats(
                    nodes_expanded=600 + i, kline_removed=2_000 + i, elapsed_seconds=i / 1e3
                )
                kept[i] = KTGResult(query=QUERY, algorithm="KTG-X", groups=chosen, stats=stats)
            del stats
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / count <= 200
