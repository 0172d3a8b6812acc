"""One-call reproduction of the paper's evaluation (Section VII).

:func:`reproduce` runs a scaled-down version of any of the paper's
experiments — each Table I sweep figure, the dense/large Figure 7, the
Figure 8 case study, the Figure 9 index comparison — and returns a
structured :class:`ExperimentOutcome` whose ``findings`` record whether
each of the paper's qualitative claims held on this run.

``ktg reproduce --experiment fig4`` and EXPERIMENTS.md are built on
this module; the benchmark suite covers the same ground with
pytest-benchmark timing, while this module is the *programmatic* path
(a downstream user validating the library after changing something).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean
from typing import Callable

from repro.analysis.case_study import run_case_study
from repro.analysis.tables import render_series, render_table
from repro.core.errors import WorkloadError
from repro.datasets.figure1 import case_study_graph, case_study_query
from repro.datasets.registry import load_dataset
from repro.index._traversal import bfs_level_bitsets
from repro.index.nl import NLIndex
from repro.index.stats import measure_footprint
from repro.workloads.sweep import run_parameter_sweep

__all__ = ["Finding", "ExperimentOutcome", "EXPERIMENTS", "reproduce", "experiment_ids"]


@dataclass(frozen=True)
class Finding:
    """One paper claim checked against this run."""

    claim: str
    held: bool
    detail: str = ""

    def render(self) -> str:
        marker = "HELD   " if self.held else "DIVERGED"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{marker}] {self.claim}{suffix}"


@dataclass
class ExperimentOutcome:
    """Structured result of one reproduced experiment."""

    experiment_id: str
    title: str
    table: str
    findings: list[Finding] = field(default_factory=list)

    @property
    def all_held(self) -> bool:
        return all(finding.held for finding in self.findings)

    def render(self) -> str:
        lines = [f"## {self.experiment_id}: {self.title}", "", self.table, ""]
        lines.extend(finding.render() for finding in self.findings)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Sweep-figure experiments (Figures 3-6)
# ----------------------------------------------------------------------

_SWEEP_SETTINGS = {
    "fig3": ("group_size", "latency vs group size p", [3, 4, 5]),
    "fig4": ("tenuity", "latency vs social constraint k", [1, 2, 3, 4]),
    "fig5": ("keyword_size", "latency vs query keyword size", [4, 5, 6, 7, 8]),
    "fig6": ("top_n", "latency vs N", [3, 5, 7, 9, 11]),
}

_SWEEP_ALGORITHMS = [
    "KTG-QKC-NLRNL",
    "KTG-VKC-NL",
    "KTG-VKC-NLRNL",
    "KTG-VKC-DEG-NLRNL",
    "DKTG-GREEDY",
]


def _mean_over_values(series: list[tuple[int, float]]) -> float:
    if not series:
        return 0.0
    return sum(latency for _, latency in series) / len(series)


def _run_sweep_experiment(
    experiment_id: str,
    dataset: str,
    scale: float,
    queries: int,
    seed: int,
) -> ExperimentOutcome:
    parameter, title, values = _SWEEP_SETTINGS[experiment_id]
    graph, vocabulary = load_dataset(dataset, scale=scale)
    sweep = run_parameter_sweep(
        graph,
        parameter,
        vocabulary=vocabulary,
        dataset_name=dataset,
        values=values,
        algorithms=_SWEEP_ALGORITHMS,
        queries_per_setting=queries,
        seed=seed,
    )
    series = {name: sweep.series(name) for name in sweep.algorithms()}
    table = render_series(
        series, x_label=parameter, title=f"{dataset}: mean latency (ms) vs {parameter}"
    )

    means = {name: _mean_over_values(points) for name, points in series.items()}
    findings = [
        Finding(
            claim="KTG-VKC-NLRNL outperforms KTG-VKC-NL (NLRNL beats NL)",
            held=means["KTG-VKC-NLRNL"] <= means["KTG-VKC-NL"],
            detail=(
                f"{means['KTG-VKC-NLRNL']:.1f}ms vs {means['KTG-VKC-NL']:.1f}ms"
            ),
        ),
        Finding(
            claim="VKC ordering outperforms static QKC ordering",
            held=means["KTG-VKC-NLRNL"] <= means["KTG-QKC-NLRNL"],
            detail=(
                f"{means['KTG-VKC-NLRNL']:.1f}ms vs {means['KTG-QKC-NLRNL']:.1f}ms"
            ),
        ),
        Finding(
            claim="DKTG-Greedy is comparable with KTG-VKC-DEG-NLRNL",
            held=means["DKTG-GREEDY"] <= 6 * max(means["KTG-VKC-DEG-NLRNL"], 1e-9),
            detail=(
                f"{means['DKTG-GREEDY']:.1f}ms vs {means['KTG-VKC-DEG-NLRNL']:.1f}ms"
            ),
        ),
    ]
    if experiment_id == "fig3":
        fastest = series["KTG-VKC-DEG-NLRNL"]
        findings.append(
            Finding(
                claim="latency grows with the group size p",
                held=fastest[-1][1] >= fastest[0][1],
                detail=f"p={fastest[0][0]}: {fastest[0][1]:.1f}ms -> "
                f"p={fastest[-1][0]}: {fastest[-1][1]:.1f}ms",
            )
        )
    if experiment_id == "fig5":
        fastest = series["KTG-VKC-DEG-NLRNL"]
        low = min(latency for _, latency in fastest)
        high = max(latency for _, latency in fastest)
        findings.append(
            Finding(
                claim="latency is stable across query keyword sizes",
                held=high <= 12 * max(low, 1e-9),
                detail=f"range {low:.1f}ms - {high:.1f}ms",
            )
        )
    if experiment_id == "fig6":
        fastest = series["KTG-VKC-DEG-NLRNL"]
        low = min(latency for _, latency in fastest)
        high = max(latency for _, latency in fastest)
        findings.append(
            Finding(
                claim="latency is near-flat in N",
                held=high <= 12 * max(low, 1e-9),
                detail=f"range {low:.1f}ms - {high:.1f}ms",
            )
        )
    return ExperimentOutcome(
        experiment_id=experiment_id,
        title=title,
        table=table,
        findings=findings,
    )


# ----------------------------------------------------------------------
# Figure 7 (denser + large graphs)
# ----------------------------------------------------------------------

def _run_fig7(dataset: str, scale: float, queries: int, seed: int) -> ExperimentOutcome:
    outcomes = []
    tables = []
    for profile, parameter, values, overrides in (
        ("twitter", "group_size", [3, 4], {"tenuity": 1}),
        ("dblp-large", "tenuity", [1, 2, 3], {}),
    ):
        graph, vocabulary = load_dataset(profile, scale=scale)
        sweep = run_parameter_sweep(
            graph,
            parameter,
            vocabulary=vocabulary,
            dataset_name=profile,
            values=values,
            algorithms=["KTG-VKC-NLRNL", "KTG-VKC-DEG-NLRNL"],
            queries_per_setting=queries,
            seed=seed,
            overrides=overrides,
        )
        series = {name: sweep.series(name) for name in sweep.algorithms()}
        tables.append(
            render_series(
                series,
                x_label=parameter,
                title=f"{profile}: mean latency (ms) vs {parameter}",
            )
        )
        outcomes.append(series)

    twitter_series, large_series = outcomes
    deg_mean = _mean_over_values(twitter_series["KTG-VKC-DEG-NLRNL"])
    vkc_mean = _mean_over_values(twitter_series["KTG-VKC-NLRNL"])
    findings = [
        Finding(
            claim="on the denser graph KTG-VKC-DEG stays competitive with KTG-VKC",
            held=deg_mean <= 2.0 * max(vkc_mean, 1e-9),
            detail=f"{deg_mean:.1f}ms vs {vkc_mean:.1f}ms",
        ),
        Finding(
            claim="KTG-VKC-DEG-NLRNL completes the large-graph grid",
            held=all(latency > 0 for _, latency in large_series["KTG-VKC-DEG-NLRNL"]),
        ),
    ]
    return ExperimentOutcome(
        experiment_id="fig7",
        title="denser graph (Twitter) and large graph (DBLP)",
        table="\n\n".join(tables),
        findings=findings,
    )


# ----------------------------------------------------------------------
# Figure 8 (case study) and Figure 9 (index overhead)
# ----------------------------------------------------------------------

def _run_fig8(dataset: str, scale: float, queries: int, seed: int) -> ExperimentOutcome:
    outcome = run_case_study(case_study_graph(), case_study_query())
    rows = [
        {
            "algorithm": name,
            "best_cov": quality.best_coverage,
            "diversity": quality.diversity,
            "zero_members": quality.zero_coverage_members,
            "overlap": outcome.overlap[name],
        }
        for name, quality in outcome.quality.items()
    ]
    table = render_table(rows, title="case study: effectiveness (Figure 8)")
    findings = [
        Finding(
            claim="TAGQ returns reviewers with no query keyword (red lines)",
            held=outcome.quality["TAGQ"].zero_coverage_members > 0,
            detail=f"{outcome.quality['TAGQ'].zero_coverage_members} members",
        ),
        Finding(
            claim="KTG members always cover a query keyword",
            held=outcome.quality["KTG-VKC-DEG"].zero_coverage_members == 0,
        ),
        Finding(
            claim="DKTG-Greedy returns fully diverse groups",
            held=outcome.quality["DKTG-Greedy"].diversity == 1.0,
        ),
        Finding(
            claim="plain KTG results overlap (the DKTG motivation)",
            held=outcome.overlap["KTG-VKC-DEG"] > 0.0,
            detail=f"overlap ratio {outcome.overlap['KTG-VKC-DEG']:.2f}",
        ),
    ]
    return ExperimentOutcome(
        experiment_id="fig8",
        title="effectiveness case study vs TAGQ",
        table=table,
        findings=findings,
    )


def _run_fig9(dataset: str, scale: float, queries: int, seed: int) -> ExperimentOutcome:
    profiles = ["gowalla", "brightkite", "flickr", "dblp"]
    rows = []
    space_ok = True
    depth_ok = True
    for profile in profiles:
        graph, _ = load_dataset(profile, scale=scale)
        # Build times on scaled-down graphs are sub-millisecond and
        # noisy; take the best of three builds for a stable comparison.
        nl = min(
            (measure_footprint(graph, "nl") for _ in range(3)),
            key=lambda footprint: footprint.build_seconds,
        )
        nlrnl = min(
            (measure_footprint(graph, "nlrnl") for _ in range(3)),
            key=lambda footprint: footprint.build_seconds,
        )
        # The paper's reason NLRNL builds slower: its BFS runs to every
        # vertex's eccentricity, NL's only to the stored depth h.  Which
        # build is faster here depends on the traversal (NLRNL's levels
        # come from one bitset pass, NL's from one BFS per vertex), so
        # the finding checks the depths, and the table shows the times.
        nl_depth = NLIndex(graph).depth
        nlrnl_levels = fmean(map(len, bfs_level_bitsets(graph.adjacency_view())))
        rows.append(
            {
                "dataset": profile,
                "nl_entries": nl.entries,
                "nlrnl_entries": nlrnl.entries,
                "nl_depth": nl_depth,
                "nlrnl_levels": nlrnl_levels,
                "nl_build_s": nl.build_seconds,
                "nlrnl_build_s": nlrnl.build_seconds,
            }
        )
        space_ok &= nlrnl.entries < nl.entries
        depth_ok &= nlrnl_levels > nl_depth
    table = render_table(rows, title="index footprint and build time (Figure 9)")
    findings = [
        Finding(claim="NLRNL uses less space than NL on every dataset", held=space_ok),
        Finding(
            claim="NLRNL's BFS covers more hop levels than NL stores",
            held=depth_ok,
            detail="the paper's cause of NLRNL's higher construction cost",
        ),
    ]
    return ExperimentOutcome(
        experiment_id="fig9",
        title="index space and construction overhead",
        table=table,
        findings=findings,
    )


# ----------------------------------------------------------------------
# Registry + entry point
# ----------------------------------------------------------------------

Runner = Callable[[str, float, int, int], ExperimentOutcome]

EXPERIMENTS: dict[str, Runner] = {
    "fig3": lambda d, s, q, seed: _run_sweep_experiment("fig3", d, s, q, seed),
    "fig4": lambda d, s, q, seed: _run_sweep_experiment("fig4", d, s, q, seed),
    "fig5": lambda d, s, q, seed: _run_sweep_experiment("fig5", d, s, q, seed),
    "fig6": lambda d, s, q, seed: _run_sweep_experiment("fig6", d, s, q, seed),
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
}


def experiment_ids() -> list[str]:
    """Identifiers accepted by :func:`reproduce`."""
    return sorted(EXPERIMENTS)


def reproduce(
    experiment_id: str,
    dataset: str = "gowalla",
    scale: float = 0.25,
    queries: int = 3,
    seed: int = 0,
) -> ExperimentOutcome:
    """Reproduce one paper experiment at reduced scale.

    Raises :class:`WorkloadError` for unknown experiment ids.
    """
    runner = EXPERIMENTS.get(experiment_id.lower())
    if runner is None:
        raise WorkloadError(
            f"unknown experiment {experiment_id!r}; "
            f"expected one of {experiment_ids()}"
        )
    return runner(dataset, scale, queries, seed)
