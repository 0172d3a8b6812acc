"""Assemble and render a solve's full instrument report.

This is the data behind ``ktg stats --keywords ...``: one JSON-able
dict combining the solver's :class:`SearchStats`, the oracle's usage
counters (probes, expansions, memo hit rate) and — when a live
:class:`~repro.obs.instruments.InstrumentRegistry` was attached — every
named counter and latency histogram.

The renderer reuses :func:`repro.analysis.tables.render_table` so the
report matches the look of every other CLI table.
"""

from __future__ import annotations

from dataclasses import asdict

__all__ = [
    "search_stats_row",
    "oracle_usage_row",
    "solve_report",
    "render_solve_report",
]


def search_stats_row(stats) -> dict:
    """Flatten a :class:`SearchStats` into one JSON-able dict row."""
    row = asdict(stats)
    # first_feasible_node is None when nothing feasible was found;
    # keep it JSON-able but render-friendly.
    if row.get("first_feasible_node") is None:
        row["first_feasible_node"] = "-"
    return row


def oracle_usage_row(oracle) -> dict:
    """Flatten an oracle's :class:`OracleStats` into one dict row.

    ``repaired_vertices`` — vertices rebuilt by incremental edge repairs
    (NL and NLRNL) — is included once the oracle has counted any, and
    NLRNL's ``repaired_pairs`` (distance pairs those repairs patched)
    beside it.
    """
    stats = oracle.stats
    row = {
        "oracle": oracle.name,
        "entries": stats.entries,
        "build_seconds": round(stats.build_seconds, 4),
        "probes": stats.probes,
        "expansions": stats.expansions,
        "memo_hits": stats.memo_hits,
        "memo_misses": stats.memo_misses,
        "memo_hit_rate": round(stats.memo_hit_rate, 4),
    }
    for name in ("repaired_vertices", "repaired_pairs"):
        if name in stats.extra:
            row[name] = stats.extra[name]
    return row


def solve_report(result, oracle=None, instruments=None) -> dict:
    """One JSON-able report for a finished solve.

    Parameters
    ----------
    result:
        The :class:`~repro.core.branch_and_bound.KTGResult`.
    oracle:
        The distance oracle the solver used (optional — usage counters
        are included when given).
    instruments:
        An :class:`~repro.obs.instruments.InstrumentRegistry`; its
        counters/timers are embedded when it is enabled.
    """
    report: dict = {
        "query": result.query.describe(),
        "algorithm": result.algorithm,
        "is_exact": result.is_exact,
        "groups": [
            {"members": list(group.members), "coverage": group.coverage}
            for group in result.groups
        ],
        "search": search_stats_row(result.stats),
    }
    if oracle is not None:
        report["oracle"] = oracle_usage_row(oracle)
    if instruments is not None and instruments.enabled:
        report["instruments"] = instruments.report()
    return report


def render_solve_report(report: dict) -> str:
    """Human-readable rendering of :func:`solve_report` output."""
    # Imported lazily: repro.analysis pulls in the whole solver stack,
    # and repro.obs must stay importable from inside repro.core.
    from repro.analysis.tables import render_table

    lines = [
        f"{report['algorithm']} for {report['query']}",
        f"exact: {report['is_exact']}",
        "",
    ]

    groups = report.get("groups", [])
    if groups:
        lines.append(
            render_table(
                [
                    {
                        "rank": rank,
                        "members": " ".join(f"u{m}" for m in group["members"]),
                        "coverage": group["coverage"],
                    }
                    for rank, group in enumerate(groups, 1)
                ],
                title="result groups",
            )
        )
    else:
        lines.append("result groups: (none feasible)")
    lines.append("")

    lines.append(render_table([report["search"]], title="search counters"))

    oracle = report.get("oracle")
    if oracle is not None:
        lines.append("")
        lines.append(render_table([oracle], title="oracle usage"))

    instruments = report.get("instruments")
    if instruments:
        counters = instruments.get("counters", {})
        if counters:
            lines.append("")
            lines.append(
                render_table(
                    [{"counter": name, "value": value} for name, value in counters.items()],
                    title="instrument counters",
                )
            )
        timers = instruments.get("timers", {})
        if timers:
            lines.append("")
            lines.append(
                render_table(
                    [
                        {
                            "timer": name,
                            "count": snap["count"],
                            "mean_ms": snap["mean_ms"],
                            "min_ms": snap["min_ms"],
                            "max_ms": snap["max_ms"],
                        }
                        for name, snap in timers.items()
                    ],
                    title="instrument timers",
                )
            )
    return "\n".join(lines)
