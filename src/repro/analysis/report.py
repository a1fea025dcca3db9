"""Markdown report generation.

Turns experiment outputs (suite grids, figure-6 results, tables) into
GitHub-flavored markdown — the format EXPERIMENTS.md quotes — so the
record of a campaign can be regenerated mechanically::

    from repro.experiments.evaluation import run_suite
    from repro.analysis.report import suite_markdown
    print(suite_markdown(run_suite("quick")))
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..networks.factory import NETWORK_CLASSES


def markdown_table(headers: Sequence[str],
                   rows: Sequence[Sequence[str]]) -> str:
    """Render a GitHub-flavored markdown table."""
    if not headers:
        raise ValueError("need at least one column")
    out = ["| " + " | ".join(str(h) for h in headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width %d != header width %d"
                             % (len(row), len(headers)))
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def _grid_markdown(title: str, data: Dict[str, Dict[str, float]],
                   suite, fmt: str) -> str:
    """One Figures 7-10 grid as a markdown table; a cell missing after a
    collected failure (or normalized to a missing baseline) is ``-``."""
    nets = suite.networks()
    headers = ["Workload"] + [NETWORK_CLASSES[n].name for n in nets]
    rows = [[workload] + [fmt % data[workload][n]
                          if n in data[workload] else "-" for n in nets]
            for workload in suite.workloads()]
    return "### %s\n\n%s" % (title, markdown_table(headers, rows))


def speedup_markdown(suite) -> str:
    """Figure 7 as a markdown table."""
    from ..experiments.figures7_10 import figure7_speedups

    return _grid_markdown("Figure 7 — speedup vs. circuit-switched",
                          figure7_speedups(suite), suite, "%.2fx")


def latency_markdown(suite) -> str:
    """Figure 8 as a markdown table."""
    from ..experiments.figures7_10 import figure8_latencies

    return _grid_markdown(
        "Figure 8 — latency per coherence operation (ns)",
        figure8_latencies(suite), suite, "%.1f")


def edp_markdown(suite) -> str:
    """Figure 10 as a markdown table."""
    from ..experiments.figures7_10 import figure10_edp

    return _grid_markdown("Figure 10 — EDP normalized to point-to-point",
                          figure10_edp(suite), suite, "%.1f")


def router_energy_markdown(suite) -> str:
    """Figure 9 as a markdown table."""
    from ..experiments.figures7_10 import figure9_router_fractions

    data = figure9_router_fractions(suite)
    rows = [[w, "%.1f%%" % (f * 100)] for w, f in data.items()]
    return ("### Figure 9 — router energy in the limited P2P network\n\n"
            + markdown_table(["Workload", "Router energy (% of total)"],
                             rows))


def suite_markdown(suite) -> str:
    """The full figures section, ready to paste into EXPERIMENTS.md."""
    parts = [speedup_markdown(suite), latency_markdown(suite)]
    if "limited_point_to_point" in suite.networks():
        parts.append(router_energy_markdown(suite))
    if "point_to_point" in suite.networks():
        parts.append(edp_markdown(suite))
    return "\n\n".join(parts)


def figure6_markdown(result) -> str:
    """The Figure 6 saturation summary as a markdown table."""
    rows = [[pattern, NETWORK_CLASSES[net].name, "%.1f%%" % (frac * 100)]
            for pattern, net, frac in result.saturation_table()]
    return ("### Figure 6 — sustained bandwidth at the knee\n\n"
            + markdown_table(["Pattern", "Network", "% of peak"], rows))
