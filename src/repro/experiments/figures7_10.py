"""Figures 7-10: benchmark speedups, coherence-operation latency, router
energy fraction, and energy-delay product.

All four figures derive from one :class:`~repro.experiments.evaluation.
SuiteResult` grid, so a single suite run regenerates them together.  A
grid cell missing after a collected failure renders as ``-``, and so
does every value that needs a missing baseline.
"""

from __future__ import annotations

from typing import Dict, List

from .evaluation import SuiteResult
from ..analysis.edp import energy_breakdown, normalized_edp, speedups
from ..analysis.tables import render_table
from ..networks.factory import NETWORK_CLASSES


def figure7_speedups(suite: SuiteResult,
                     baseline: str = "circuit_switched"
                     ) -> Dict[str, Dict[str, float]]:
    """Speedup of each network over the circuit-switched baseline, per
    workload (Figure 7); empty for a workload without the baseline."""
    out: Dict[str, Dict[str, float]] = {}
    for workload in suite.workloads():
        runtimes = {net: r.runtime_ps
                    for net, r in suite.results[workload].items()}
        out[workload] = (speedups(runtimes, baseline)
                         if baseline in runtimes else {})
    return out


def figure8_latencies(suite: SuiteResult) -> Dict[str, Dict[str, float]]:
    """Mean latency per coherence operation in ns (Figure 8)."""
    return {
        workload: {net: r.mean_op_latency_ns
                   for net, r in suite.results[workload].items()}
        for workload in suite.workloads()
    }


def figure9_router_fractions(suite: SuiteResult,
                             network: str = "limited_point_to_point"
                             ) -> Dict[str, float]:
    """Router energy as a fraction of the limited point-to-point
    network's total energy, per workload (Figure 9); workloads without
    that network are left out."""
    out = {}
    for workload in suite.workloads():
        result = suite.results[workload].get(network)
        if result is not None:
            breakdown = energy_breakdown(result, network, suite.config)
            out[workload] = breakdown.router_fraction
    return out


def figure10_edp(suite: SuiteResult,
                 baseline: str = "point_to_point"
                 ) -> Dict[str, Dict[str, float]]:
    """EDP normalized to the point-to-point network (Figure 10); empty
    for a workload without the baseline."""
    out: Dict[str, Dict[str, float]] = {}
    for workload in suite.workloads():
        breakdowns = {
            net: energy_breakdown(r, net, suite.config)
            for net, r in suite.results[workload].items()
        }
        out[workload] = (normalized_edp(breakdowns, baseline)
                         if baseline in breakdowns else {})
    return out


def _grid_text(title: str, data: Dict[str, Dict[str, float]],
               networks: List[str], fmt: str = "%.2f") -> str:
    headers = ["Workload"] + [NETWORK_CLASSES[n].name for n in networks]
    rows = []
    for workload, by_net in data.items():
        rows.append([workload] + [fmt % by_net[n] if n in by_net else "-"
                                  for n in networks])
    return render_table(headers, rows, title=title)


def figure7_text(suite: SuiteResult) -> str:
    return _grid_text(
        "Figure 7: Speedup vs. Circuit-Switched",
        figure7_speedups(suite), suite.networks())


def figure8_text(suite: SuiteResult) -> str:
    return _grid_text(
        "Figure 8: Latency per Coherence Operation (ns)",
        figure8_latencies(suite), suite.networks(), fmt="%.1f")


def figure9_text(suite: SuiteResult) -> str:
    fractions = figure9_router_fractions(suite)
    rows = [(w, "%.1f%%" % (fractions[w] * 100) if w in fractions else "-")
            for w in suite.workloads()]
    return render_table(
        ["Workload", "Router Energy (% of total)"], rows,
        title="Figure 9: Router Energy in Limited Point-to-Point")


def figure10_text(suite: SuiteResult) -> str:
    return _grid_text(
        "Figure 10: EDP Normalized to Point-to-Point",
        figure10_edp(suite), suite.networks(), fmt="%.1f")


def all_figures_text(suite: SuiteResult) -> str:
    return "\n\n".join([
        figure7_text(suite),
        figure8_text(suite),
        figure9_text(suite),
        figure10_text(suite),
    ])
