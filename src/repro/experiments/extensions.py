"""Ablations of the calibration constants our adaptation introduces
(see DESIGN.md section 5 and EXPERIMENTS.md's calibration notes):

* :func:`two_phase_reconfig_ablation` — sustained bandwidth vs the
  broadband-switch retuning time that gates the two-phase network;
* :func:`conversion_overhead_ablation` — limited-P2P forwarding cost vs
  the O-E/E-O conversion latency;
* :func:`circuit_engine_ablation` — circuit-switched saturation vs the
  number of per-site circuit engines.
"""

from __future__ import annotations

from typing import List, Tuple

from ..analysis.tables import render_table
from ..core.sweep import run_load_point
from ..macrochip.config import MacrochipConfig, scaled_config
from ..workloads.synthetic import UniformTraffic


def _knee(network: str, cfg: MacrochipConfig, fractions: List[float],
          window_ns: float, **network_kwargs) -> float:
    best = 0.0
    peak = cfg.num_sites * cfg.site_bandwidth_gb_per_s
    for f in fractions:
        r = run_load_point(network, cfg, UniformTraffic(cfg.layout), f,
                           window_ns=window_ns,
                           network_kwargs=network_kwargs or None)
        if not r.saturated:
            best = max(best, r.throughput_gb_per_s / peak)
    return best


def two_phase_reconfig_ablation(config: MacrochipConfig = None,
                                reconfig_ns: List[float] = None,
                                window_ns: float = 400.0) -> List[Tuple[float, float]]:
    """(retuning ns, sustained fraction) for the two-phase network —
    the calibration constant behind its 7.5%-of-peak saturation."""
    cfg = config or scaled_config()
    grid = reconfig_ns or [0.5, 5.0, 15.0, 30.0, 60.0]
    out = []
    for ns_ in grid:
        knee = _knee("two_phase", cfg, [0.04, 0.08, 0.15, 0.3], window_ns,
                     tree_reconfig_ps=int(ns_ * 1000))
        out.append((ns_, knee))
    return out


def conversion_overhead_ablation(config: MacrochipConfig = None,
                                 overhead_cycles: List[int] = None,
                                 window_ns: float = 400.0
                                 ) -> List[Tuple[int, float]]:
    """(conversion cycles, mean uniform latency ns) for the limited
    point-to-point network's forwarding hop."""
    cfg = config or scaled_config()
    grid = overhead_cycles or [0, 30, 60, 120]
    out = []
    for cycles in grid:
        r = run_load_point("limited_point_to_point", cfg,
                           UniformTraffic(cfg.layout), 0.10,
                           window_ns=window_ns,
                           network_kwargs={
                               "conversion_overhead_cycles": cycles})
        out.append((cycles, r.mean_latency_ns))
    return out


def circuit_engine_ablation(config: MacrochipConfig = None,
                            engines: List[int] = None,
                            window_ns: float = 400.0
                            ) -> List[Tuple[int, float]]:
    """(engines per site, sustained fraction) for the circuit-switched
    torus — the 'additional routers for non-blocking operation'."""
    cfg = config or scaled_config()
    grid = engines or [1, 2, 5, 10]
    out = []
    for count in grid:
        knee = _knee("circuit_switched", cfg,
                     [0.01, 0.02, 0.03, 0.05], window_ns,
                     engines_per_site=count)
        out.append((count, knee))
    return out


def ablation_report(config: MacrochipConfig = None,
                    window_ns: float = 400.0) -> str:
    """All three ablations as one rendered report."""
    cfg = config or scaled_config()
    blocks = []
    blocks.append(render_table(
        ["Switch retune (ns)", "Sustained (uniform)"],
        [("%.1f" % ns_, "%.1f%%" % (k * 100))
         for ns_, k in two_phase_reconfig_ablation(cfg, window_ns=window_ns)],
        title="Ablation: two-phase switch-tree retuning time"))
    blocks.append(render_table(
        ["O-E/E-O cycles", "Uniform latency @10% (ns)"],
        [(c, "%.1f" % lat)
         for c, lat in conversion_overhead_ablation(cfg, window_ns=window_ns)],
        title="Ablation: limited-P2P conversion overhead"))
    blocks.append(render_table(
        ["Engines/site", "Sustained (uniform)"],
        [(e, "%.2f%%" % (k * 100))
         for e, k in circuit_engine_ablation(cfg, window_ns=window_ns)],
        title="Ablation: circuit-switched engines per site"))
    return "\n\n".join(blocks)


if __name__ == "__main__":  # pragma: no cover
    print(ablation_report())
