"""Extension experiments beyond the paper's evaluation.

The paper's conclusion names two future-work directions; both are
implemented here, along with ablations of the calibration constants our
adaptation introduces (see DESIGN.md section 5):

* :func:`message_passing_comparison` — the five networks under
  MPI-style workloads (ring shift, halo exchange, all-to-all,
  allreduce);
* :func:`memory_technology_sweep` — sensitivity of the closed-loop
  results to local memory latency (stacked DRAM vs conventional);
* :func:`two_phase_reconfig_ablation` — sustained bandwidth vs the
  broadband-switch retuning time that gates the two-phase network;
* :func:`conversion_overhead_ablation` — limited-P2P forwarding cost vs
  the O-E/E-O conversion latency;
* :func:`circuit_engine_ablation` — circuit-switched saturation vs the
  number of per-site circuit engines.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis.tables import render_table
from ..core.sweep import run_load_point
from ..cpu.system import generate_trace
from ..macrochip.config import MacrochipConfig, scaled_config
from ..networks.factory import FIGURE6_NETWORKS, NETWORK_CLASSES
from ..workloads.kernels import RadixKernel
from ..workloads.message_passing import (
    MESSAGE_PASSING_WORKLOADS,
    run_message_passing,
)
from ..workloads.replay import replay
from ..workloads.synthetic import UniformTraffic


def message_passing_comparison(config: MacrochipConfig = None,
                               networks: List[str] = None,
                               progress=None) -> str:
    """Run every message-passing workload on every network; returns the
    rendered comparison table (runtime + effective bandwidth)."""
    cfg = config or scaled_config()
    nets = networks or list(FIGURE6_NETWORKS)
    rows = []
    for workload in sorted(MESSAGE_PASSING_WORKLOADS):
        for net in nets:
            if progress:
                progress("mp %s on %s" % (workload, net))
            r = run_message_passing(workload, net, cfg)
            rows.append((workload, NETWORK_CLASSES[net].name,
                         "%.1f us" % (r.runtime_ns / 1000.0),
                         "%.0f GB/s" % r.effective_bandwidth_gb_per_s))
    return render_table(
        ["Workload", "Network", "Runtime", "Delivered BW"], rows,
        title="Extension: message-passing workloads (paper future work)")


def memory_technology_sweep(config: MacrochipConfig = None,
                            memory_cycles: List[int] = None,
                            progress=None) -> str:
    """Closed-loop radix runtime per network as local memory latency
    varies (the paper's second future-work axis)."""
    cfg = config or scaled_config()
    cycles_grid = memory_cycles or [25, 50, 150]
    kernel = RadixKernel(refs_per_core=400)
    rows = []
    nets = ["point_to_point", "token_ring", "circuit_switched"]
    for cycles in cycles_grid:
        tuned = cfg.with_overrides(memory_latency_cycles=cycles)
        trace = generate_trace(kernel, tuned)
        for net in nets:
            if progress:
                progress("memory %d cycles on %s" % (cycles, net))
            r = replay(trace, net, tuned)
            rows.append(("%d cycles (%.0f ns)" % (cycles, cycles * 0.2),
                         NETWORK_CLASSES[net].name,
                         "%.1f us" % (r.runtime_ns / 1000.0),
                         "%.1f ns" % r.mean_op_latency_ns))
    return render_table(
        ["Memory latency", "Network", "Radix runtime", "Latency/op"], rows,
        title="Extension: memory-technology sensitivity (radix kernel)")


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
    import sys

    progress = lambda m: print("..", m, file=sys.stderr)  # noqa: E731
    print(message_passing_comparison(progress=progress))
    print()
    print(memory_technology_sweep(progress=progress))
    print()
    print(ablation_report())
