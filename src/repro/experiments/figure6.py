"""Figure 6: latency vs. offered load for four message patterns.

Sweeps all five network architectures over each pattern's load range with
64-byte packets (one cache line), reporting mean packet latency per load
point and the sustained-bandwidth knee — the paper's 'maximum sustainable
bandwidth' read off the vertical asymptote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.tables import render_series, render_table
from ..core.parallel import Shard, ShardError, run_sharded
from ..core.sweep import (SweepPoint, check_injects_something,
                          run_load_point, to_sweep_point)
from ..core.vectorized import have_numpy
from ..macrochip.config import MacrochipConfig, scaled_config
from ..networks.factory import (FIGURE6_NETWORKS, NETWORK_CLASSES,
                                check_network_keys)
from ..workloads.synthetic import make_pattern, pattern_names


#: offered-load grids per pattern, matching the paper's x-axis ranges
LOAD_GRIDS: Dict[str, List[float]] = {
    "uniform": [0.01, 0.025, 0.05, 0.075, 0.10, 0.15, 0.25,
                0.40, 0.50, 0.70, 0.90, 0.95],
    "transpose": [0.002, 0.005, 0.01, 0.012, 0.015, 0.02, 0.03,
                  0.04, 0.05, 0.06],
    "neighbor": [0.01, 0.02, 0.04, 0.06, 0.08, 0.12, 0.16, 0.20, 0.25],
    "butterfly": [0.002, 0.005, 0.01, 0.012, 0.015, 0.02, 0.03,
                  0.04, 0.05, 0.06],
}

#: the four panels in the paper's layout order
PANEL_ORDER = ["uniform", "transpose", "neighbor", "butterfly"]


@dataclass
class Figure6Result:
    """Sweep curves for every (pattern, network) pair."""

    window_ns: float
    #: curves[pattern][network] -> list of SweepPoint
    curves: Dict[str, Dict[str, List[SweepPoint]]] = field(
        default_factory=dict)
    #: simulator events across every load point (sweep-cost telemetry)
    total_events: int = 0
    #: number of load points simulated
    load_points: int = 0
    #: load points that failed under ``on_error='collect'``; empty on a
    #: clean run
    failures: List[ShardError] = field(default_factory=list)

    def saturation_table(self) -> List[Tuple[str, str, float]]:
        """(pattern, network, knee fraction-of-peak) rows.

        The knee is the highest delivered fraction among *unsaturated*
        load points (delivered tracks injected), falling back to the
        best delivered fraction if every point saturated.  A curve with
        no surviving points (every load point failed under a collecting
        error policy) is omitted rather than crashing the summary.
        """
        rows = []
        for pattern, by_net in self.curves.items():
            for net, points in by_net.items():
                if not points:
                    continue
                good = [p.delivered_fraction for p in points
                        if not p.saturated]
                best = max(good) if good else max(
                    p.delivered_fraction for p in points)
                rows.append((pattern, net, best))
        return rows


def check_figure6_grid(config: MacrochipConfig, window_ns: float,
                       patterns: Optional[List[str]] = None,
                       load_grids: Optional[Dict[str, List[float]]] = None
                       ) -> None:
    """Raise ``ValueError`` if any (pattern, load) of the grid would
    inject nothing in ``window_ns``
    (:func:`~repro.core.sweep.check_injects_something`), before any load
    point is simulated.  The check does not depend on the network.  A
    load outside (0, 1] is left to its own shard, which rejects it (so
    ``on_error='collect'`` drops just that point)."""
    grids = load_grids or LOAD_GRIDS
    for pattern_key in patterns or PANEL_ORDER:
        pattern = make_pattern(pattern_key, config.layout)
        for fraction in grids[pattern_key]:
            if 0.0 < fraction <= 1.0:
                check_injects_something(config, pattern, fraction,
                                        window_ns)


def run_figure6(config: MacrochipConfig = None,
                window_ns: float = 1200.0,
                patterns: Optional[List[str]] = None,
                networks: Optional[List[str]] = None,
                load_grids: Optional[Dict[str, List[float]]] = None,
                progress=None,
                workers: int = 1,
                on_error: str = "raise",
                backend: str = "python") -> Figure6Result:
    """Run the Figure 6 sweeps over the exact fixed load grids.

    ``window_ns`` controls fidelity (injection window per load point);
    patterns/networks/load grids can be filtered for quick runs.  With
    ``workers > 1`` the whole (pattern, network, load) grid flattens
    into one shard list — each load point is an independent, seeded
    simulation — so curves are bit-identical to a serial run; expensive
    high-load shards are submitted first (cost-keyed by offered load) so
    the pool never idles on a long tail.

    Every load point builds its own (simulator, network) pair on the
    process's interned tables, and the load points of one pattern share
    one interned draw bank.

    Unknown ``patterns`` or ``networks``, a ``load_grids`` without a
    grid for some requested pattern, and a window in which some load
    point would inject nothing (:func:`check_figure6_grid`) raise
    ``ValueError`` before any load point runs.

    ``on_error`` is the per-shard failure policy of
    :func:`~repro.core.parallel.run_sharded`: under ``'collect'`` a
    failing load point is dropped from its curve and recorded in
    :attr:`Figure6Result.failures` instead of aborting the whole figure.

    ``backend="vectorized"`` routes every load point through the numpy
    fast path (:mod:`repro.core.vectorized`) — bit-identical curves,
    every network has a kernel, and the scalar engine runs instead only
    where numpy is missing.  ``"python"`` (default) is the exact scalar
    event loop.
    """
    cfg = config or scaled_config()
    result = Figure6Result(window_ns=window_ns)
    pats = patterns or PANEL_ORDER
    nets = networks or list(FIGURE6_NETWORKS)
    grids = load_grids or LOAD_GRIDS
    unknown = [p for p in pats if p not in pattern_names()]
    if unknown:
        raise ValueError("unknown pattern(s) %s; choose from %s"
                         % (", ".join(map(repr, unknown)),
                            ", ".join(pattern_names())))
    check_network_keys(nets)
    missing = [p for p in pats if p not in grids]
    if missing:
        raise ValueError("load_grids has no grid for pattern(s) %s; it "
                         "has %s" % (", ".join(map(repr, missing)),
                                     ", ".join(map(repr, grids)) or "none"))
    check_figure6_grid(cfg, window_ns, pats, grids)
    keys = []
    shards = []
    for pattern_key in pats:
        result.curves[pattern_key] = {}
        for net in nets:
            result.curves[pattern_key][net] = []
            pattern = make_pattern(pattern_key, cfg.layout)
            for fraction in grids[pattern_key]:
                keys.append((pattern_key, net))
                shards.append(Shard(
                    run_load_point,
                    args=(net, cfg, pattern, fraction),
                    kwargs=dict(window_ns=window_ns, backend=backend),
                    label="figure6 %s/%s @%.3f"
                          % (pattern_key, net, fraction)))
    if backend == "vectorized":
        have_numpy()  # import numpy before a pool forks: workers share it
    run = run_sharded(shards, workers=workers, progress=progress,
                      cost_key=lambda s: s.args[3], on_error=on_error)
    if progress:
        progress(run.summary())
    for (pattern_key, net), point in zip(keys, run.results):
        if isinstance(point, ShardError):
            result.failures.append(point)
            continue
        result.curves[pattern_key][net].append(to_sweep_point(point, cfg))
    result.total_events = run.total_events
    result.load_points = len(shards)
    return result


def figure6_text(result: Figure6Result) -> str:
    """Render the four panels (table + ASCII plot) plus the saturation
    summary."""
    from ..analysis.plot import plot_figure6_panel

    blocks = []
    for pattern_key in PANEL_ORDER:
        if pattern_key not in result.curves:
            continue
        series = {}
        for net, points in result.curves[pattern_key].items():
            label = NETWORK_CLASSES[net].name
            series[label] = [(p.offered_fraction * 100, p.mean_latency_ns)
                             for p in points]
        blocks.append(render_series(
            "Figure 6 [%s]" % pattern_key,
            "load(%)", "mean packet latency (ns)", series))
        try:
            blocks.append(plot_figure6_panel(result, pattern_key))
        except ValueError:  # pragma: no cover - nothing plottable
            pass
    sat_rows = [(p, NETWORK_CLASSES[n].name, "%.1f%%" % (f * 100))
                for p, n, f in result.saturation_table()]
    blocks.append(render_table(
        ["Pattern", "Network", "Sustained (% of peak)"], sat_rows,
        title="Figure 6 summary: sustained bandwidth at the knee"))
    if result.failures:
        lines = ["%d load point(s) failed and were dropped from the "
                 "curves above:" % len(result.failures)]
        lines.extend("  " + str(err) for err in result.failures)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
