"""Scaling-limit study: what breaks first as the macrochip grows?

The paper evaluates every network at exactly one scale — the 8x8, 64-site
macrochip of Table 4.  This experiment re-runs the analytical machinery
(component counts, loss budgets, laser power) at 4x4, 8x8, 16x16, and
32x32 while holding the *per-site* resources at the Table 4 point
(128 Tx/Rx, 8-wavelength WDM, 320 GB/s injection), and reports the first
scale at which each architecture collapses along any of three axes:

* **wavelengths** — a site's channel fan-out outgrows its 128-transmitter
  bank: point-to-point needs one channel per destination site
  (``num_sites``) and limited point-to-point one per row/column peer
  plus the two router ports (``rows + cols``).  The channel-provisioning
  floors in the simulators clamp at one wavelength so the *simulation*
  still runs; this study reports the point where that clamp starts
  lying about bandwidth.
* **PD loss budget** — the launch power needed to close the worst-case
  link (canonical 17 dB budget + the network's extra loss + the
  waveguide-distance scaling penalty + any signaling eye penalty)
  exceeds :data:`MAX_LAUNCH_DBM`.  Above ~20 dBm (100 mW) in a silicon
  waveguide, two-photon absorption and the photodetector's own overload
  ceiling make "just launch more power" physically unavailable.
* **laser power** — Table-5 static laser power (feeds x 1 mW x loss
  factor) exceeds :data:`LASER_BUDGET_W`.  The paper's 2015 platform
  budgets ~4 kW of compute per macrochip (section 3); a network whose
  lasers alone want more than half of that is not power-efficient in any
  sense the paper would accept.

Worst-case waveguide distance grows linearly with the die edge
(:func:`repro.photonics.loss.waveguide_scaling_penalty_db`), so loss-prone
topologies (token ring's pass-by modulators, the circuit switch's hop
chain) collapse quickly while the point-to-point plants hold on
longer — the Table-4-style breakpoint table this module prints is
the quantitative version of the paper's scalability argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.units import db_to_factor
from ..macrochip.config import MacrochipConfig, grid_config
from ..macrochip.provisioning import provision
from ..networks.complexity import ALL_COUNTS, ComponentCount
from ..networks.factory import FIGURE6_NETWORKS
from ..photonics.loss import waveguide_scaling_penalty_db


#: Maximum practical per-wavelength launch power, in dBm.  Beyond
#: ~100 mW in a silicon waveguide, two-photon absorption (and the
#: receiver's overload limit) stop "launch more power" from compensating
#: loss, so a link whose worst case needs more than this does not close.
MAX_LAUNCH_DBM = 20.0

#: Static laser-power budget per macrochip, in watts.  Section 3 budgets
#: ~4 kW of compute per macrochip; a network whose lasers want more than
#: half of that has lost the power-efficiency argument outright.
LASER_BUDGET_W = 2000.0

#: The grid dimensions the study sweeps (square ``dim x dim`` macrochips).
SCALING_DIMS = (4, 8, 16, 32)

#: The three failure axes, in reporting order.
AXES = ("wavelengths", "pd_budget", "laser_power")


def wavelength_demand(network: str, cfg: MacrochipConfig) -> Tuple[int, int]:
    """``(channels_needed, transmitters_available)`` for one site.

    ``channels_needed`` is the number of *distinct* destination channels
    the most fan-out-burdened site must source; each needs at least one
    dedicated wavelength out of the site's transmitter bank.  Shared-
    channel networks (token ring, circuit switched, two-phase) time-share
    a constant number of channels regardless of scale, so they never
    fail this axis.
    """
    layout = cfg.layout
    supply = cfg.transmitters_per_site
    if network == "point_to_point":
        # dedicated channel to every site (the paper's full crossbar)
        return layout.num_sites, supply
    if network == "limited_point_to_point":
        # one channel per row peer + per column peer + the two router
        # ports the electronic hops enter through
        peers = (layout.rows - 1) + (layout.cols - 1)
        return peers + 2, supply
    # token_ring / circuit_switched / two_phase: scale-invariant fan-out
    return 1, supply


@dataclass(frozen=True)
class ScalePoint:
    """One network at one grid size: every feasibility axis, resolved."""

    network: str
    dim: int
    count: ComponentCount
    #: topology loss + waveguide-distance penalty + signaling penalty
    total_extra_db: float
    #: launch power (dBm) needed to close the worst-case link with the
    #: canonical margin intact
    required_launch_dbm: float
    laser_power_w: float
    channels_needed: int
    channels_available: int

    @property
    def wavelengths_ok(self) -> bool:
        return self.channels_needed <= self.channels_available

    @property
    def pd_budget_ok(self) -> bool:
        return self.required_launch_dbm <= MAX_LAUNCH_DBM

    @property
    def laser_power_ok(self) -> bool:
        return self.laser_power_w <= LASER_BUDGET_W

    @property
    def failed_axes(self) -> Tuple[str, ...]:
        failed = []
        if not self.wavelengths_ok:
            failed.append("wavelengths")
        if not self.pd_budget_ok:
            failed.append("pd_budget")
        if not self.laser_power_ok:
            failed.append("laser_power")
        return tuple(failed)

    @property
    def feasible(self) -> bool:
        return not self.failed_axes


@dataclass(frozen=True)
class ScalingResult:
    """One network across the full dimension sweep."""

    network: str
    points: Tuple[ScalePoint, ...]

    @property
    def breakpoint_dim(self) -> Optional[int]:
        """First grid dimension at which any axis fails (None if the
        network survives the whole sweep)."""
        for p in self.points:
            if not p.feasible:
                return p.dim
        return None

    @property
    def breakpoint_axes(self) -> Tuple[str, ...]:
        for p in self.points:
            if not p.feasible:
                return p.failed_axes
        return ()


def analyze_network(network: str, dim: int,
                    config: MacrochipConfig = None) -> ScalePoint:
    """Resolve every feasibility axis for ``network`` on a ``dim x dim``
    macrochip (pass ``config`` to override the per-site resources)."""
    if network not in ALL_COUNTS:
        raise KeyError("unknown network %r; known: %s"
                       % (network, ", ".join(sorted(ALL_COUNTS))))
    cfg = config or grid_config(dim)
    count = ALL_COUNTS[network](cfg)
    total_extra_db = (count.extra_loss_db
                      + cfg.tech.signaling_penalty_db
                      + waveguide_scaling_penalty_db(cfg.layout, cfg.tech))
    needed, avail = wavelength_demand(network, cfg)
    return ScalePoint(
        network=network,
        dim=dim,
        count=count,
        total_extra_db=total_extra_db,
        required_launch_dbm=(cfg.tech.laser_launch_power_dbm
                             + total_extra_db),
        laser_power_w=(count.laser_feeds * db_to_factor(total_extra_db)
                       / 1000.0),
        channels_needed=needed,
        channels_available=avail,
    )


def scaling_sweep(networks: List[str] = None,
                  max_dim: int = 32) -> List[ScalingResult]:
    """Analyze every network at every scale up to ``max_dim``."""
    keys = networks or list(FIGURE6_NETWORKS)
    dims = [d for d in SCALING_DIMS if d <= max_dim]
    if not dims:
        raise ValueError("max_dim %d admits no scale (smallest is %d)"
                         % (max_dim, SCALING_DIMS[0]))
    results = []
    for key in keys:
        points = tuple(analyze_network(key, d) for d in dims)
        results.append(ScalingResult(network=key, points=points))
    return results


def edge_fiber_note(dim: int) -> str:
    """One-line laser-plant provisioning note for a ``dim x dim`` grid
    (section 3's 2000-fiber macrochip edge, checked via
    :func:`repro.macrochip.provisioning.provision`)."""
    budget = provision(grid_config(dim))
    state = ("fits" if budget.fits_edge_fibers else "OVERSUBSCRIBED")
    return ("%dx%d: %d laser fibers of %d edge capacity (%s)"
            % (dim, dim, budget.edge_fibers_used,
               budget.edge_fiber_capacity, state))


def breakpoint_table_text(results: List[ScalingResult] = None,
                          max_dim: int = 32) -> str:
    """Render the Table-4-style breakpoint table.

    One row per network: the first infeasible grid size, which axes broke
    there, and the laser power / required launch / channel demand at that
    scale (or at ``max_dim`` when the network survives the whole sweep).
    """
    if results is None:
        results = scaling_sweep(max_dim=max_dim)
    header = ("%-24s %-10s %-22s %12s %14s %12s"
              % ("Network", "Breaks at", "Failing axes",
                 "Laser (W)", "Launch (dBm)", "Channels"))
    lines = [
        "Scaling breakpoints (per-site resources held at Table 4; "
        "launch ceiling %.0f dBm, laser budget %.0f W)"
        % (MAX_LAUNCH_DBM, LASER_BUDGET_W),
        header,
        "-" * len(header),
    ]
    for res in results:
        if res.breakpoint_dim is not None:
            at = next(p for p in res.points if p.dim == res.breakpoint_dim)
            breaks = "%dx%d" % (at.dim, at.dim)
            axes = ",".join(res.breakpoint_axes)
        else:
            at = res.points[-1]
            breaks = "none<=%dx%d" % (at.dim, at.dim)
            axes = "-"
        lines.append("%-24s %-10s %-22s %12.1f %14.2f %9d/%d"
                     % (res.network, breaks, axes, at.laser_power_w,
                        at.required_launch_dbm, at.channels_needed,
                        at.channels_available))
    lines.append("")
    lines.append("Per-scale detail (laser W / launch dBm / channel demand):")
    dims = [p.dim for p in results[0].points]
    for res in results:
        cells = []
        for p in res.points:
            mark = "" if p.feasible else " !" + "".join(
                a[0] for a in p.failed_axes)
            cells.append("%dx%d: %.1fW %.1fdBm %d/%d%s"
                         % (p.dim, p.dim, p.laser_power_w,
                            p.required_launch_dbm, p.channels_needed,
                            p.channels_available, mark))
        lines.append("  %-24s %s" % (res.network, " | ".join(cells)))
    lines.append("")
    lines.append("Laser-plant edge fibers: "
                 + "; ".join(edge_fiber_note(d) for d in dims))
    return "\n".join(lines)
