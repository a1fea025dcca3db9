"""Component counting and complexity analysis (section 6.4, Table 6).

For each network we derive transmitter, receiver, waveguide, and switch
counts from the topology, plus two quantities the power model needs:
*laser feeds* (independently sourced wavelength channels) and the
worst-case extra optical loss beyond the canonical link budget.

Derivations follow the paper's own arithmetic for the 8x8 scaled
configuration (64 sites, 128 Tx/Rx per site, 8-wavelength WDM); the tests
assert that exactly the Table 6 values come out for that configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..macrochip.config import MacrochipConfig, scaled_config
from ..photonics.loss import (
    circuit_switched_extra_loss_db,
    snoop_extra_loss_db,
    token_ring_extra_loss_db,
    two_phase_extra_loss_db,
)


#: Worst-case 4x4-switch hops of the adapted circuit-switched torus on
#: the paper's 8x8 macrochip (section 4.5: 31 hops at 0.5 dB/hop ~
#: 15 dB).  Kept as the pinned 8x8 value; arbitrary grids use
#: :func:`circuit_switched_worst_hops`.
CIRCUIT_SWITCHED_WORST_HOPS = 31
#: Worst-case broadband-switch hops on a two-phase shared channel of the
#: 8x8 macrochip (section 4.3: the switch trees bound the path at 7
#: hops; the ALT variant's doubled trees bound it at 6).  Arbitrary
#: grids use :func:`two_phase_worst_hops`.
TWO_PHASE_WORST_HOPS = 7
TWO_PHASE_ALT_WORST_HOPS = 6


def circuit_switched_worst_hops(layout) -> int:
    """Worst-case 4x4 switch-point crossings on the torus, for any grid.

    A worst-case circuit spans ``rows // 2`` row hops plus ``cols // 2``
    column hops (torus diameter); each inter-site crossing passes the
    four switch points of a site boundary, minus the final drop —
    ``4 * (rows//2 + cols//2) - 1``, which is the paper's 31 on the 8x8
    (section 4.5) and grows linearly with the grid dimension.
    """
    diameter = layout.rows // 2 + layout.cols // 2
    return max(1, 4 * diameter - 1)


def two_phase_worst_hops(layout, alt: bool = False) -> int:
    """Worst-case broadband-switch hops along a shared row channel.

    The switch trees bound the path at one hop per column segment:
    ``cols - 1`` (7 on the paper's 8 columns); the ALT variant's doubled
    trees save one hop (6 on the 8x8), never going below one.
    """
    hops = layout.cols - 1
    if alt:
        hops -= 1
    return max(1, hops)


@dataclass(frozen=True)
class ComponentCount:
    """One row of Table 6, plus power-model inputs."""

    network: str
    transmitters: int
    receivers: int
    waveguides: int  # as the paper reports them (effective, for area)
    switches: int
    switch_kind: str = ""
    laser_feeds: int = 0
    extra_loss_db: float = 0.0

    @property
    def total_active_components(self) -> int:
        return self.transmitters + self.receivers + self.switches


def _total_tx(cfg: MacrochipConfig) -> int:
    return cfg.num_sites * cfg.transmitters_per_site


def _total_rx(cfg: MacrochipConfig) -> int:
    return cfg.num_sites * cfg.receivers_per_site


def p2p_count(config: MacrochipConfig = None) -> ComponentCount:
    """Point-to-point (section 4.2).

    Each site sources ``128 Tx / 8 WDM = 16`` horizontal waveguides
    (64 x 16 = 1024); every vertical channel needs an up and a down guide,
    so vertical = 2 x horizontal (2048); total 3072.
    """
    cfg = config or scaled_config()
    guides_per_site = cfg.transmitters_per_site // cfg.wavelengths_per_waveguide
    horizontal = cfg.num_sites * guides_per_site
    vertical = 2 * horizontal
    tx = _total_tx(cfg)
    return ComponentCount(
        network="Point-to-Point",
        transmitters=tx,
        receivers=_total_rx(cfg),
        waveguides=horizontal + vertical,
        switches=0,
        laser_feeds=tx,
        extra_loss_db=0.0,
    )


def limited_p2p_count(config: MacrochipConfig = None) -> ComponentCount:
    """Limited point-to-point (section 4.6): same optical plant as the
    point-to-point network plus two 7x7 electronic routers per site."""
    cfg = config or scaled_config()
    base = p2p_count(cfg)
    return ComponentCount(
        network="Limited Point-to-Point",
        transmitters=base.transmitters,
        receivers=base.receivers,
        waveguides=base.waveguides,
        switches=2 * cfg.num_sites,
        # one router bridges the rows-1 row peers, one the cols-1 column
        # peers (identical 7x7 pair on the square 8x8 of the paper)
        switch_kind="%dx%d electronic routers" % (cfg.layout.rows - 1,
                                                  cfg.layout.cols - 1),
        laser_feeds=base.laser_feeds,
        extra_loss_db=0.0,
    )


def token_ring_count(config: MacrochipConfig = None) -> ComponentCount:
    """Token-ring crossbar (section 4.4).

    Every site carries a full modulator bank on every destination bundle:
    64 sites x 64 bundles x 128 wavelengths = 512K transmitters.  The WDM
    factor is reduced to 2 (off-resonance ring loss), so the 64 bundles of
    128 wavelengths need 64 x 64 = 4096 physical guides, doubled for the
    return leg of the snaked ring = 8192; since every guide is routed along
    every row, the paper charges 4x that (32K) as effective waveguide area.
    """
    cfg = config or scaled_config()
    bundle_wavelengths = cfg.receivers_per_site  # 128: full site ingress
    wdm_factor = 2
    physical = cfg.num_sites * bundle_wavelengths // wdm_factor * 2
    effective = physical * 4
    rings_passed = cfg.num_sites * wdm_factor  # 128 on the 8x8 macrochip
    return ComponentCount(
        network="Token-Ring",
        transmitters=cfg.num_sites * cfg.num_sites * bundle_wavelengths,
        receivers=_total_rx(cfg),
        waveguides=effective,
        switches=0,
        laser_feeds=cfg.num_sites * bundle_wavelengths,
        extra_loss_db=token_ring_extra_loss_db(rings_passed, cfg.tech),
    )


def circuit_switched_count(config: MacrochipConfig = None) -> ComponentCount:
    """Circuit-switched torus (section 4.5): each site sources 16 guides of
    8 wavelengths routed as 64 loops per row pair — 50% fewer waveguides
    than the point-to-point network — with 16 4x4 switch points per site."""
    cfg = config or scaled_config()
    waveguides = p2p_count(cfg).waveguides * 2 // 3
    return ComponentCount(
        network="Circuit-Switched",
        transmitters=_total_tx(cfg),
        receivers=_total_rx(cfg),
        waveguides=waveguides,
        switches=16 * cfg.num_sites,
        switch_kind="4x4 switches",
        laser_feeds=_total_tx(cfg),
        extra_loss_db=circuit_switched_extra_loss_db(
            circuit_switched_worst_hops(cfg.layout), tech=cfg.tech),
    )


def two_phase_count(config: MacrochipConfig = None,
                    alt: bool = False) -> ComponentCount:
    """Two-phase data network (section 4.3).

    512 shared channels x 2 waveguides x 2 parallel segments = 2048
    horizontal plus as many vertical = 4096.  Each of the 2048 horizontal
    segments is fed through 8 switch points = 16K switches; the ALT layout
    shares the destination-input switches across its doubled trees, which
    is where the paper's 15K comes from.
    """
    cfg = config or scaled_config()
    shared_channels = cfg.num_sites * cfg.layout.rows  # 512 on the 8x8
    # two waveguides per channel, each as two parallel segments = 2048
    horizontal_segments = shared_channels * 2 * 2
    # every horizontal waveguide couples to a matching vertical one
    waveguides = 2 * horizontal_segments  # 4096 on the 8x8
    switches = horizontal_segments * cfg.layout.cols  # 2048 x 8 = 16K
    tx = _total_tx(cfg)
    name = "Two-Phase Data"
    loss_db = two_phase_extra_loss_db(two_phase_worst_hops(cfg.layout),
                                      cfg.tech)
    if alt:
        name = "Two-Phase Data (ALT)"
        tx *= 2
        switches -= shared_channels * 2  # shared input switches: 16K - 1K = 15K
        loss_db = two_phase_extra_loss_db(
            two_phase_worst_hops(cfg.layout, alt=True), cfg.tech)
    return ComponentCount(
        network=name,
        transmitters=tx,
        receivers=_total_rx(cfg),
        waveguides=waveguides,
        switches=switches,
        switch_kind="1x2 broadband switches",
        laser_feeds=tx,
        extra_loss_db=loss_db,
    )


def two_phase_arbitration_count(config: MacrochipConfig = None) -> ComponentCount:
    """The two-phase network's arbitration overlay: one request waveguide
    per row and one notification waveguide per column (16 + 8 = 24 guides),
    2 transmitters per site (request + notify), snooped by every row/column
    member (1024 receivers), sourced with 8x snoop power."""
    cfg = config or scaled_config()
    rows, cols = cfg.layout.rows, cfg.layout.cols
    return ComponentCount(
        network="Two-Phase Arbitration",
        transmitters=2 * cfg.num_sites,
        receivers=cfg.num_sites * (rows + cols),
        waveguides=2 * rows + cols,
        switches=0,
        laser_feeds=2 * cfg.num_sites,
        extra_loss_db=snoop_extra_loss_db(cfg.layout.cols),
    )


#: Registry used by Table 5 / Table 6 generators.
ALL_COUNTS: Dict[str, Callable[[MacrochipConfig], ComponentCount]] = {
    "token_ring": token_ring_count,
    "point_to_point": p2p_count,
    "circuit_switched": circuit_switched_count,
    "limited_point_to_point": limited_p2p_count,
    "two_phase": lambda cfg=None: two_phase_count(cfg, alt=False),
    "two_phase_alt": lambda cfg=None: two_phase_count(cfg, alt=True),
    "two_phase_arbitration": two_phase_arbitration_count,
}


def table6_rows(config: MacrochipConfig = None) -> List[ComponentCount]:
    """All Table 6 rows in the paper's order."""
    cfg = config or scaled_config()
    return [
        token_ring_count(cfg),
        p2p_count(cfg),
        circuit_switched_count(cfg),
        limited_p2p_count(cfg),
        two_phase_count(cfg, alt=False),
        two_phase_count(cfg, alt=True),
        two_phase_arbitration_count(cfg),
    ]
