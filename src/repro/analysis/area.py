"""Waveguide area and bandwidth-density estimates (sections 2, 3, 6.4).

The paper's complexity argument is partly an *area* argument: the
token-ring adaptation needs only 8192 physical waveguides but charges
32K of effective area because every guide runs along every row, while
the point-to-point network's waveguides are short and the paper's
scalability claim rests on WDM: "the peak bandwidth for a point-to-point
network can increase without increasing the number of waveguides".

This module turns the Table 6 counts into substrate-area estimates using
the technology's 10 um global-waveguide pitch and the layout geometry,
and computes the bandwidth density (GB/s per mm of routing cross-section)
that motivates photonics over electrical I/O in section 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..macrochip.config import MacrochipConfig, scaled_config
from ..networks.complexity import ComponentCount, table6_rows


#: global waveguide pitch on the SOI routing layer (section 2: 10 um)
WAVEGUIDE_PITCH_UM = 10.0


@dataclass(frozen=True)
class AreaEstimate:
    """Routing-substrate area figures for one network."""

    network: str
    waveguides: int
    #: average routed length per effective waveguide, cm
    mean_length_cm: float
    #: total waveguide length, meters
    total_length_m: float
    #: substrate area consumed by routing, cm^2
    routing_area_cm2: float


def estimate_area(count: ComponentCount,
                  config: MacrochipConfig) -> AreaEstimate:
    """Estimate routing area from an effective waveguide count.

    Effective counts (as Table 6 reports them) already charge a guide
    once per row it crosses, so the mean routed length is one row span.
    """
    layout = config.layout
    mean_length_cm = layout.row_span_cm
    total_cm = count.waveguides * mean_length_cm
    pitch_cm = WAVEGUIDE_PITCH_UM * 1e-4
    return AreaEstimate(
        network=count.network,
        waveguides=count.waveguides,
        mean_length_cm=mean_length_cm,
        total_length_m=total_cm / 100.0,
        routing_area_cm2=total_cm * pitch_cm,
    )


def area_table(config: MacrochipConfig = None) -> List[AreaEstimate]:
    """Area estimates for every Table 6 network."""
    cfg = config or scaled_config()
    return [estimate_area(c, cfg) for c in table6_rows(cfg)]


def substrate_area_cm2(config: MacrochipConfig = None) -> float:
    """Total SOI substrate area of the macrochip."""
    cfg = config or scaled_config()
    layout = cfg.layout
    return (layout.rows * layout.site_pitch_cm
            * layout.cols * layout.site_pitch_cm)


def bandwidth_density_gb_per_s_per_mm(config: MacrochipConfig = None,
                                      wavelengths: int = None) -> float:
    """Escape bandwidth per millimeter of waveguide cross-section.

    At 10 um pitch, one millimeter of routing cross-section carries 100
    waveguides; with W wavelengths at 2.5 GB/s each this is the
    bandwidth-density figure that dwarfs electrical package escape
    (section 1: fibers at 250 um pitch, solder balls coarser still).
    """
    cfg = config or scaled_config()
    w = wavelengths or cfg.wavelengths_per_waveguide
    guides_per_mm = 1000.0 / WAVEGUIDE_PITCH_UM
    return guides_per_mm * w * cfg.wavelength_gb_per_s


def wdm_scaling_table(config: MacrochipConfig = None,
                      wdm_factors: List[int] = None) -> List[tuple]:
    """(WDM factor, total P2P peak TB/s, waveguide count) — the section
    6.4 scalability claim: bandwidth grows with WDM at constant
    waveguide count."""
    from ..networks.complexity import p2p_count

    cfg = config or scaled_config()
    factors = wdm_factors or [4, 8, 16, 32]
    base = p2p_count(cfg)
    rows = []
    for w in factors:
        scaled = cfg.with_overrides(
            transmitters_per_site=cfg.transmitters_per_site
            * w // cfg.wavelengths_per_waveguide,
            receivers_per_site=cfg.receivers_per_site
            * w // cfg.wavelengths_per_waveguide,
            wavelengths_per_waveguide=w)
        count = p2p_count(scaled)
        rows.append((w, scaled.total_bandwidth_tb_per_s, count.waveguides))
    assert all(r[2] == base.waveguides for r in rows), \
        "waveguide count must stay constant under WDM scaling"
    return rows
