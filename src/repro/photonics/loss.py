"""Optical link-budget calculations.

The paper evaluates links analytically: an un-switched site-to-site link
loses 17 dB (section 2), and each network adds its own worst-case extra
loss (switch hops, pass-by modulator rings, snoop splitting) that must be
compensated by launching proportionally more laser power — the "power loss
factor" of Table 5.

This module builds the canonical link from the component models and
computes per-network worst-case losses from mechanism counts, so Table 5
is *derived*, not transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import components as comp
from .technology import DEFAULT_TECHNOLOGY, Technology


def unswitched_link(tech: Technology = DEFAULT_TECHNOLOGY,
                    waveguide_loss_db: float = None,
                    passed_rings: int = 6) -> comp.OpticalPath:
    """The canonical un-switched site-to-site link (paper Figure 2).

    Composition: active modulator (4 dB) + WDM mux (2.5 dB) + OPxC from the
    transmit chip onto the substrate (1.2 dB) + worst-case substrate
    waveguide run (6 dB) + inter-layer OPxC coupling (1.2 dB is folded into
    the waveguide worst case for the un-switched budget) + OPxC up to the
    receive chip (1.2 dB) + ``passed_rings`` through drop-filters
    (0.1 dB each) + the selected drop (1.5 dB).

    With the defaults this totals the paper's quoted 17 dB, leaving a 4 dB
    margin against a 0 dBm launch and -21 dBm receiver sensitivity.
    """
    if waveguide_loss_db is None:
        waveguide_loss_db = tech.waveguide_worst_case_loss_db
    path = comp.OpticalPath()
    path.append(comp.modulator(tech, active=True))
    path.append(comp.multiplexer(tech))
    path.append(comp.opxc_coupler(tech))
    path.append(comp.Component("waveguide[worst-case]", waveguide_loss_db))
    path.append(comp.opxc_coupler(tech))
    for _ in range(passed_rings):
        path.append(comp.drop_filter(selected=False, tech=tech))
    path.append(comp.drop_filter(selected=True, tech=tech))
    path.append(comp.receiver(tech))
    return path


@dataclass(frozen=True)
class LinkBudget:
    """A resolved optical power budget for a link."""

    loss_db: float
    launch_dbm: float
    sensitivity_dbm: float

    @property
    def margin_db(self) -> float:
        """Power remaining above receiver sensitivity; negative means the
        link does not close."""
        return self.launch_dbm - self.loss_db - self.sensitivity_dbm

    @property
    def closes(self) -> bool:
        return self.margin_db >= 0.0


def budget_for(path: comp.OpticalPath,
               tech: Technology = DEFAULT_TECHNOLOGY) -> LinkBudget:
    """Compute the budget of an explicit component path.

    Uses the signaling-adjusted receiver sensitivity: a PAM4 link closes
    against a sensitivity degraded by the eye penalty (NRZ is unchanged).
    """
    return LinkBudget(
        loss_db=path.total_loss_db,
        launch_dbm=tech.laser_launch_power_dbm,
        sensitivity_dbm=tech.effective_receiver_sensitivity_dbm,
    )


# ---------------------------------------------------------------------------
# Per-network *extra* worst-case loss, beyond the canonical link.  These are
# the mechanisms section 4 and 6.3 describe; each returns dB.
# ---------------------------------------------------------------------------

def token_ring_extra_loss_db(modulators_passed: int = 128,
                             tech: Technology = DEFAULT_TECHNOLOGY) -> float:
    """Corona adaptation: every wavelength passes the off-resonance
    modulator rings of all potential senders on its bundle.  The paper's
    macrochip adaptation reduces WDM to 2 so each wavelength passes 128
    rings at 0.1 dB -> 12.8 dB."""
    return modulators_passed * tech.modulator_off_resonance_loss_db


def circuit_switched_extra_loss_db(switch_hops: int = 31,
                                   loss_per_hop_db: float = None,
                                   tech: Technology = DEFAULT_TECHNOLOGY) -> float:
    """Torus adaptation: the worst-case path crosses ``switch_hops`` 4x4
    switch points at the aggressive 0.5 dB assumption (~15 dB, section
    4.5)."""
    if loss_per_hop_db is None:
        loss_per_hop_db = tech.switch_4x4_loss_db
    return switch_hops * loss_per_hop_db


def two_phase_extra_loss_db(switch_hops: int = 7,
                            tech: Technology = DEFAULT_TECHNOLOGY) -> float:
    """Two-phase network: at most 7 broadband-switch hops along a shared
    row channel (7 dB); the ALT variant halves tree contention and sees at
    most 6 hops (6 dB)."""
    return switch_hops * tech.switch_loss_db


def snoop_extra_loss_db(snoopers: int = 8) -> float:
    """Arbitration waveguides are snooped by every site in the row/column;
    splitting power 8 ways costs a factor of the snooper count."""
    from ..core.units import factor_to_db

    return factor_to_db(float(snoopers))


def hermes_extra_loss_db(cluster_size: int = 4,
                         rings_passed: int = None,
                         tech: Technology = DEFAULT_TECHNOLOGY) -> float:
    """HERMES hierarchical broadcast: every intra-cluster transmission is
    physically split across all ``cluster_size`` cluster members (a
    factor of the member count, like the snooped arbitration guides), and
    each wavelength passes the off-resonance modulator rings of the other
    cluster members on the shared broadcast ring."""
    from ..core.units import factor_to_db

    if rings_passed is None:
        rings_passed = (cluster_size - 1) * 8
    return (factor_to_db(float(cluster_size))
            + rings_passed * tech.modulator_off_resonance_loss_db)


def scaled_waveguide_loss_db(layout,
                             tech: Technology = DEFAULT_TECHNOLOGY) -> float:
    """Worst-case substrate waveguide loss for an arbitrary macrochip.

    The technology's ``waveguide_worst_case_loss_db`` (6 dB) is quoted
    for the paper's largest macrochip — the 8x8 at 2 cm pitch, whose
    corner-to-corner Manhattan run is 28 cm.  Waveguide loss is linear
    in distance, so a bigger (or smaller) die scales that budget by the
    ratio of its own worst-case run: a 16x16 corner path is 60 cm and
    costs ~12.9 dB, a 4x4 only ~2.6 dB.  The 8x8 returns the canonical
    6 dB exactly, so every existing Table 5 number is unchanged.
    """
    from .layout import DEFAULT_LAYOUT

    reference_cm = DEFAULT_LAYOUT.worst_case_distance_cm  # 28 cm
    return (tech.waveguide_worst_case_loss_db
            * layout.worst_case_distance_cm / reference_cm)


def waveguide_scaling_penalty_db(layout,
                                 tech: Technology = DEFAULT_TECHNOLOGY
                                 ) -> float:
    """Extra waveguide loss of ``layout`` beyond the canonical budget.

    The canonical 17 dB link already pays the 8x8's 6 dB worst-case
    waveguide run; a larger die adds the difference (never negative —
    a smaller die banks its slack as margin, it does not subsidize the
    laser)."""
    return max(0.0, scaled_waveguide_loss_db(layout, tech)
               - tech.waveguide_worst_case_loss_db)
