"""Network power analysis (section 6.3, Table 5, Figure 9).

Static power has two parts:

* **laser power** — Table 5: laser feeds x 1 mW x the loss factor
  compensating the network's worst-case extra optical loss (both derived
  from the topology in :mod:`repro.networks.complexity`);
* **electrical static power** — modulator drive, receiver bias, and ring
  tuning, per active component (Table 1 / section 2 text).

Dynamic energy comes from the replay's own accounting: optical
transceiver energy per bit moved, plus 60 pJ/byte for every electronic
router traversal in the limited point-to-point network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..macrochip.config import MacrochipConfig, scaled_config
from ..networks import complexity
from ..networks.complexity import ComponentCount
from ..photonics.power import LaserPowerEstimate
from ..photonics.technology import Technology


@dataclass(frozen=True)
class NetworkPower:
    """Static power of one network configuration."""

    network: str
    laser_power_w: float
    loss_factor: float
    electrical_static_w: float

    @property
    def total_static_w(self) -> float:
        return self.laser_power_w + self.electrical_static_w


def electrical_static_w(count: ComponentCount, tech: Technology) -> float:
    """Modulator + receiver + tuning + switch static power in watts."""
    mw = (count.transmitters * (tech.modulator_power_mw
                                + tech.ring_tuning_power_mw)
          + count.receivers * (tech.receiver_power_mw
                               + tech.ring_tuning_power_mw))
    if "electronic" not in count.switch_kind:
        mw += count.switches * tech.switch_power_mw
    return mw / 1000.0


def network_power(count: ComponentCount,
                  tech: Technology) -> NetworkPower:
    # the signaling eye penalty (0 dB for NRZ, ~4.8 dB for PAM4) is extra
    # loss every laser feed must launch over, on top of the topology's own
    extra_db = count.extra_loss_db + tech.signaling_penalty_db
    est = LaserPowerEstimate(count.network, count.laser_feeds, extra_db)
    return NetworkPower(
        network=count.network,
        laser_power_w=est.laser_power_w,
        loss_factor=est.loss_factor,
        electrical_static_w=electrical_static_w(count, tech),
    )


@dataclass(frozen=True)
class Table5Row:
    """One Table 5 entry: network, loss factor, laser power."""

    network: str
    loss_factor: float
    laser_power_w: float


def table5_rows(config: MacrochipConfig = None) -> List[Table5Row]:
    """Regenerate Table 5 from the topology definitions.

    Rows appear in the paper's order; the two-phase data network appears
    in base and ALT forms plus its arbitration overlay, as in the paper.
    """
    cfg = config or scaled_config()
    order = [
        complexity.token_ring_count(cfg),
        complexity.p2p_count(cfg),
        complexity.circuit_switched_count(cfg),
        complexity.limited_p2p_count(cfg),
        complexity.two_phase_count(cfg, alt=False),
        complexity.two_phase_count(cfg, alt=True),
        complexity.two_phase_arbitration_count(cfg),
    ]
    rows = []
    for count in order:
        p = network_power(count, cfg.tech)
        rows.append(Table5Row(count.network, p.loss_factor,
                              p.laser_power_w))
    return rows


#: Map from network factory keys to complexity counts (for EDP).
_COUNT_BY_KEY = {
    "point_to_point": complexity.p2p_count,
    "limited_point_to_point": complexity.limited_p2p_count,
    "token_ring": complexity.token_ring_count,
    "circuit_switched": complexity.circuit_switched_count,
    "two_phase": lambda cfg: complexity.two_phase_count(cfg, alt=False),
    "two_phase_alt": lambda cfg: complexity.two_phase_count(cfg, alt=True),
}


def static_power_w(network_key: str,
                   config: MacrochipConfig = None,
                   include_electrical: bool = True) -> float:
    """Total static power (W) of a network identified by factory key.

    The two-phase networks include their arbitration overlay.
    """
    cfg = config or scaled_config()
    try:
        count = _COUNT_BY_KEY[network_key](cfg)
    except KeyError:
        raise KeyError("unknown network key %r" % network_key) from None
    p = network_power(count, cfg.tech)
    total = p.laser_power_w + (p.electrical_static_w
                               if include_electrical else 0.0)
    if network_key.startswith("two_phase"):
        arb = network_power(
            complexity.two_phase_arbitration_count(cfg), cfg.tech)
        total += arb.laser_power_w + (arb.electrical_static_w
                                      if include_electrical else 0.0)
    return total


def router_energy_fraction(energy_by_category: Dict[str, float],
                           static_w: float, runtime_ps: int) -> float:
    """Figure 9: router dynamic energy as a fraction of total network
    energy (static power x runtime + all dynamic energy).

    1 W equals 1 pJ/ps, so static energy in pJ is W x ps.
    """
    router = energy_by_category.get("router", 0.0)
    total = sum(energy_by_category.values()) + static_w * runtime_ps
    if total <= 0:
        return 0.0
    return router / total
