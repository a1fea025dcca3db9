"""Network-level optical power estimation (paper section 6.3, Table 5).

Static laser power is::

    P_laser = (laser feeds) x (base power per wavelength) x (loss factor)

where *laser feeds* is the number of independently sourced wavelength
channels in the network (a topology property, see
``repro.networks.complexity``), base power is 1 mW, and the loss factor
compensates the network's worst-case extra loss beyond the canonical link
budget (``repro.photonics.loss``).

Dynamic power is the per-bit transmitter + receiver energy of Table 1
applied to the bits actually moved, plus — for the limited point-to-point
network — the 60 pJ/byte electronic router energy of section 6.3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .technology import DEFAULT_TECHNOLOGY, Technology
from ..core.units import db_to_factor


#: Electronic router switching energy for the limited point-to-point
#: network (paper section 6.3, conservatively 60 pJ per byte).
ROUTER_ENERGY_PJ_PER_BYTE = 60.0


@dataclass(frozen=True)
class LaserPowerEstimate:
    """Static optical power for one network (one Table 5 row)."""

    network: str
    laser_feeds: int
    extra_loss_db: float
    base_power_mw_per_wavelength: float = 1.0

    @property
    def loss_factor(self) -> float:
        return db_to_factor(self.extra_loss_db)

    @property
    def laser_power_w(self) -> float:
        return (self.laser_feeds * self.base_power_mw_per_wavelength
                * self.loss_factor) / 1000.0


def laser_power_w(laser_feeds: int, extra_loss_db: float,
                  base_mw: float = 1.0) -> float:
    """Convenience wrapper: static laser power in watts."""
    return LaserPowerEstimate("", laser_feeds, extra_loss_db, base_mw).laser_power_w


def transmit_energy_pj(size_bytes: int,
                       tech: Technology = DEFAULT_TECHNOLOGY) -> float:
    """Dynamic energy (pJ) to move ``size_bytes`` across one optical link:
    modulator + receiver + amortized laser energy per bit.

    The modulation/detection terms follow the technology's signaling
    format (``nrz`` reproduces the paper's 35 + 65 fJ/bit exactly; PAM4
    pays its DAC/linear-receiver premium per bit)."""
    bits = size_bytes * 8
    per_bit_fj = (tech.modulation_energy_fj_per_bit
                  + tech.detection_energy_fj_per_bit
                  + tech.laser_energy_fj_per_bit)
    return bits * per_bit_fj / 1000.0


def router_energy_pj(size_bytes: int) -> float:
    """Dynamic energy (pJ) for one electronic router traversal."""
    return size_bytes * ROUTER_ENERGY_PJ_PER_BYTE
