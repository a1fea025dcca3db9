"""Unit helpers for the macrochip simulator.

The simulator keeps all times as **integer picoseconds** so that event
ordering is exact and runs are bit-reproducible across platforms.  This
module centralizes the conversions between the units the paper speaks in
(nanoseconds, GB/s, 5 GHz cycles, dB, mW) and the integer time base.

Conventions
-----------
* time        -> int picoseconds (``ps``)
* bandwidth   -> float bytes per picosecond internally; public helpers
  accept GB/s (the paper's unit, 1 GB/s = 1e9 bytes/s)
* distance    -> float centimeters (waveguide routing scale)
* optical loss-> float dB; optical power -> float mW
"""

from __future__ import annotations

PS_PER_NS = 1000
PS_PER_US = 1000 * PS_PER_NS
PS_PER_MS = 1000 * PS_PER_US
PS_PER_S = 1000 * PS_PER_MS

#: Signal propagation velocity in SOI waveguides (paper section 2: ~0.3c,
#: quoted as 0.1 ns/cm latency).
WAVEGUIDE_DELAY_PS_PER_CM = 100


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds (rounded)."""
    return int(round(value * PS_PER_NS))


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds (rounded)."""
    return int(round(value * PS_PER_US))


def gbps_to_bytes_per_ps(gb_per_s: float) -> float:
    """Convert a bandwidth in GB/s (1e9 bytes/s) to bytes per picosecond."""
    return gb_per_s * 1e9 / PS_PER_S


def serialization_ps(size_bytes: int, gb_per_s: float) -> int:
    """Time (ps) to serialize ``size_bytes`` onto a ``gb_per_s`` channel.

    Always at least 1 ps so that a transmission never has zero duration,
    which keeps channel occupancy intervals well ordered.
    """
    if gb_per_s <= 0:
        raise ValueError("bandwidth must be positive, got %r" % gb_per_s)
    return max(1, int(round(size_bytes / gbps_to_bytes_per_ps(gb_per_s))))


def propagation_ps(distance_cm: float) -> int:
    """Optical propagation delay (ps) across ``distance_cm`` of waveguide."""
    return int(round(distance_cm * WAVEGUIDE_DELAY_PS_PER_CM))


def cycles_to_ps(cycles: float, clock_ghz: float) -> int:
    """Convert clock cycles at ``clock_ghz`` to integer picoseconds."""
    if clock_ghz <= 0:
        raise ValueError("clock must be positive, got %r" % clock_ghz)
    return int(round(cycles * 1000.0 / clock_ghz))


def db_to_factor(db: float) -> float:
    """Convert an optical loss in dB to a linear power multiplication factor.

    A loss of 10 dB means the laser must supply 10x the power, so
    ``db_to_factor(10.0) == 10.0``.
    """
    return 10.0 ** (db / 10.0)


def factor_to_db(factor: float) -> float:
    """Convert a linear power factor back to dB."""
    if factor <= 0:
        raise ValueError("power factor must be positive, got %r" % factor)
    import math

    return 10.0 * math.log10(factor)
