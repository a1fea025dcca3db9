"""Synthetic traffic patterns (paper Table 3).

Each pattern maps a source site to a destination site, possibly randomly:

* **uniform** — a fresh random destination for every packet;
* **transpose** — the first half of the site-id bits swaps with the second
  half (i.e. (row, col) -> (col, row));
* **butterfly** — the LSB and MSB of the site id swap (half of all sites
  map to themselves, which the paper serves over the single-cycle
  intra-site loopback);
* **neighbor** — a random pick among the four grid neighbors (torus wrap,
  so every site always has four).

Patterns are objects (not bare functions) so they carry their paper name,
their own RNG for reproducibility, and the bit-twiddling helpers tests can
probe directly.
"""

from __future__ import annotations

import copy
import math
import random
from typing import Any, List

from ..photonics.layout import MacrochipLayout


class TrafficPattern:
    """Base class: a destination and an inter-arrival gap per packet.

    Destinations come from :meth:`destinations`; gaps from the two-step
    hook :meth:`unit_gaps` (load-independent draws) and
    :meth:`scale_gaps` (those draws at one load).  The split lets the
    sweep's draw bank serve every pattern and every load point from one
    stored stream per site.
    """

    #: name used in figures/tables
    name = "abstract"
    #: paper's Figure 6 sweeps stop at different loads per pattern
    sweep_max_fraction = 1.0

    def __init__(self, layout: MacrochipLayout = None, seed: int = 0) -> None:
        self.layout = layout or MacrochipLayout()
        if self.layout.num_sites < 2:
            # every pattern sends to some *other* site (butterfly has no
            # MSB to swap, uniform no range to draw from)
            raise ValueError("traffic patterns need at least 2 sites, got "
                             "a %dx%d layout"
                             % (self.layout.rows, self.layout.cols))
        self.rng = random.Random(seed)

    def destination(self, src: int) -> int:
        raise NotImplementedError

    def destinations(self, src: int, count: int) -> List[int]:
        """``count`` consecutive destination draws for ``src``.

        Guaranteed to consume the pattern's RNG exactly as ``count``
        sequential :meth:`destination` calls would, so batched and
        unbatched callers see the same per-site sequences (the sweep
        harness relies on this to stay bit-identical while prefetching
        draws in blocks).  Subclasses override for speed, never for
        different draws.
        """
        return [self.destination(src) for _ in range(count)]

    def unit_gaps(self, rng: random.Random, count: int) -> List[Any]:
        """``count`` load-independent inter-arrival draws from ``rng``.

        The sweep's draw bank stores these once per site and rescales
        them for every load point with :meth:`scale_gaps`, so they must
        not depend on the load, and must consume ``rng`` sequentially
        (any chunking of one stream yields the same draws).  The default
        is the unit exponential ``-log(1 - random())`` that CPython's
        ``expovariate`` divides by its rate.
        """
        log = math.log
        rand = rng.random
        return [-log(1.0 - rand()) for _ in range(count)]

    def scale_gaps(self, units: List[Any], mean_gap_ps: int) -> List[int]:
        """Integer inter-arrival gaps (ps, >= 1) at ``mean_gap_ps`` from
        :meth:`unit_gaps` draws.  The default is the Poisson process
        ``max(1, int(rng.expovariate(1.0 / mean_gap_ps)))``, float for
        float: the same division on the same unit draw."""
        lambd = 1.0 / mean_gap_ps
        gaps: List[int] = []
        append = gaps.append
        for x in units:
            g = int(x / lambd)
            append(g if g >= 1 else 1)
        return gaps

    def draw_signature(self) -> tuple:
        """Hashable knobs that change the pattern's draw streams.

        The sweep's interned draw bank caches destination and unit-gap
        draws keyed by (pattern class, layout, signature); a
        parametrized pattern MUST include here every constructor knob
        that alters its draws, or two differently-configured instances
        would share cached streams.
        Parameter-free patterns return ``()``.
        """
        return ()

    def reseed(self, seed: int) -> None:
        self.rng.seed(seed)

    def split(self, seed: int) -> "TrafficPattern":
        """A shallow copy with an independent RNG stream.

        The sweep harness gives every injection site its own split so a
        site's destination draws depend only on (seed, site) — never on
        how other sites' events interleave.  Sharing ``layout`` (and any
        other derived fields) is safe: patterns only read them.
        """
        clone = copy.copy(self)
        clone.rng = random.Random(seed)
        return clone


class UniformTraffic(TrafficPattern):
    """Uniform random destination over all *other* sites."""

    name = "Uniform"
    sweep_max_fraction = 1.0

    def destination(self, src: int) -> int:
        n = self.layout.num_sites
        dst = self.rng.randrange(n - 1)
        return dst if dst < src else dst + 1

    def destinations(self, src: int, count: int) -> List[int]:
        n1 = self.layout.num_sites - 1
        randrange = self.rng.randrange
        return [d if d < src else d + 1
                for d in [randrange(n1) for _ in range(count)]]


class TransposeTraffic(TrafficPattern):
    """Swap the high and low halves of the site-id bits: (r, c) -> (c, r)."""

    name = "Transpose"
    sweep_max_fraction = 0.06

    def __init__(self, layout: MacrochipLayout = None, seed: int = 0) -> None:
        super().__init__(layout, seed)
        if self.layout.rows != self.layout.cols:
            # site_at() wraps modulo the grid, so a non-square layout
            # would silently fold (c, r) back onto the die instead of
            # transposing — a wrong answer, not a pattern
            raise ValueError(
                "transpose is only defined on square macrochips, got %dx%d"
                % (self.layout.rows, self.layout.cols))

    def destination(self, src: int) -> int:
        row, col = self.layout.coords(src)
        return self.layout.site_at(col, row)

    def destinations(self, src: int, count: int) -> List[int]:
        return [self.destination(src)] * count  # deterministic, no RNG


class ButterflyTraffic(TrafficPattern):
    """Swap the LSB and MSB of the site id."""

    name = "Butterfly"
    sweep_max_fraction = 0.06

    def __init__(self, layout: MacrochipLayout = None, seed: int = 0) -> None:
        super().__init__(layout, seed)
        n = self.layout.num_sites
        if n & (n - 1):
            raise ValueError("butterfly needs a power-of-two site count")
        self._msb_shift = n.bit_length() - 2

    def destination(self, src: int) -> int:
        lsb = src & 1
        msb = (src >> self._msb_shift) & 1
        if lsb == msb:
            return src
        flipped = src ^ 1 ^ (1 << self._msb_shift)
        return flipped

    def destinations(self, src: int, count: int) -> List[int]:
        return [self.destination(src)] * count  # deterministic, no RNG


#: the four torus steps, in the order NeighborTraffic has always drawn
#: them — random.Random.choice consumes one _randbelow(4) per draw either
#: way, so batched draws stay stream-identical
_NEIGHBOR_STEPS = ((0, -1), (0, 1), (-1, 0), (1, 0))


class NeighborTraffic(TrafficPattern):
    """Random pick among the four torus-wrapped grid neighbors."""

    name = "Nearest-Neighbor"
    sweep_max_fraction = 0.25

    def destination(self, src: int) -> int:
        row, col = self.layout.coords(src)
        dr, dc = self.rng.choice(_NEIGHBOR_STEPS)
        return self.layout.site_at(row + dr, col + dc)

    def destinations(self, src: int, count: int) -> List[int]:
        layout = self.layout
        row, col = layout.coords(src)
        choice = self.rng.choice
        site_at = layout.site_at
        return [site_at(row + dr, col + dc)
                for dr, dc in [choice(_NEIGHBOR_STEPS)
                               for _ in range(count)]]


class BurstyTraffic(UniformTraffic):
    """Markov on/off (burst/idle) arrivals with uniform destinations.

    Time is shaped, not destinations: while ON, packets arrive
    ``burstiness`` times faster than the offered mean; after each packet
    the source leaves the burst with probability ``1 / burst_length``
    and then sits out an exponential OFF period before the next burst.
    The OFF mean is chosen so the *long-run* mean gap stays exactly the
    offered ``mean_gap_ps`` — the same average load as uniform Poisson,
    delivered in clumps — so latency-vs-load curves stay comparable:

        mean_on  = mean_gap / burstiness
        mean_off = (mean_gap - mean_on) * burst_length

    The process is a renewal chain (each draw is ON-gap plus, with
    probability ``1/burst_length``, one OFF period) — memoryless across
    draws, so gap streams are block-size independent and a pure function
    of (seed, site) like every other pattern's.  The exit test does not
    depend on the load, so :meth:`unit_gaps` stores it with the draws and
    the sweep's draw bank serves this pattern too.
    """

    name = "Bursty"
    sweep_max_fraction = 1.0

    def __init__(self, layout: MacrochipLayout = None, seed: int = 0,
                 burstiness: float = 4.0, burst_length: int = 16) -> None:
        super().__init__(layout, seed)
        if burstiness < 1.0:
            raise ValueError("burstiness must be >= 1 (1 = plain Poisson)")
        if burst_length < 1:
            raise ValueError("burst length must be >= 1 packet")
        self.burstiness = float(burstiness)
        self.burst_length = int(burst_length)

    def draw_signature(self) -> tuple:
        return (self.burstiness, self.burst_length)

    def unit_gaps(self, rng: random.Random, count: int) -> List[Any]:
        # per packet (x_on, x_off or None): the ON draw, the burst-exit
        # test and, only when the burst ends, the OFF draw.  The exit
        # probability does not depend on the load, so neither does this
        log = math.log
        rand = rng.random
        exit_p = 1.0 / self.burst_length
        return [(-log(1.0 - rand()),
                 -log(1.0 - rand()) if rand() < exit_p else None)
                for _ in range(count)]

    def scale_gaps(self, units: List[Any], mean_gap_ps: int) -> List[int]:
        mean_on = max(1.0, mean_gap_ps / self.burstiness)
        mean_off = max(1.0, (mean_gap_ps - mean_on) * self.burst_length)
        lambd_on = 1.0 / mean_on
        lambd_off = 1.0 / mean_off
        gaps: List[int] = []
        append = gaps.append
        for x_on, x_off in units:
            gap = int(x_on / lambd_on)
            if x_off is not None:  # burst ends: idle before the next one
                gap += int(x_off / lambd_off)
            append(gap if gap >= 1 else 1)
        return gaps


class HotspotTraffic(TrafficPattern):
    """Uniform traffic with a configurable fraction aimed at hot sites.

    With probability ``hotspot_fraction`` a packet targets one of the
    ``hotspots`` (site 0 by default — a corner, the worst case for the
    distance-sensitive networks); otherwise it falls back to uniform
    over all other sites.  A source that *is* the drawn hotspot falls
    back to uniform too (patterns here never force self-traffic).
    """

    name = "Hotspot"
    sweep_max_fraction = 0.10

    def __init__(self, layout: MacrochipLayout = None, seed: int = 0,
                 hotspot_fraction: float = 0.2,
                 hotspots: List[int] = None) -> None:
        super().__init__(layout, seed)
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ValueError("hotspot fraction must be in [0, 1]")
        self.hotspot_fraction = float(hotspot_fraction)
        self.hotspots = list(hotspots) if hotspots else [0]
        for h in self.hotspots:
            self.layout._check_site(h)

    def draw_signature(self) -> tuple:
        return (self.hotspot_fraction, tuple(self.hotspots))

    def destination(self, src: int) -> int:
        rng = self.rng
        if rng.random() < self.hotspot_fraction:
            hot = (self.hotspots[0] if len(self.hotspots) == 1
                   else self.hotspots[rng.randrange(len(self.hotspots))])
            if hot != src:
                return hot
        n1 = self.layout.num_sites - 1
        dst = rng.randrange(n1)
        return dst if dst < src else dst + 1


class AdversarialTraffic(TrafficPattern):
    """Tornado permutation: every site sends to its torus antipode.

    ``(r, c) -> (r + rows//2, c + cols//2)`` maximizes torus distance
    for every single packet, gives each destination exactly one sender
    (no statistical spreading for WDM fan-out to exploit), and parks
    every circuit/token at the far side of the die — the adversarial
    case for all the distance- and arbitration-limited networks.
    Deterministic; consumes no RNG.
    """

    name = "Adversarial-Permutation"
    sweep_max_fraction = 0.50

    def destination(self, src: int) -> int:
        row, col = self.layout.coords(src)
        return self.layout.site_at(row + self.layout.rows // 2,
                                   col + self.layout.cols // 2)

    def destinations(self, src: int, count: int) -> List[int]:
        return [self.destination(src)] * count  # deterministic, no RNG


#: Figure 6's four panels, in the paper's order.
FIGURE6_PATTERNS = [UniformTraffic, TransposeTraffic, NeighborTraffic,
                    ButterflyTraffic]

#: heavy-traffic extensions (the scaling study's stress patterns)
HEAVY_PATTERNS = [BurstyTraffic, HotspotTraffic, AdversarialTraffic]


_PATTERN_TABLE = {
    "uniform": UniformTraffic,
    "transpose": TransposeTraffic,
    "butterfly": ButterflyTraffic,
    "neighbor": NeighborTraffic,
    "bursty": BurstyTraffic,
    "hotspot": HotspotTraffic,
    "adversarial": AdversarialTraffic,
}


def make_pattern(name: str, layout: MacrochipLayout = None,
                 seed: int = 0) -> TrafficPattern:
    """Build a pattern by its lowercase key ('uniform', 'transpose',
    'butterfly', 'neighbor', 'bursty', 'hotspot', 'adversarial')."""
    try:
        cls = _PATTERN_TABLE[name]
    except KeyError:
        raise KeyError("unknown pattern %r; choose one of %s"
                       % (name, ", ".join(sorted(_PATTERN_TABLE)))) from None
    return cls(layout, seed)


def pattern_names() -> List[str]:
    return ["uniform", "transpose", "butterfly", "neighbor",
            "bursty", "hotspot", "adversarial"]

