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


_PATTERN_TABLE = {
    "uniform": UniformTraffic,
    "transpose": TransposeTraffic,
    "butterfly": ButterflyTraffic,
    "neighbor": NeighborTraffic,
}


def make_pattern(name: str, layout: MacrochipLayout = None,
                 seed: int = 0) -> TrafficPattern:
    """Build a pattern by its lowercase key ('uniform', 'transpose',
    'butterfly', 'neighbor')."""
    try:
        cls = _PATTERN_TABLE[name]
    except KeyError:
        raise KeyError("unknown pattern %r; choose one of %s"
                       % (name, ", ".join(sorted(_PATTERN_TABLE)))) from None
    return cls(layout, seed)


def pattern_names() -> List[str]:
    return list(_PATTERN_TABLE)
