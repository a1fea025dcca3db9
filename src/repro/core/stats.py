"""Statistics collection for network and system simulations.

Provides:

* :class:`LatencySample` — streaming mean/min/max/percentile collector.
* :class:`ThroughputMeter` — bytes delivered inside a measurement window,
  with warmup exclusion.
* :class:`NetworkStats` — the bundle every network run produces: per-packet
  latency, delivered bytes, energy counters.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .units import to_ns


class LatencySample:
    """Streaming latency statistics (values in picoseconds).

    Observations are binned into an exact-value histogram: insertion is
    one O(1) bucket increment plus the running count and sum; min, max
    and nearest-rank percentiles are read off the *distinct* values —
    typically far fewer than the raw observation count — so exact
    statistics stay available without retaining every sample.
    """

    __slots__ = ("_counts", "_n", "_sum")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._n = 0
        self._sum = 0

    def add(self, value_ps: int) -> None:
        """Record one latency observation."""
        counts = self._counts
        counts[value_ps] = counts.get(value_ps, 0) + 1
        self._n += 1
        self._sum += value_ps

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        """Equal histograms; count, sum, min and max follow from it."""
        if not isinstance(other, LatencySample):
            return NotImplemented
        return self._counts == other._counts

    def histogram(self) -> List[List[int]]:
        """``[value_ps, count]`` pairs in ascending value order: the
        whole state, JSON-ready (:meth:`from_histogram` inverts it)."""
        return [[value, self._counts[value]] for value in sorted(self._counts)]

    @classmethod
    def from_histogram(cls, pairs: List[List[int]]) -> "LatencySample":
        """Rebuild a sample from :meth:`histogram` output.

        Raises ``ValueError`` on a pair no recorded sample produces: a
        count below one, or a value listed twice.
        """
        sample = cls()
        counts = sample._counts
        for value, count in pairs:
            if count < 1:
                raise ValueError("latency histogram pair [%r, %r]: count "
                                 "must be at least 1" % (value, count))
            if value in counts:
                raise ValueError("latency histogram pair [%r, %r]: value "
                                 "listed twice" % (value, count))
            counts[value] = count
            sample._n += count
            sample._sum += value * count
        return sample

    @property
    def count(self) -> int:
        return self._n

    @property
    def sum_ps(self) -> int:
        """Running sum of all observations, in picoseconds."""
        return self._sum

    @property
    def mean_ps(self) -> float:
        if not self._n:
            return float("nan")
        return self._sum / self._n

    @property
    def mean_ns(self) -> float:
        return self.mean_ps / 1000.0

    @property
    def min_ps(self) -> int:
        if not self._counts:
            raise ValueError("no samples recorded")
        return min(self._counts)

    @property
    def max_ps(self) -> int:
        if not self._counts:
            raise ValueError("no samples recorded")
        return max(self._counts)

    @property
    def max_ns(self) -> float:
        return self.max_ps / 1000.0

    def percentile_ps(self, pct: float) -> int:
        """Exact percentile (nearest-rank) of recorded latencies."""
        if not self._n:
            raise ValueError("no samples recorded")
        if not 0.0 <= pct <= 100.0:
            raise ValueError("percentile must be in [0, 100], got %r" % pct)
        rank = max(1, int(math.ceil(pct / 100.0 * self._n)))
        seen = 0
        for value in sorted(self._counts):
            seen += self._counts[value]
            if seen >= rank:
                return value
        return self.max_ps  # pragma: no cover - rank <= n guarantees a hit

    def percentile_ns(self, pct: float) -> float:
        return self.percentile_ps(pct) / 1000.0


class ThroughputMeter:
    """Measures delivered bytes inside ``[warmup_ps, window_end_ps]``.

    ``window_end_ps`` (optional) bounds the measurement window so the
    post-injection drain of a saturated run does not dilute the sustained
    rate; deliveries after it are ignored.
    """

    __slots__ = ("warmup_ps", "window_end_ps", "_bytes", "_first_ps",
                 "_last_ps", "_packets")

    def __init__(self, warmup_ps: int = 0,
                 window_end_ps: Optional[int] = None) -> None:
        self.warmup_ps = warmup_ps
        self.window_end_ps = window_end_ps
        self._bytes = 0
        self._packets = 0
        self._first_ps: Optional[int] = None
        self._last_ps: Optional[int] = None

    def record(self, time_ps: int, size_bytes: int) -> None:
        if time_ps < self.warmup_ps:
            return
        if self.window_end_ps is not None and time_ps > self.window_end_ps:
            return
        self._bytes += size_bytes
        self._packets += 1
        if self._first_ps is None:
            self._first_ps = time_ps
        self._last_ps = time_ps

    @property
    def bytes(self) -> int:
        return self._bytes

    @property
    def packets(self) -> int:
        return self._packets

    def bytes_per_ns(self, end_ps: Optional[int] = None) -> float:
        """Delivered bandwidth over the measurement interval, in bytes/ns
        (numerically equal to GB/s)."""
        if self._first_ps is None:
            return 0.0
        last = end_ps if end_ps is not None else self._last_ps
        assert last is not None
        span = max(1, last - self.warmup_ps)
        return self._bytes * 1000.0 / span


class EnergyAccount:
    """Accumulates dynamic energy by category, in picojoules."""

    __slots__ = ("_by_category",)

    def __init__(self) -> None:
        self._by_category: Dict[str, float] = {}

    def add(self, category: str, picojoules: float) -> None:
        self._by_category[category] = self._by_category.get(category, 0.0) + picojoules

    def get(self, category: str) -> float:
        return self._by_category.get(category, 0.0)

    @property
    def total_pj(self) -> float:
        return sum(self._by_category.values())

    def categories(self) -> Dict[str, float]:
        return dict(self._by_category)


class NetworkStats:
    """Everything a single network run records.

    Latency sampling and the throughput meter share one measurement
    window ``[warmup_ps, window_end_ps]`` (set ``window_end_ps`` through
    :attr:`throughput`): deliveries during the post-window drain count
    toward ``delivered_packets`` but are excluded from *both* meters, so
    a saturated run's drain can neither dilute the sustained rate nor
    inflate mean/p99 latency.
    """

    def __init__(self, warmup_ps: int = 0,
                 window_end_ps: Optional[int] = None) -> None:
        self.latency = LatencySample()
        self.throughput = ThroughputMeter(warmup_ps, window_end_ps)
        self.energy = EnergyAccount()
        self.injected_packets = 0
        self.delivered_packets = 0
        self.dropped_packets = 0

    @property
    def in_flight(self) -> int:
        """Packets accepted but not yet delivered (or dropped).  A fully
        drained run must end at zero; the invariant checkers
        (:mod:`repro.core.invariants`) cross-validate this against the
        recorded trace."""
        return self.injected_packets - self.delivered_packets - self.dropped_packets

    def on_inject(self) -> None:
        self.injected_packets += 1

    def on_deliver(self, now_ps: int, inject_ps: int, size_bytes: int,
                   energy_category: Optional[str] = None,
                   energy_pj: float = 0.0) -> None:
        """Record one delivery: its count, its latency and bytes if it
        lands inside the measurement window, and (when ``energy_category``
        is given) its transmit energy, which accrues inside the window or
        not.  A network calls this once per delivered packet."""
        self.delivered_packets += 1
        if energy_category is not None:
            # EnergyAccount.add, inlined
            by_category = self.energy._by_category
            by_category[energy_category] = (
                by_category.get(energy_category, 0.0) + energy_pj)
        meter = self.throughput
        if now_ps < meter.warmup_ps:
            return
        window_end = meter.window_end_ps
        if window_end is not None and now_ps > window_end:
            return
        # LatencySample.add, inlined
        latency = self.latency
        value = now_ps - inject_ps
        counts = latency._counts
        counts[value] = counts.get(value, 0) + 1
        latency._n += 1
        latency._sum += value
        # ThroughputMeter.record past its (just checked) window test
        meter._bytes += size_bytes
        meter._packets += 1
        if meter._first_ps is None:
            meter._first_ps = now_ps
        meter._last_ps = now_ps

    def summary(self) -> Dict[str, float]:
        """A plain-dict summary convenient for tables and tests."""
        return {
            "injected": self.injected_packets,
            "delivered": self.delivered_packets,
            "mean_latency_ns": self.latency.mean_ns if len(self.latency) else float("nan"),
            "p99_latency_ns": (
                self.latency.percentile_ns(99.0) if len(self.latency) else float("nan")
            ),
            "throughput_gbps": self.throughput.bytes_per_ns(),
            "energy_pj": self.energy.total_pj,
        }


def mean(values: List[float]) -> float:
    """Arithmetic mean; NaN for an empty list (explicit, non-raising)."""
    if not values:
        return float("nan")
    return sum(values) / len(values)


def format_ns(ps: int) -> str:
    """Human-readable time: '12.8 ns'."""
    return "%.1f ns" % to_ns(ps)
