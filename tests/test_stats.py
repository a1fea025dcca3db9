"""Tests for statistics collectors."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.stats import (
    EnergyAccount,
    LatencySample,
    NetworkStats,
    ThroughputMeter,
)


class TestLatencySample:
    def test_empty(self):
        s = LatencySample()
        assert len(s) == 0
        assert math.isnan(s.mean_ps)
        with pytest.raises(ValueError):
            s.min_ps
        with pytest.raises(ValueError):
            s.percentile_ps(50)

    def test_basic_moments(self):
        s = LatencySample()
        for v in [1000, 2000, 3000]:
            s.add(v)
        assert s.mean_ps == 2000
        assert s.mean_ns == 2.0
        assert s.min_ps == 1000
        assert s.max_ps == 3000

    def test_percentiles_nearest_rank(self):
        s = LatencySample()
        for v in range(1, 101):
            s.add(v)
        assert s.percentile_ps(50) == 50
        assert s.percentile_ps(99) == 99
        assert s.percentile_ps(100) == 100
        assert s.percentile_ps(0) == 1

    def test_percentile_bounds_checked(self):
        s = LatencySample()
        s.add(1)
        with pytest.raises(ValueError):
            s.percentile_ps(101)

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                    max_size=200))
    def test_mean_min_max_match_builtins(self, values):
        s = LatencySample()
        for v in values:
            s.add(v)
        assert s.min_ps == min(values)
        assert s.max_ps == max(values)
        assert s.mean_ps == pytest.approx(sum(values) / len(values))

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
                    max_size=100),
           st.floats(min_value=0.0, max_value=100.0))
    def test_percentile_is_a_recorded_value(self, values, pct):
        s = LatencySample()
        for v in values:
            s.add(v)
        assert s.percentile_ps(pct) in values

    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    max_size=100))
    def test_equality_ignores_insertion_order(self, values):
        s, reordered = LatencySample(), LatencySample()
        for v in values:
            s.add(v)
        for v in reversed(values):
            reordered.add(v)
        assert s == reordered  # insertion order is not state
        s.add(7)
        assert s != reordered


class TestThroughputMeter:
    def test_warmup_excluded(self):
        m = ThroughputMeter(warmup_ps=1000)
        m.record(500, 64)  # before warmup: ignored
        m.record(1500, 64)
        m.record(2000, 64)
        assert m.bytes == 128
        assert m.packets == 2

    def test_window_end_excludes_drain(self):
        m = ThroughputMeter(warmup_ps=0, window_end_ps=1000)
        m.record(500, 64)
        m.record(1500, 64)  # after the window: ignored
        assert m.bytes == 64

    def test_bytes_per_ns(self):
        m = ThroughputMeter()
        m.record(1000, 100)
        m.record(2000, 100)
        # 200 bytes over 2000 ps -> 100 bytes/ns
        assert m.bytes_per_ns() == pytest.approx(100.0)

    def test_empty_rate_is_zero(self):
        assert ThroughputMeter().bytes_per_ns() == 0.0


class TestEnergyAccount:
    def test_accumulates_by_category(self):
        e = EnergyAccount()
        e.add("optical", 10.0)
        e.add("optical", 5.0)
        e.add("router", 2.5)
        assert e.get("optical") == 15.0
        assert e.get("router") == 2.5
        assert e.get("missing") == 0.0
        assert e.total_pj == 17.5
        assert e.categories() == {"optical": 15.0, "router": 2.5}


class TestNetworkStats:
    def test_deliver_updates_everything(self):
        s = NetworkStats(warmup_ps=0)
        s.on_deliver(now_ps=2000, inject_ps=500, size_bytes=64)
        assert s.delivered_packets == 1
        assert s.latency.mean_ps == 1500

    def test_warmup_deliveries_not_in_latency(self):
        s = NetworkStats(warmup_ps=1000)
        s.on_deliver(now_ps=500, inject_ps=100, size_bytes=64)
        assert len(s.latency) == 0
        assert s.delivered_packets == 1

    def test_post_window_deliveries_not_in_latency(self):
        """Latency sampling shares the throughput meter's measurement
        window: drain-phase deliveries (after window_end_ps) count as
        delivered but must not bias mean/p99 latency (the saturated
        load points of Figure 6)."""
        s = NetworkStats(warmup_ps=0, window_end_ps=2000)
        s.on_deliver(now_ps=1500, inject_ps=500, size_bytes=64)   # in window
        s.on_deliver(now_ps=9000, inject_ps=500, size_bytes=64)   # drain
        assert s.delivered_packets == 2
        assert len(s.latency) == 1
        assert s.latency.mean_ps == 1000
        assert s.throughput.packets == 1

    def test_window_end_set_after_construction(self):
        """The sweep harness sets window_end_ps on the throughput meter
        after building the network; latency clamping must follow it."""
        s = NetworkStats(warmup_ps=100)
        s.throughput.window_end_ps = 2000
        s.on_deliver(now_ps=50, inject_ps=0, size_bytes=64)     # warmup
        s.on_deliver(now_ps=2000, inject_ps=0, size_bytes=64)   # boundary
        s.on_deliver(now_ps=2001, inject_ps=0, size_bytes=64)   # drain
        assert len(s.latency) == 1
        assert s.latency.mean_ps == 2000

    @pytest.mark.parametrize("now_ps", [50, 2001], ids=["warmup", "drain"])
    def test_energy_accrues_outside_the_window(self, now_ps):
        """A delivery in the warmup or the drain counts as delivered and
        adds its transmit energy, but no latency and no throughput."""
        s = NetworkStats(warmup_ps=100, window_end_ps=2000)
        s.on_deliver(now_ps, 0, 64, "optical", 76.8)
        assert s.delivered_packets == 1
        assert s.energy.categories() == {"optical": 76.8}
        assert len(s.latency) == 0
        assert s.throughput.packets == 0
        assert s.throughput.bytes == 0

    def test_energy_in_window_adds_to_every_meter(self):
        s = NetworkStats(warmup_ps=100, window_end_ps=2000)
        s.on_deliver(1500, 500, 64, "optical", 76.8)
        s.on_deliver(1600, 500, 64, "optical", 76.8)
        assert s.delivered_packets == 2
        assert (len(s.latency), s.latency.min_ps, s.latency.max_ps) == (
            2, 1000, 1100)
        assert s.throughput.bytes == 128
        assert s.energy.get("optical") == 76.8 + 76.8

    def test_no_energy_category_adds_no_energy(self):
        """The loopback form of the call: no category, no energy."""
        s = NetworkStats()
        s.on_deliver(now_ps=1000, inject_ps=0, size_bytes=64)
        assert s.delivered_packets == 1
        assert s.energy.categories() == {}
        assert s.latency.mean_ps == 1000
