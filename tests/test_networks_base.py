"""Tests for the shared network machinery: channels, injection, stats."""

import pytest

from repro.core.engine import Simulator
from repro.networks.base import Channel, InterSiteNetwork, Packet


class TestChannel:
    def test_serialization_and_propagation(self, sim):
        ch = Channel(sim, bandwidth_gb_per_s=5.0, propagation_ps=1000)
        arrivals = []
        p = Packet(0, 1, 64)
        t = ch.send(p, lambda pkt: arrivals.append(sim.now))
        # 64 B at 5 GB/s = 12.8 ns, + 1 ns flight
        assert t == 13800
        sim.run()
        assert arrivals == [13800]

    def test_back_to_back_serializes(self, sim):
        ch = Channel(sim, 5.0, 0)
        t1 = ch.send(Packet(0, 1, 64), lambda p: None)
        t2 = ch.send(Packet(0, 1, 64), lambda p: None)
        assert t1 == 12800
        assert t2 == 25600
        assert ch.busy_ps == 25600

    def test_busy_time_accumulates_over_many_sends(self, sim):
        ch = Channel(sim, 5.0, 100)
        for _ in range(5000):
            ch.send(Packet(0, 1, 64), lambda p: None)
        sim.run()
        assert ch.busy_ps == 5000 * 12800

    def test_reserve_blocks_timeline(self, sim):
        ch = Channel(sim, 5.0, 0)
        ch.reserve(1000, 500)
        assert ch.next_free == 1500
        t = ch.send(Packet(0, 1, 64), lambda p: None)
        assert t == 1500 + 12800

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            Channel(sim, 0.0, 0)
        with pytest.raises(ValueError):
            Channel(sim, 1.0, -1)


class _DirectNetwork(InterSiteNetwork):
    """Minimal concrete network: fixed 1 ns delivery."""

    name = "direct"

    def _route(self, packet):
        packet.hops = 1
        self.sim.schedule(1000, self._deliver, packet)


class TestInterSiteNetwork:
    def test_loopback_is_one_cycle(self, small_config, sim):
        net = _DirectNetwork(small_config, sim)
        delivered = []
        net.set_sink(delivered.append)
        net.inject(Packet(3, 3, 64))
        sim.run()
        assert len(delivered) == 1
        assert delivered[0].t_deliver == small_config.loopback_latency_ps

    def test_remote_goes_through_route(self, small_config, sim):
        net = _DirectNetwork(small_config, sim)
        delivered = []
        net.set_sink(delivered.append)
        net.inject(Packet(0, 5, 64))
        sim.run()
        assert delivered[0].t_deliver == 1000

    def test_stats_track_inject_and_deliver(self, small_config, sim):
        net = _DirectNetwork(small_config, sim)
        net.inject(Packet(0, 5, 64))
        net.inject(Packet(0, 0, 64))
        sim.run()
        assert net.stats.injected_packets == 2
        assert net.stats.delivered_packets == 2

    def test_remote_packet_charged_optical_energy(self, small_config, sim):
        net = _DirectNetwork(small_config, sim)
        net.inject(Packet(0, 5, 64))
        sim.run()
        # 64 B x 8 x 150 fJ/bit = 76.8 pJ
        assert net.stats.energy.get("optical") == pytest.approx(76.8)

    def test_loopback_not_charged_optical_energy(self, small_config, sim):
        net = _DirectNetwork(small_config, sim)
        net.inject(Packet(2, 2, 64))
        sim.run()
        assert net.stats.energy.get("optical") == 0.0

    def test_energy_accrues_for_off_site_deliveries_outside_window(
            self, small_config, sim):
        """A delivery past the measurement window counts as delivered
        and is charged its transmit energy, but adds no latency; a
        loopback delivery there is charged nothing."""
        assert small_config.loopback_latency_ps > 100
        net = _DirectNetwork(small_config, sim)
        net.stats.throughput.window_end_ps = 100
        net.inject(Packet(0, 5, 64))   # delivered at 1000 ps, in the drain
        net.inject(Packet(4, 4, 64))   # loopback, one cycle: past it too
        sim.run()
        assert net.stats.delivered_packets == 2
        assert len(net.stats.latency) == 0
        assert net.stats.throughput.packets == 0
        assert net.stats.energy.categories() == {
            "optical": pytest.approx(76.8)}

    def test_warmup_delivery_is_charged_energy(self, small_config, sim):
        net = _DirectNetwork(small_config, sim, warmup_ps=5000)
        net.inject(Packet(0, 5, 64))   # delivered at 1000 ps, in warmup
        sim.run()
        assert net.stats.delivered_packets == 1
        assert len(net.stats.latency) == 0
        assert net.stats.energy.get("optical") == pytest.approx(76.8)

    def test_on_delivered_callback_fires(self, small_config, sim):
        net = _DirectNetwork(small_config, sim)
        hits = []
        net.inject(Packet(0, 1, 64, on_delivered=lambda p: hits.append(p.pid)))
        sim.run()
        assert len(hits) == 1

    def test_packet_repr_and_validation(self):
        p = Packet(1, 2, 64)
        assert "1->2" in repr(p)
        assert p.t_inject == -1
