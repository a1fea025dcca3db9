"""Unit and property tests for the HERMES hierarchical broadcast network.

Covers the model-specific contracts the shared matrices can't:

* cluster geometry (tiling, ring order, gateway election, dimension
  normalization on layouts the requested cluster shape doesn't divide);
* routing correctness across cluster boundaries — optical hop counts,
  gateway forwarding, and the router-energy accounting that goes with
  the O-E-O conversions;
* broadcast semantics — every cluster member physically sees every ring
  transmission (the ``set_snoop`` observer) and the snoop detection
  energy is charged;
* determinism across seeds and bit-identical pooled sweeps.
"""

import pytest

from repro.core.engine import Simulator
from repro.core.sweep import run_load_point
from repro.experiments.figure6 import run_figure6
from repro.macrochip.config import small_test_config
from repro.networks.base import Packet
from repro.networks.factory import build_network
from repro.networks.hermes import (HermesHierarchicalNetwork,
                                   normalize_cluster_dims)
from repro.workloads.synthetic import UniformTraffic

from .conftest import random_traffic, run_traced

CFG = small_test_config(4, 4)
WINDOW_NS = 80.0
SEED = 7


def _net(config=CFG, **kwargs):
    sim = Simulator()
    return HermesHierarchicalNetwork(config, sim, **kwargs), sim


# -- geometry ----------------------------------------------------------------

class TestGeometry:
    def test_clusters_tile_the_layout(self):
        net, _ = _net()
        assert net.num_clusters == 4
        assert net.cluster_size == 4
        seen = []
        for cid in range(net.num_clusters):
            members = net.cluster_members(cid)
            assert len(members) == 4
            assert all(net.cluster_of(s) == cid for s in members)
            seen.extend(members)
        assert sorted(seen) == list(range(CFG.num_sites))

    def test_top_left_cluster_and_gateway(self):
        net, _ = _net()
        # 4x4 layout, 2x2 clusters: cluster 0 is sites {0, 1, 4, 5} with
        # the lowest id as gateway, visited in boustrophedon ring order
        assert net.cluster_members(0) == (0, 1, 5, 4)
        assert net.gateway_of(0) == 0
        assert net.gateway_of(3) == 10

    def test_ring_propagation_positive_and_loops(self):
        net, _ = _net()
        n = CFG.num_sites
        for cid in range(net.num_clusters):
            members = net.cluster_members(cid)
            for a in members:
                for b in members:
                    if a != b:
                        assert net._ring_prop[a * n + b] > 0

    def test_dimension_normalization(self):
        layout3 = small_test_config(3, 3).layout
        assert normalize_cluster_dims(layout3, 2, 2) == (1, 1)
        assert normalize_cluster_dims(layout3, 3, 3) == (3, 3)
        layout8 = small_test_config(8, 8).layout
        assert normalize_cluster_dims(layout8, 2, 2) == (2, 2)
        assert normalize_cluster_dims(layout8, 3, 4) == (2, 4)

    def test_rejects_degenerate_cluster_request(self):
        with pytest.raises(ValueError):
            normalize_cluster_dims(CFG.layout, 0, 2)

    def test_single_cluster_layout_has_no_global_traffic(self):
        cfg = small_test_config(2, 2)
        net, sim = _net(cfg)
        net.set_sink(lambda p: None)
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    sim.at(0, net.inject, Packet(src, dst, 64))
        sim.run()
        assert net.num_clusters == 1
        assert net.intra_packets == 12
        assert net.inter_packets == 0
        assert net.stats.energy.get("router") == 0.0


# -- routing across cluster boundaries ---------------------------------------

class TestRouting:
    def _deliver_one(self, src, dst, config=CFG):
        net, sim = _net(config)
        delivered = []
        net.set_sink(delivered.append)
        p = Packet(src, dst, 64)
        sim.at(0, net.inject, p)
        sim.run()
        assert delivered == [p]
        return net, p

    def test_intra_cluster_is_one_optical_hop(self):
        net, p = self._deliver_one(0, 5)  # both in cluster 0
        assert p.hops == 1
        assert net.intra_packets == 1 and net.inter_packets == 0
        assert p.t_deliver > p.t_inject

    def test_cross_cluster_takes_three_legs(self):
        # site 1 (cluster 0, not gateway) -> site 11 (cluster 3, not
        # gateway): source ring, global channel, destination ring
        net, p = self._deliver_one(1, 11)
        assert p.hops == 3
        assert net.inter_packets == 1
        # two O-E-O conversions were charged
        router_pj = net.stats.energy.get("router")
        assert router_pj == pytest.approx(2 * 64 * 60.0)

    def test_gateway_to_gateway_is_direct_global_hop(self):
        net, p = self._deliver_one(0, 10)  # both are gateways
        assert p.hops == 1
        assert net.stats.energy.get("router") == 0.0

    def test_gateway_source_skips_first_ring_leg(self):
        net, p = self._deliver_one(0, 11)  # gateway -> non-gateway
        assert p.hops == 2
        router_pj = net.stats.energy.get("router")
        assert router_pj == pytest.approx(64 * 60.0)

    def test_cross_cluster_slower_than_intra(self):
        _, intra = self._deliver_one(1, 5)
        _, inter = self._deliver_one(1, 11)
        assert inter.t_deliver - inter.t_inject \
            > intra.t_deliver - intra.t_inject

    def test_every_pair_delivers_exactly_once(self):
        net, sim = _net()
        delivered = []
        net.set_sink(delivered.append)
        n = CFG.num_sites
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    sim.at(0, net.inject, Packet(src, dst, 64))
        sim.run()
        assert len(delivered) == n * (n - 1)
        assert net.stats.in_flight == 0


# -- broadcast semantics ------------------------------------------------------

class TestBroadcast:
    def test_ring_broadcast_reaches_all_cluster_members(self):
        net, sim = _net()
        net.set_sink(lambda p: None)
        seen = []
        net.set_snoop(lambda site, p: seen.append((site, p.pid)))
        p = Packet(1, 5, 64)  # intra-cluster in cluster 0
        sim.at(0, net.inject, p)
        sim.run()
        # every member of cluster 0 except the source saw the bits
        assert sorted(s for s, pid in seen if pid == p.pid) == [0, 4, 5]
        assert net.snoop_events == 3

    def test_cross_cluster_broadcasts_on_both_rings(self):
        net, sim = _net()
        net.set_sink(lambda p: None)
        seen = []
        net.set_snoop(lambda site, p: seen.append(site))
        sim.at(0, net.inject, Packet(1, 11, 64))  # cluster 0 -> cluster 3
        sim.run()
        # first leg snooped by cluster 0 minus the source, rebroadcast
        # leg by cluster 3 minus its gateway
        assert sorted(seen) == [0, 4, 5] + sorted(
            s for s in (11, 14, 15))

    def test_snoop_detection_energy_charged(self):
        net, sim = _net()
        net.set_sink(lambda p: None)
        sim.at(0, net.inject, Packet(1, 5, 64))
        sim.run()
        # 3 listeners x 512 bits x 65 fJ/bit = 99.84 pJ
        snoop_pj = net.stats.energy.get("snoop")
        assert snoop_pj == pytest.approx(3 * 64 * 8 * 65.0 / 1000.0)


# -- determinism -------------------------------------------------------------

def _point(load, warm):
    pattern = UniformTraffic(CFG.layout, seed=1)
    return run_load_point("hermes", CFG, pattern, load,
                          window_ns=WINDOW_NS, seed=SEED, warm=warm)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        assert _point(0.30, warm=False) == _point(0.30, warm=False)

    def test_different_seeds_differ(self):
        pattern = UniformTraffic(CFG.layout, seed=1)
        a = run_load_point("hermes", CFG, pattern, 0.30,
                           window_ns=WINDOW_NS, seed=1)
        b = run_load_point("hermes", CFG, pattern, 0.30,
                           window_ns=WINDOW_NS, seed=2)
        assert a != b

    def test_pooled_sweep_bit_identical_to_serial(self):
        kwargs = dict(window_ns=WINDOW_NS, patterns=["uniform"],
                      networks=["hermes"],
                      load_grids={"uniform": [0.05, 0.15, 0.30, 0.45]})
        serial = run_figure6(CFG, workers=1, **kwargs)
        pooled = run_figure6(CFG, workers=4, **kwargs)
        assert serial.curves == pooled.curves


# -- load behavior and invariants --------------------------------------------

class TestLoadBehavior:
    def test_latency_curve_saturates(self):
        pattern = UniformTraffic(CFG.layout, seed=1)
        points = [run_load_point("hermes", CFG, pattern, f,
                                 window_ns=150.0, seed=SEED)
                  for f in (0.05, 0.30, 0.70)]
        latencies = [p.mean_latency_ns for p in points]
        assert latencies == sorted(latencies)
        assert latencies[-1] > 1.5 * latencies[0]
        assert points[-1].saturated
        assert not points[0].saturated

    def test_invariants_on_random_drained_traffic(self):
        traffic = random_traffic(99, CFG.num_sites)
        net, monitor, packets = run_traced("hermes", CFG, traffic)
        monitor.verify(expect_drained=True)
        assert net.stats.in_flight == 0
        assert all(p.t_deliver >= p.t_inject >= 0 for p in packets)

    def test_cluster_kwargs_forwarded_by_factory(self):
        cfg = small_test_config(4, 4)
        net = build_network("hermes", cfg, Simulator(),
                            cluster_rows=4, cluster_cols=2)
        assert (net.cluster_rows, net.cluster_cols) == (4, 2)
        assert net.num_clusters == 2
