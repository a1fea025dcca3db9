"""The cross-network invariant harness and its mutation smoke tests.

Part 1 sweeps seeds x loads x traffic patterns across the six Figure 7
network configurations (the five architectures plus the ALT variant)
and asserts every physical invariant holds — packet conservation, causal timestamps, channel non-overlap,
arbitration exclusivity.

Part 2 is the mutation smoke: for each checker class a deliberately
broken network model (dropped packets, double delivery, a channel that
ignores its busy timeline, a token-ring with the generation guard
removed, an overbooked circuit-engine pool) is run through the *same*
harness, proving the checkers actually fire on the bug family they claim
to catch.

Part 3 unit-tests the checkers over handcrafted traces, including the
back-to-back boundary cases that must NOT fire.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import random_traffic, run_traced

from repro.core import tracing
from repro.core.engine import Simulator
from repro.core.invariants import (InvariantViolation, check_causality,
                                   check_channel_overlap, check_conservation,
                                   check_grant_exclusivity, check_trace)
from repro.core.sweep import run_load_point
from repro.core.tracing import TraceEvent, TraceRecorder
from repro.macrochip.config import small_test_config
from repro.networks.base import Channel, Packet
from repro.networks.circuit_switched import CircuitSwitchedTorus
from repro.networks.factory import FIGURE7_NETWORKS, NETWORK_CLASSES
from repro.networks.point_to_point import PointToPointNetwork
from repro.networks.token_ring import TokenRingCrossbar
from repro.workloads.synthetic import make_pattern

CFG = small_test_config(4, 4)
ALL_NETWORKS = sorted(NETWORK_CLASSES)


# -- part 1: the property sweep ----------------------------------------------

@pytest.mark.parametrize("network_key", FIGURE7_NETWORKS)
@pytest.mark.parametrize("pattern_name", ["uniform", "neighbor"])
@pytest.mark.parametrize("load", [0.05, 0.35])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_load_point_invariants(network_key, pattern_name, load, seed):
    """run_load_point(check_invariants=True) passes on every Figure 7
    network configuration across >= 3 seeds x >= 2 loads x >= 2 traffic
    patterns."""
    pattern = make_pattern(pattern_name, CFG.layout)
    result = run_load_point(network_key, CFG, pattern, load,
                            window_ns=80.0, seed=seed,
                            check_invariants=True)
    assert result.injected_packets > 0


@pytest.mark.parametrize("network_key", ALL_NETWORKS)
@pytest.mark.parametrize("seed", [11, 22, 33])
def test_full_drain_invariants(network_key, seed):
    """With an unbounded drain, the strictest contract holds for every
    architecture: nothing remains in flight and every checker passes."""
    traffic = random_traffic(seed, CFG.num_sites)
    net, monitor, packets = run_traced(network_key, CFG, traffic)
    monitor.verify(expect_drained=True)
    assert net.stats.in_flight == 0
    assert all(p.t_deliver >= p.t_inject >= 0 for p in packets)


@settings(max_examples=20, deadline=None)
@given(traffic=st.lists(
    st.tuples(st.integers(min_value=0, max_value=25_000),
              st.integers(min_value=0, max_value=15),
              st.integers(min_value=0, max_value=15),
              st.sampled_from([8, 64, 72])),
    min_size=1, max_size=30),
    network_key=st.sampled_from(ALL_NETWORKS))
def test_invariants_hold_for_arbitrary_traffic(network_key, traffic):
    _, monitor, _ = run_traced(network_key, CFG, traffic)
    monitor.verify(expect_drained=True)


def test_sweep_kwarg_passthrough():
    """check_invariants rides through a load-point shard's kwargs to
    every point."""
    from repro.core.parallel import Shard, run_sharded

    pattern = make_pattern("uniform", CFG.layout)
    shards = [Shard(run_load_point, args=("point_to_point", CFG, pattern, f),
                    kwargs=dict(window_ns=60.0, check_invariants=True))
              for f in (0.05, 0.2)]
    run = run_sharded(shards)
    assert run.failed == 0
    assert len(run.results) == 2


def test_tracer_attach_after_lazy_channel_creation():
    """set_tracer() must reach channels created before the attachment."""
    sim = Simulator()
    net = PointToPointNetwork(CFG, sim)
    ch = net.channel(0, 1)  # created while untraced
    assert ch.tracer is None
    rec = tracing.attach(net)
    assert ch.tracer is rec
    sim.at(0, net.inject, Packet(0, 1, 64))
    sim.run()
    assert rec.by_type(tracing.TX_START)


def test_disabled_tracing_emits_nothing():
    sim = Simulator()
    net = PointToPointNetwork(CFG, sim)
    sim.at(0, net.inject, Packet(0, 1, 64))
    sim.run()
    assert net.tracer is None
    assert net.stats.delivered_packets == 1


# -- part 2: mutation smoke — each checker class catches its seeded bug ------

class DroppingP2P(PointToPointNetwork):
    """Mutant: silently loses every other packet (conservation bug)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._arrivals = 0

    def _deliver(self, packet):
        self._arrivals += 1
        if self._arrivals % 2 == 0:
            return  # dropped on the floor, no stats, no sink
        super()._deliver(packet)


class DuplicatingP2P(PointToPointNetwork):
    """Mutant: delivers every packet twice (exactly-once bug)."""

    def _deliver(self, packet):
        super()._deliver(packet)
        super()._deliver(packet)


class _OverlappingChannel(Channel):
    def send(self, packet, on_arrival):
        self.next_free = self.sim.now  # forget the in-progress transmission
        return super().send(packet, on_arrival)


class OverlappingChannelP2P(PointToPointNetwork):
    """Mutant: channels ignore their busy timeline (overlap bug)."""

    def _new_channel(self, bandwidth_gb_per_s, propagation_ps, name):
        ch = _OverlappingChannel(self.sim, bandwidth_gb_per_s,
                                 propagation_ps, name=name,
                                 tracer=self.tracer)
        self._owned_channels.append(ch)
        return ch


class DoubleGrantTokenRing(TokenRingCrossbar):
    """Mutant: the generation guard is defeated, so a superseded grant
    event still fires — the classic double-grant arbitration bug."""

    def _grant(self, dst, src_pos, generation):
        super()._grant(dst, src_pos, self._token(dst).generation)


class OverbookedCircuit(CircuitSwitchedTorus):
    """Mutant: starts a path setup for every packet immediately, ignoring
    the finite circuit-engine pool (exclusivity/capacity bug)."""

    def _route(self, packet):
        packet.hops = 1
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, tracing.GRANT, pid=packet.pid,
                             resource="engine:%d" % packet.src)
        self._begin_setup(packet)


def _checker_classes(monitor):
    return {v.checker for v in monitor.problems(expect_drained=True)}


def test_mutation_dropped_packets_are_caught():
    traffic = [(i * 500, 0, 1 + i % 3, 64) for i in range(6)]
    _, monitor, _ = run_traced(None, CFG, traffic, network_cls=DroppingP2P)
    assert "conservation" in _checker_classes(monitor)
    with pytest.raises(InvariantViolation, match="never delivered"):
        monitor.verify(expect_drained=True)


def test_mutation_double_delivery_is_caught():
    _, monitor, _ = run_traced(None, CFG, [(0, 2, 3, 64)],
                               network_cls=DuplicatingP2P)
    with pytest.raises(InvariantViolation, match="exactly-once"):
        monitor.verify(expect_drained=True)


def test_mutation_channel_overlap_is_caught():
    # three same-pair packets at once: a healthy channel serializes them,
    # the mutant transmits all three concurrently
    traffic = [(0, 0, 1, 64)] * 3
    _, monitor, _ = run_traced(None, CFG, traffic,
                               network_cls=OverlappingChannelP2P)
    assert "overlap" in _checker_classes(monitor)
    with pytest.raises(InvariantViolation, match="concurrently"):
        monitor.verify(expect_drained=True)


def test_mutation_double_granted_token_is_caught():
    """A request from a closer sender preempts an in-flight grant; with
    the generation guard defeated the stale grant fires anyway, so the
    token is held twice at once — the exclusivity checker must see it."""
    sim = Simulator()
    net = DoubleGrantTokenRing(CFG, sim, grant_overhead_ps=5000)
    from repro.core.invariants import InvariantMonitor

    monitor = InvariantMonitor(net)
    dst = 0
    far, near = net._snake_site[8], net._snake_site[2]
    sim.at(0, net.inject, Packet(far, dst, 64))
    sim.at(net.hop_ps, net.inject, Packet(near, dst, 64))
    sim.run()
    violations = monitor.problems(expect_drained=True)
    assert any(v.checker == "exclusivity" and "token:0" in v.message
               for v in violations)
    # control: the real network on the same traffic is clean
    sim2 = Simulator()
    net2 = TokenRingCrossbar(CFG, sim2, grant_overhead_ps=5000)
    monitor2 = InvariantMonitor(net2)
    sim2.at(0, net2.inject, Packet(far, dst, 64))
    sim2.at(net2.hop_ps, net2.inject, Packet(near, dst, 64))
    sim2.run()
    monitor2.verify(expect_drained=True)


def test_mutation_overbooked_engines_are_caught():
    traffic = [(0, 0, 5, 64)] * 5
    _, monitor, _ = run_traced(None, CFG, traffic,
                               network_cls=OverbookedCircuit,
                               network_kwargs={"engines_per_site": 2})
    violations = monitor.problems(expect_drained=True)
    assert any(v.checker == "exclusivity" and "engine:0" in v.message
               and "capacity 2" in v.message for v in violations)


# -- part 3: checker unit tests over handcrafted traces ----------------------

def _ev(seq, time_ps, etype, **kw):
    return TraceEvent(seq, time_ps, etype, **kw)


def test_conservation_flags_delivery_without_injection():
    events = [_ev(0, 10, tracing.DELIVER, pid=7)]
    problems = check_conservation(events)
    assert any("never injected" in v.message for v in problems)


def test_causality_flags_backwards_time():
    events = [_ev(0, 100, tracing.INJECT, pid=1, src=0, dst=1),
              _ev(1, 50, tracing.DELIVER, pid=1, src=0, dst=1)]
    problems = check_causality(events)
    assert any("backwards" in v.message for v in problems)


def test_causality_flags_instantaneous_cross_site_delivery():
    events = [_ev(0, 100, tracing.INJECT, pid=1, src=0, dst=1),
              _ev(1, 100, tracing.DELIVER, pid=1, src=0, dst=1)]
    problems = check_causality(events)
    assert any("not strictly after" in v.message for v in problems)


def test_causality_allows_same_time_loopback():
    # src == dst loopback may deliver one cycle later; equal-time records
    # within the stream are legal as long as time never decreases
    events = [_ev(0, 100, tracing.INJECT, pid=1, src=2, dst=2),
              _ev(1, 300, tracing.DELIVER, pid=1, src=2, dst=2)]
    assert check_causality(events) == []


def test_overlap_allows_back_to_back_transmissions():
    events = [_ev(0, 0, tracing.TX_START, pid=1, resource="ch",
                  start_ps=0, end_ps=100),
              _ev(1, 100, tracing.TX_START, pid=2, resource="ch",
                  start_ps=100, end_ps=200)]
    assert check_channel_overlap(events) == []
    overlapping = [events[0],
                   _ev(1, 99, tracing.TX_START, pid=2, resource="ch",
                       start_ps=99, end_ps=199)]
    assert check_channel_overlap(overlapping)


def test_exclusivity_back_to_back_grants_are_legal():
    events = [_ev(0, 0, tracing.GRANT, pid=1, resource="token:0",
                  start_ps=0, end_ps=50),
              _ev(1, 50, tracing.GRANT, pid=2, resource="token:0",
                  start_ps=50, end_ps=90)]
    assert check_grant_exclusivity(events) == []


def test_exclusivity_open_grants_respect_capacity():
    events = [_ev(0, 0, tracing.GRANT, pid=1, resource="engine:0"),
              _ev(1, 5, tracing.GRANT, pid=2, resource="engine:0"),
              _ev(2, 9, tracing.GRANT, pid=3, resource="engine:0"),
              _ev(3, 20, tracing.RELEASE, resource="engine:0")]
    assert check_grant_exclusivity(events, {"engine:0": 3}) == []
    problems = check_grant_exclusivity(events, {"engine:0": 2})
    assert any("capacity 2" in v.message for v in problems)


def test_exclusivity_flags_release_without_grant():
    events = [_ev(0, 10, tracing.RELEASE, resource="engine:0")]
    problems = check_grant_exclusivity(events)
    assert any("without an open grant" in v.message for v in problems)


def test_check_trace_clean_run_is_empty():
    events = [_ev(0, 0, tracing.INJECT, pid=1, src=0, dst=1, size_bytes=64),
              _ev(1, 0, tracing.TX_START, pid=1, resource="ch",
                  start_ps=0, end_ps=100),
              _ev(2, 100, tracing.TX_END, pid=1, resource="ch",
                  start_ps=0, end_ps=150),
              _ev(3, 150, tracing.DELIVER, pid=1, src=0, dst=1,
                  size_bytes=64)]
    assert check_trace(events) == []


def test_recorder_canonical_lines_renumber_pids():
    rec = TraceRecorder()
    rec.emit(0, tracing.INJECT, pid=900, src=0, dst=1)
    rec.emit(5, tracing.DELIVER, pid=900, src=0, dst=1)
    rec2 = TraceRecorder()
    rec2.emit(0, tracing.INJECT, pid=4242, src=0, dst=1)
    rec2.emit(5, tracing.DELIVER, pid=4242, src=0, dst=1)
    assert ([e.to_line() for e in rec.events]
            != [e.to_line() for e in rec2.events])
    assert rec.canonical_lines() == rec2.canonical_lines()
