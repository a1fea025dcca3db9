"""Circuit-switched optical torus — the Petracca/Shacham adaptation
(section 4.5).

An 8x8 optical torus overlays the macrochip.  The non-blocking switching
fabric places four 4x4 switch points on every inter-site crossing
(section 4.5: the worst-case path crosses 31 switch points, ~15 dB at the
aggressive 0.5 dB/switch assumption), controlled by a *low-bandwidth
optical control network* — the paper's substitution for the original
electronic path-setup mesh, which would have required an active
substrate.  To move a packet:

1. a circuit engine at the source launches a path-setup message that is
   received, decoded, and re-emitted at every switch point along the XY
   torus route (per-hop O-E conversion + control processing dominates);
2. the destination returns an optical acknowledgment at light speed over
   the now-reserved circuit;
3. the source streams the packet over the 320 GB/s circuit;
4. the circuit is torn down and the engine freed.

Each site has a handful of circuit engines (the "additional routers
required for non-blocking operation" of section 4.5); for 64-byte
cache-line transfers the multi-hop setup round trip, not the 0.2 ns of
data, is the service time — which is why this network has both the
highest base latency and the lowest saturation bandwidth (~2.5% of peak)
in Figure 6, and why the paper finds path setup "causes significant
delays for small transfers such as cache lines".
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from .base import Channel, InterSiteNetwork, Packet
from ..core import tracing
from ..core.engine import Simulator
from ..core.interning import intern_memo
from ..core.units import propagation_ps, serialization_ps
from ..core.vectorized import (KernelOutput, injection_order,
                               register_kernel)
from ..macrochip.config import MacrochipConfig


#: switch points per inter-site crossing in the non-blocking fabric; with
#: the -1 for the shared destination ingress this yields the paper's
#: 31-hop worst case on the 8x8 torus (4 * (4+4) - 1).
SWITCH_POINTS_PER_CROSSING = 4


class CircuitSwitchedTorus(InterSiteNetwork):
    """Optical circuit-switched torus with optical control-path setup."""

    name = "Circuit-Switched"
    switching_class = "circuit"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0,
                 control_hop_cycles: int = 20,
                 engines_per_site: int = 8,
                 teardown_cycles: int = 2) -> None:
        super().__init__(config, sim, warmup_ps)
        self.data_gb_per_s = (config.transmitters_per_site
                              * config.wavelength_gb_per_s)
        #: O-E conversion + decode + switch actuation at one switch point
        self.control_hop_ps = config.cycles_ps(control_hop_cycles)
        self.teardown_ps = config.cycles_ps(teardown_cycles)
        #: optical flight time between adjacent switch points
        self.hop_prop_ps = propagation_ps(
            config.layout.site_pitch_cm / SWITCH_POINTS_PER_CROSSING)
        self.engines_per_site = engines_per_site
        n = config.num_sites
        self._num_sites = n
        self._engines_free: List[int] = [engines_per_site] * n
        self._engine_queue: List[Deque[Packet]] = [deque() for _ in range(n)]
        self._rx_port_table: List[Optional[Channel]] = [None] * n
        # lazily filled per-pair tables: setup+ack round trip consulted
        # once per circuit, data flight time once per transfer.  Both
        # hold pure per-pair values (geometry + fixed per-hop costs), so
        # the memos are interned — keyed by everything the values depend
        # on — and fills accumulate across instances and load points.
        self._setup_ack_table: List[int] = intern_memo(
            ("cs-setup-ack", config.layout, self.control_hop_ps,
             self.hop_prop_ps), lambda: [-1] * (n * n))
        self._flight_table: List[int] = intern_memo(
            ("cs-flight", config.layout), lambda: [-1] * (n * n))
        #: circuits established (setup count), for tests/diagnostics
        self.circuits_established = 0

    # -- path geometry -----------------------------------------------------

    def switch_hops(self, src: int, dst: int) -> int:
        """Switch points a circuit traverses: four per site crossing on
        the XY torus route, sharing the destination ingress point."""
        hr, hc = self.config.layout.torus_hop_counts(src, dst)
        return max(1, SWITCH_POINTS_PER_CROSSING * (hr + hc) - 1)

    def setup_latency_ps(self, src: int, dst: int) -> int:
        """One-way path-setup time: control processing at each switch
        point plus the flight time between them."""
        hops = self.switch_hops(src, dst)
        return hops * (self.control_hop_ps + self.hop_prop_ps)

    def ack_latency_ps(self, src: int, dst: int) -> int:
        """The acknowledgment returns on the established circuit at light
        speed (no per-hop processing)."""
        return propagation_ps(self.config.layout.torus_distance_cm(src, dst))

    def _rx_port(self, dst: int) -> Channel:
        port = self._rx_port_table[dst]
        if port is None:
            port = self._new_channel(self.data_gb_per_s, 0,
                                     name="cs-rx[%d]" % dst)
            self._rx_port_table[dst] = port
        return port

    def invariant_capacities(self) -> Dict[str, int]:
        return {"engine:%d" % s: self.engines_per_site
                for s in range(self.config.num_sites)}

    # -- routing -----------------------------------------------------------

    def _route(self, packet: Packet) -> None:
        packet.hops = 1
        src = packet.src
        if self._engines_free[src] > 0:
            self._engines_free[src] -= 1
            if self.tracer is not None:
                self.tracer.emit(self.sim.now, tracing.GRANT, pid=packet.pid,
                                 resource="engine:%d" % src)
            self._begin_setup(packet)
        else:
            if self.tracer is not None:
                self.tracer.emit(self.sim.now, tracing.ENQUEUE,
                                 pid=packet.pid, resource="engine:%d" % src)
            self._engine_queue[src].append(packet)

    def _begin_setup(self, packet: Packet) -> None:
        idx = packet.src * self._num_sites + packet.dst
        rtt = self._setup_ack_table[idx]
        if rtt < 0:
            rtt = (self.setup_latency_ps(packet.src, packet.dst)
                   + self.ack_latency_ps(packet.src, packet.dst))
            self._setup_ack_table[idx] = rtt
        self.sim.schedule(rtt, self._circuit_ready, packet)

    def _circuit_ready(self, packet: Packet) -> None:
        """Ack received: stream the data over the circuit."""
        self.circuits_established += 1
        port = self._rx_port_table[packet.dst]
        if port is None:
            port = self._rx_port(packet.dst)
        # Channel.serialization_ps, its memo read inline
        tx = port._tx_cache.get(packet.size_bytes)
        if tx is None:
            tx = port.serialization_ps(packet.size_bytes)
        idx = packet.src * self._num_sites + packet.dst
        flight = self._flight_table[idx]
        if flight < 0:
            flight = propagation_ps(
                self.config.layout.torus_distance_cm(packet.src, packet.dst))
            self._flight_table[idx] = flight
        now = self.sim.now
        start = port.next_free - flight
        if start < now:
            start = now
        done_at_src = start + tx
        port.next_free = done_at_src + flight
        port.busy_ps += tx
        if self.tracer is not None:
            # destination ingress occupancy, in arrival-side time (what
            # port.next_free serializes): the interval the last-hop
            # receiver is busy with this packet's bits
            self.tracer.emit(now, tracing.GRANT, pid=packet.pid,
                             src=packet.src, dst=packet.dst,
                             resource=port.name,
                             start_ps=start + flight,
                             end_ps=done_at_src + flight)
        self.sim.at(done_at_src + flight, self._deliver, packet)
        # the engine is freed once data has left and teardown is issued
        self.sim.at(done_at_src + self.teardown_ps,
                    self._release_engine, packet.src)

    def _release_engine(self, src: int) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, tracing.RELEASE,
                             resource="engine:%d" % src)
        queue = self._engine_queue[src]
        if queue:
            packet = queue.popleft()
            if self.tracer is not None:
                self.tracer.emit(self.sim.now, tracing.GRANT, pid=packet.pid,
                                 resource="engine:%d" % src)
            self._begin_setup(packet)
        else:
            self._engines_free[src] += 1


@register_kernel("circuit_switched")
def _vectorized_circuit_switched(net: CircuitSwitchedTorus,
                                 plan) -> KernelOutput:
    """Replay kernel: engine pools + rx-port timelines over flat state.

    Engine contention (a site's fixed pool of circuit engines, with a
    FIFO overflow queue drained at teardown) couples packets through
    dispatch order, so the load point replays the engine's ``(time,
    seq)`` dispatch order exactly over flat integer state.  Like the
    two-phase kernel, the replay is *calendar-segmented* rather than
    heap-driven: a circuit-ready event trails its request by at least
    the smallest setup+ack round trip (one control hop plus its flight)
    and an engine release trails the ready event by at least the data
    serialization plus teardown, so with buckets no wider than the
    smaller of those two bounds no event ever lands in the bucket being
    dispatched — append + one C-level sort per bucket replaces heap
    churn.  Injections come from the
    :func:`~repro.core.vectorized.injection_order` stream, merged with
    each bucket on ``(time, seq)``.  Delivers — terminal in a sweep —
    are batched into arrays.  The per-pair setup/ack and flight costs
    fill the *same* interned memos the scalar instances share, so the
    fills accumulate across backends too.
    """
    n = net._num_sites
    pps = plan.pps
    horizon = plan.horizon_ps
    loop_ps = net.config.loopback_latency_ps
    teardown = net.teardown_ps
    tx = serialization_ps(plan.packet_bytes, net.data_gb_per_s)
    setup_ack = net._setup_ack_table
    flights = net._flight_table
    engines_free = [net.engines_per_site] * n
    engine_queue: List[Deque] = [deque() for _ in range(n)]
    port_next_free = [0] * n

    # every dynamically scheduled event trails its scheduler by at least
    # W, so an event never lands in the bucket currently dispatching
    W = max(1, min(tx + teardown, net.control_hop_ps + net.hop_prop_ps))
    last_bucket = horizon // W
    buckets: List[Optional[list]] = [None] * (last_bucket + 1)
    order = injection_order(plan)
    injected = dispatched = order.injected
    pending = order.pending
    inj_seq = order.site_seq
    seq = n  # the first free seq (see InjectionOrder.site_seq)
    # the stream as sites, each read in index order by its cursor; a
    # sentinel site n injects once, past every bucket
    S = (order.j // pps).tolist() + [n]
    del order  # frees the stream arrays: the walk reads only S
    times = plan.site_times + [[(last_bucket + 1) * W]]
    dsts = plan.site_dsts
    cursor = [0] * (n + 1)
    k = 0
    site = S[0]
    next_t = times[site][0]
    deliver_t = []
    deliver_i = []
    for bucket in range(last_bucket + 1):
        ev = buckets[bucket]
        if ev is None:
            ev = []
        else:
            buckets[bucket] = None
            ev.sort()
        bucket_end = (bucket + 1) * W
        i = 0
        m = len(ev)
        while True:
            if i < m:
                e = ev[i]
                take_inj = next_t < e[0] or (
                    next_t == e[0] and inj_seq[site] < e[1])
            elif next_t < bucket_end:
                take_inj = True
            else:
                break
            if take_inj:
                t = next_t
                idx = cursor[site]
                cursor[site] = idx + 1
                dst = dsts[site][idx]
                if dst == site:
                    deliver_t.append(t + loop_ps)
                    deliver_i.append(t)
                    seq += 1
                elif engines_free[site] > 0:
                    engines_free[site] -= 1
                    pair = site * n + dst
                    rtt = setup_ack[pair]
                    if rtt < 0:
                        rtt = (net.setup_latency_ps(site, dst)
                               + net.ack_latency_ps(site, dst))
                        setup_ack[pair] = rtt
                    tr = t + rtt
                    if tr > horizon:
                        pending = True
                    else:
                        lst = buckets[tr // W]
                        if lst is None:
                            buckets[tr // W] = [(tr, seq, 1, site, dst, t)]
                        else:
                            lst.append((tr, seq, 1, site, dst, t))
                    seq += 1
                else:
                    engine_queue[site].append((dst, t))
                if idx + 1 < pps:  # the site's next injection
                    inj_seq[site] = seq
                    seq += 1
                k += 1
                site = S[k]
                next_t = times[site][cursor[site]]
                continue
            t, _, kind, src, dst, c = e
            i += 1
            dispatched += 1
            if kind == 1:
                pair = src * n + dst
                flight = flights[pair]
                if flight < 0:
                    flight = propagation_ps(
                        net.config.layout.torus_distance_cm(src, dst))
                    flights[pair] = flight
                floor = port_next_free[dst] - flight
                start = t if t >= floor else floor
                done_at_src = start + tx
                port_next_free[dst] = done_at_src + flight
                deliver_t.append(done_at_src + flight)
                deliver_i.append(c)
                seq += 1
                tr = done_at_src + teardown
                if tr > horizon:
                    pending = True
                else:
                    lst = buckets[tr // W]
                    if lst is None:
                        buckets[tr // W] = [(tr, seq, 2, src, 0, 0)]
                    else:
                        lst.append((tr, seq, 2, src, 0, 0))
                seq += 1
            else:
                queue = engine_queue[src]
                if queue:
                    qdst, t_inj = queue.popleft()
                    pair = src * n + qdst
                    rtt = setup_ack[pair]
                    if rtt < 0:
                        rtt = (net.setup_latency_ps(src, qdst)
                               + net.ack_latency_ps(src, qdst))
                        setup_ack[pair] = rtt
                    tr = t + rtt
                    if tr > horizon:
                        pending = True
                    else:
                        lst = buckets[tr // W]
                        if lst is None:
                            buckets[tr // W] = [(tr, seq, 1, src, qdst, t_inj)]
                        else:
                            lst.append((tr, seq, 1, src, qdst, t_inj))
                    seq += 1
                else:
                    engines_free[src] += 1
    return KernelOutput(heap_events=dispatched, heap_pending=pending,
                        deliver_t=deliver_t, deliver_inject=deliver_i,
                        injected=injected)
