"""HERMES-style hierarchical broadcast network (extension network).

HERMES (after Mohamed et al.) organizes the macrochip's sites into small
rectangular *clusters*.  Within a cluster, every site owns a full
modulator bank on a shared single-writer multiple-reader broadcast ring:
one optical hop reaches any cluster member, and every member physically
sees every transmission (which is what makes the architecture attractive
for invalidations/snooping — the power model charges the split and the
extra detection energy accordingly).  Between clusters, one *gateway*
site per cluster terminates a dedicated WDM channel to every other
gateway — a global photonic crossbar over clusters rather than sites.

A cross-cluster message therefore takes up to three optical legs:

1. the source's intra-cluster ring to the local gateway,
2. the global gateway-to-gateway channel,
3. the destination cluster's ring, rebroadcast by its gateway.

At each gateway traversal the packet crosses the electronic domain
(O-E conversion, buffering, E-O re-modulation), modeled like the limited
point-to-point forwarder: a 60-cycle conversion overhead plus the
60 pJ/byte router energy of section 6.3 into the 'router' category.
Because the global layer concentrates the whole cluster's off-cluster
traffic onto its gateway channels, HERMES saturates earlier than the
site-level point-to-point network — the hierarchy trades peak throughput
for a much smaller global waveguide plant (see ``complexity.py``).

The model follows the package contract: serialized :class:`Channel`
servers, interned derived geometry, and trace events on every channel so
the invariant checkers apply unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .base import Channel, InterSiteNetwork, Packet
from ..core.engine import Simulator
from ..core.interning import intern_memo, intern_table
from ..core.units import propagation_ps, serialization_ps
from ..core.vectorized import (KernelOutput, injection_order,
                               pair_propagation_table, register_kernel)
from ..macrochip.config import MacrochipConfig
from ..photonics.power import router_energy_pj


def normalize_cluster_dims(layout, cluster_rows: int,
                           cluster_cols: int) -> Tuple[int, int]:
    """Clamp requested cluster dimensions to the largest divisors of the
    layout that do not exceed them, so any layout tiles exactly.

    A 4x4 or 8x8 macrochip with the default 2x2 request is unchanged; a
    3x3 macrochip degrades to 1x1 clusters (every site its own gateway,
    i.e. a pure global crossbar) rather than raising.
    """
    if cluster_rows < 1 or cluster_cols < 1:
        raise ValueError("cluster dimensions must be at least 1x1")

    def largest_divisor(extent: int, bound: int) -> int:
        for d in range(min(extent, bound), 0, -1):
            if extent % d == 0:
                return d
        return 1

    return (largest_divisor(layout.rows, cluster_rows),
            largest_divisor(layout.cols, cluster_cols))


def _build_cluster_tables(layout, cr: int, cc: int):
    """Derived geometry for a clustering: all pure functions of layout
    and cluster shape, built once per (layout, shape) and interned.

    Returns ``(cluster_of, members, gateway, ring_prop)``:

    * ``cluster_of[site]`` — cluster id (row-major over cluster tiles);
    * ``members[cid]`` — cluster member sites in ring (boustrophedon)
      order;
    * ``gateway[cid]`` — the cluster's gateway site (lowest site id);
    * ``ring_prop[src * n + dst]`` — optical flight time in ps from
      ``src`` to ``dst`` along their shared unidirectional ring (0 for
      pairs that do not share a cluster).
    """
    n = layout.num_sites
    tiles_per_row = layout.cols // cc
    cluster_of = [0] * n
    for site in range(n):
        r, c = layout.coords(site)
        cluster_of[site] = (r // cr) * tiles_per_row + (c // cc)
    num_clusters = (layout.rows // cr) * tiles_per_row

    members: List[List[int]] = [[] for _ in range(num_clusters)]
    for cid in range(num_clusters):
        tile_r, tile_c = divmod(cid, tiles_per_row)
        for lr in range(cr):
            # boustrophedon within the cluster block: even local rows
            # left-to-right, odd local rows right-to-left
            cols = range(cc) if lr % 2 == 0 else range(cc - 1, -1, -1)
            for lc in cols:
                members[cid].append(
                    layout.site_at(tile_r * cr + lr, tile_c * cc + lc))
    gateway = [min(m) for m in members]

    ring_prop = [0] * (n * n)
    for ring in members:
        k = len(ring)
        if k < 2:
            continue
        # cumulative physical distance along the ring path, closing the
        # loop from the last member back to the first
        hop_cm = [layout.manhattan_distance_cm(ring[i], ring[(i + 1) % k])
                  for i in range(k)]
        ring_len_cm = sum(hop_cm)
        cum = [0.0] * k
        for i in range(1, k):
            cum[i] = cum[i - 1] + hop_cm[i - 1]
        for i, src in enumerate(ring):
            for j, dst in enumerate(ring):
                if src == dst:
                    continue
                dist = cum[j] - cum[i]
                if dist <= 0.0:
                    dist += ring_len_cm
                ring_prop[src * n + dst] = propagation_ps(dist)
    return cluster_of, members, gateway, ring_prop


class HermesHierarchicalNetwork(InterSiteNetwork):
    """Clustered broadcast rings under a global gateway crossbar."""

    name = "HERMES"
    switching_class = "electronic"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0,
                 cluster_rows: int = 2, cluster_cols: int = 2,
                 conversion_overhead_cycles: int = 60) -> None:
        super().__init__(config, sim, warmup_ps)
        layout = config.layout
        self.cluster_rows, self.cluster_cols = normalize_cluster_dims(
            layout, cluster_rows, cluster_cols)
        shape = (self.cluster_rows, self.cluster_cols)
        (self._cluster_of, self._members, self._gateway,
         self._ring_prop) = intern_table(
            ("hermes-geometry", layout, shape),
            lambda: _build_cluster_tables(layout, *shape))
        self.num_clusters = len(self._members)
        self.cluster_size = self.cluster_rows * self.cluster_cols
        n = layout.num_sites
        self._num_sites = n

        # every site drives its full modulator bank onto its cluster ring
        self.ring_gb_per_s = (config.transmitters_per_site
                              * config.wavelength_gb_per_s)
        # each gateway splits one bank across the other gateways; the
        # resulting narrow channels are the architecture's bottleneck
        pairs = max(1, self.num_clusters - 1)
        self.global_wavelengths = max(
            1, config.transmitters_per_site // pairs)
        self.global_gb_per_s = (self.global_wavelengths
                                * config.wavelength_gb_per_s)
        # O-E / E-O conversion around the gateway's electronic router,
        # same calibration as the limited point-to-point forwarder
        self.gateway_latency_ps = config.cycles_ps(
            1 + conversion_overhead_cycles)

        self._ring_channel: List[Optional[Channel]] = [None] * n
        self._global_channel: List[Optional[Channel]] = (
            [None] * (self.num_clusters * self.num_clusters))
        # per-size snoop detection energy (the k-1 non-target listeners
        # on a ring broadcast), interned per (tech, cluster size)
        self._snoop_pj: Dict[int, float] = intern_memo(
            ("hermes-snoop-pj", config.tech, self.cluster_size), dict)
        #: optional broadcast observer: called as cb(member_site, packet)
        #: for every cluster member that physically sees a ring
        #: transmission it is not the source of
        self._snoop: Optional[Callable[[int, Packet], None]] = None
        #: diagnostic counters
        self.intra_packets = 0
        self.inter_packets = 0
        self.snoop_events = 0

    # -- topology ----------------------------------------------------------

    def cluster_of(self, site: int) -> int:
        """Cluster id of a site."""
        return self._cluster_of[site]

    def cluster_members(self, cid: int) -> Tuple[int, ...]:
        """Member sites of a cluster, in ring order."""
        return tuple(self._members[cid])

    def gateway_of(self, cid: int) -> int:
        """The gateway site of a cluster."""
        return self._gateway[cid]

    def set_snoop(self, snoop: Optional[Callable[[int, Packet], None]]) -> None:
        """Register (or detach) the broadcast observer."""
        self._snoop = snoop

    def ring_channel(self, src: int) -> Channel:
        ch = self._ring_channel[src]
        if ch is None:
            cid = self._cluster_of[src]
            ch = self._new_channel(
                self.ring_gb_per_s, 0,
                name="hermes-ring[c%d|src=%d]" % (cid, src))
            self._ring_channel[src] = ch
        return ch

    def global_channel(self, src_cluster: int, dst_cluster: int) -> Channel:
        idx = src_cluster * self.num_clusters + dst_cluster
        ch = self._global_channel[idx]
        if ch is None:
            a = self._gateway[src_cluster]
            b = self._gateway[dst_cluster]
            ch = self._new_channel(
                self.global_gb_per_s, self.propagation_ps(a, b),
                name="hermes-global[c%d->c%d]" % (src_cluster, dst_cluster))
            self._global_channel[idx] = ch
        return ch

    # -- routing -----------------------------------------------------------

    def _route(self, packet: Packet) -> None:
        src = packet.src
        dst = packet.dst
        src_cluster = self._cluster_of[src]
        if src_cluster == self._cluster_of[dst]:
            self.intra_packets += 1
            packet.hops = 1
            self.ring_channel(src).send(packet, self._at_ring_end, src)
            return
        self.inter_packets += 1
        src_gw = self._gateway[src_cluster]
        dst_gw = self._gateway[self._cluster_of[dst]]
        packet.hops = (1 + (src != src_gw) + (dst != dst_gw))
        if src == src_gw:
            # the gateway modulates straight onto the global channel
            self._send_global(packet)
        else:
            self.ring_channel(src).send(packet, self._to_source_gateway)

    def _broadcast_snoop(self, src: int, packet: Packet) -> None:
        """Account the listeners of one ring transmission: every cluster
        member other than the source physically detects the bits."""
        cid = self._cluster_of[src]
        listeners = self.cluster_size - 1
        if listeners <= 0:
            return
        self.snoop_events += listeners
        size = packet.size_bytes
        pj = self._snoop_pj.get(size)
        if pj is None:
            pj = (size * 8 * self.config.tech.detection_energy_fj_per_bit
                  * listeners / 1000.0)
            self._snoop_pj[size] = pj
        self.stats.energy.add("snoop", pj)
        if self._snoop is not None:
            for member in self._members[cid]:
                if member != src:
                    self._snoop(member, packet)

    def _at_ring_end(self, packet: Packet, src: int) -> None:
        """Ring arrival on ``src``'s ring: transmission ended, fly the
        remaining ring distance to the packet's destination and
        deliver."""
        self._broadcast_snoop(src, packet)
        self.sim.schedule(self._ring_prop[src * self._num_sites + packet.dst],
                          self._deliver, packet)

    def _to_source_gateway(self, packet: Packet) -> None:
        """Ring arrival for the first leg of a cross-cluster route: fly
        to the local gateway, then cross into the electronic domain
        there."""
        src = packet.src
        self._broadcast_snoop(src, packet)
        gw = self._gateway[self._cluster_of[src]]
        self.sim.schedule(self._ring_prop[src * self._num_sites + gw],
                          self._at_source_gateway, packet)

    def _at_source_gateway(self, packet: Packet) -> None:
        """O-E conversion, electronic gateway router, E-O onto the global
        channel."""
        self.stats.energy.add("router", router_energy_pj(packet.size_bytes))
        self.sim.schedule(self.gateway_latency_ps, self._send_global, packet)

    def _send_global(self, packet: Packet) -> None:
        src_cluster = self._cluster_of[packet.src]
        dst_cluster = self._cluster_of[packet.dst]
        ch = self.global_channel(src_cluster, dst_cluster)
        ch.send(packet, self._at_destination_gateway,
                self._gateway[dst_cluster])

    def _at_destination_gateway(self, packet: Packet, gw: int) -> None:
        """Global-channel arrival at the destination gateway: deliver if
        the gateway is the destination, else rebroadcast on its ring."""
        if packet.dst == gw:
            self._deliver(packet)
            return
        self.stats.energy.add("router", router_energy_pj(packet.size_bytes))
        self.sim.schedule(self.gateway_latency_ps,
                          self._rebroadcast, packet, gw)

    def _rebroadcast(self, packet: Packet, gateway: int) -> None:
        self.ring_channel(gateway).send(packet, self._at_ring_end, gateway)


@register_kernel("hermes")
def _vectorized_hermes(net: HermesHierarchicalNetwork, plan) -> KernelOutput:
    """Replay kernel: the three-leg broadcast hierarchy on flat state.

    The snoopy broadcast itself needs no events — listeners are pure
    energy/diagnostic accounting in the scalar model, and neither feeds
    a :class:`~repro.core.sweep.LoadPointResult` — so the load-bearing
    state is just the FIFO timeline of each single-writer ring channel
    and of each gateway-pair global channel.  A gateway's ring channel
    carries both its own intra-cluster injections and the rebroadcasts
    of inbound cross-cluster traffic, so dispatch order matters and the
    kernel replays the engine's ``(time, seq)`` discipline exactly; the
    electronic gateway hops are replayed as their own events because
    each dispatch allocates a sequence number the scalar engine also
    allocates.  Delivers are batched out of the heap as usual — with
    one twist: a global-channel arrival whose destination *is* the
    gateway delivers synchronously inside the arrival event (no extra
    event, no extra seq), so that arrival goes straight into the
    deliver arrays instead of being counted as a heap event.  The heap
    holds protocol events only: injections come from the
    :func:`~repro.core.vectorized.injection_order` stream, merged with
    the heap on ``(time, seq)``.
    """
    n = net._num_sites
    num_clusters = net.num_clusters
    cluster_of = net._cluster_of
    gateway = net._gateway
    ring_prop = net._ring_prop
    pps = plan.pps
    horizon = plan.horizon_ps
    loop_ps = net.config.loopback_latency_ps
    gw_lat = net.gateway_latency_ps
    tx_ring = serialization_ps(plan.packet_bytes, net.ring_gb_per_s)
    tx_glob = serialization_ps(plan.packet_bytes, net.global_gb_per_s)
    prop = pair_propagation_table(net.config.layout)
    glob_prop = [prop[gateway[a] * n + gateway[b]]
                 for a in range(num_clusters) for b in range(num_clusters)]
    ring_nf = [0] * n  # per-source ring channel next_free
    glob_nf = [0] * (num_clusters * num_clusters)

    import heapq

    heappush = heapq.heappush
    heappop = heapq.heappop
    order = injection_order(plan)
    injected = dispatched = order.injected
    pending = order.pending
    inj_seq = order.site_seq
    seq = n  # the first free seq (see InjectionOrder.site_seq)
    # the stream as sites, each read in index order by its cursor
    S = (order.j // pps).tolist()
    del order  # frees the stream arrays: the walk reads only S
    times = plan.site_times
    dsts = plan.site_dsts
    cursor = [0] * n
    k = 0
    # event kinds: 1 = ring arrival (final leg),
    # 2 = ring arrival (first leg toward the local gateway),
    # 3 = at the source gateway (O-E, router), 4 = global-channel send,
    # 5 = global arrival needing rebroadcast, 6 = rebroadcast
    heap = []
    deliver_t = []
    deliver_i = []
    while True:
        if k < injected:
            site = S[k]
            idx = cursor[site]
            t = times[site][idx]
            if not heap or (t, inj_seq[site]) < heap[0]:
                cursor[site] = idx + 1
                dst = dsts[site][idx]
                k += 1
                if dst == site:
                    deliver_t.append(t + loop_ps)
                    deliver_i.append(t)
                    seq += 1
                elif cluster_of[site] == cluster_of[dst]:
                    nf = ring_nf[site]
                    start = t if t >= nf else nf
                    ring_nf[site] = start + tx_ring
                    heappush(heap, (start + tx_ring, seq, 1, site, dst, t))
                    seq += 1
                elif site == gateway[cluster_of[site]]:
                    # the gateway modulates straight onto the global channel
                    gkey = cluster_of[site] * num_clusters + cluster_of[dst]
                    nf = glob_nf[gkey]
                    start = t if t >= nf else nf
                    glob_nf[gkey] = start + tx_glob
                    arrival = start + tx_glob + glob_prop[gkey]
                    if dst == gateway[cluster_of[dst]]:
                        deliver_t.append(arrival)
                        deliver_i.append(t)
                    else:
                        heappush(heap, (arrival, seq, 5, 0, dst, t))
                    seq += 1
                else:
                    nf = ring_nf[site]
                    start = t if t >= nf else nf
                    ring_nf[site] = start + tx_ring
                    heappush(heap, (start + tx_ring, seq, 2, site, dst, t))
                    seq += 1
                if idx + 1 < pps:  # the site's next injection
                    inj_seq[site] = seq
                    seq += 1
                continue
        elif not heap:
            break
        t, _, kind, a, b, c = heappop(heap)
        if t > horizon:
            pending = True
            break
        dispatched += 1
        if kind == 1:
            deliver_t.append(t + ring_prop[a * n + b])
            deliver_i.append(c)
            seq += 1
        elif kind == 2:
            gw = gateway[cluster_of[a]]
            heappush(heap, (t + ring_prop[a * n + gw], seq, 3, a, b, c))
            seq += 1
        elif kind == 3:
            heappush(heap, (t + gw_lat, seq, 4, a, b, c))
            seq += 1
        elif kind == 4:
            gkey = cluster_of[a] * num_clusters + cluster_of[b]
            nf = glob_nf[gkey]
            start = t if t >= nf else nf
            glob_nf[gkey] = start + tx_glob
            arrival = start + tx_glob + glob_prop[gkey]
            if b == gateway[cluster_of[b]]:
                # the arrival event *is* the deliver (the scalar
                # _at_destination_gateway calls _deliver synchronously):
                # batched, not a heap event
                deliver_t.append(arrival)
                deliver_i.append(c)
            else:
                heappush(heap, (arrival, seq, 5, 0, b, c))
            seq += 1
        elif kind == 5:
            heappush(heap, (t + gw_lat, seq, 6, 0, b, c))
            seq += 1
        else:
            gw = gateway[cluster_of[b]]
            nf = ring_nf[gw]
            start = t if t >= nf else nf
            ring_nf[gw] = start + tx_ring
            heappush(heap, (start + tx_ring, seq, 1, gw, b, c))
            seq += 1
    return KernelOutput(heap_events=dispatched, heap_pending=pending,
                        deliver_t=deliver_t, deliver_inject=deliver_i,
                        injected=injected)
