"""Limited point-to-point network with electronic routing (section 4.6).

Each site has a direct optical channel to every *row peer* and *column
peer* — 14 peers on an 8x8 macrochip — at 8 wavelengths (20 GB/s).
Traffic to a non-peer is forwarded through exactly one intermediate site
that is a peer of both endpoints: either (src_row, dst_col) or
(dst_row, src_col).  At the forwarder the packet is converted to the
electronic domain, crosses a 7x7 router (one cycle), and is re-transmitted
optically, so no packet ever takes more than one O-E/E-O conversion.

The forwarder is chosen adaptively by shorter outgoing-channel queue
(the paper does not pin this down; adaptivity only matters under load and
is noted in DESIGN.md).  Router traversals are charged 60 pJ/byte
(section 6.3) into the 'router' energy category, which Figure 9 reports.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .base import Channel, InterSiteNetwork, Packet
from ..core.engine import Simulator
from ..core.interning import intern_table
from ..core.units import serialization_ps
from ..core.vectorized import (KernelOutput, injection_order,
                               pair_propagation_table, register_kernel)
from ..macrochip.config import MacrochipConfig
from ..photonics.power import router_energy_pj


def _build_routing_tables(layout):
    """(fwd_table, coords) for a layout — see the constructor comment."""
    n = layout.num_sites
    coords = [layout.coords(s) for s in range(n)]
    fwd: List[Optional[Tuple[int, int]]] = [None] * (n * n)
    for src, (rs, cs) in enumerate(coords):
        for dst, (rd, cd) in enumerate(coords):
            if src != dst and rs != rd and cs != cd:
                fwd[src * n + dst] = (layout.site_at(rs, cd),
                                      layout.site_at(rd, cs))
    return fwd, coords


class LimitedPointToPointNetwork(InterSiteNetwork):
    """Row/column-peer point-to-point network with one electronic hop."""

    name = "Limited Point-to-Point"
    switching_class = "electronic"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0,
                 conversion_overhead_cycles: int = 60) -> None:
        super().__init__(config, sim, warmup_ps)
        layout = config.layout
        peers = (layout.rows - 1) + (layout.cols - 1)
        # 128 Tx over 14 peers -> 8 wavelengths per peer on the 8x8 chip
        # (the paper's 20 GB/s channels); floor, minimum 1.
        wavelengths = max(1, config.transmitters_per_site // (peers + 2))
        self.channel_wavelengths = wavelengths
        self.channel_gb_per_s = wavelengths * config.wavelength_gb_per_s
        # the router crossbar itself is one cycle (section 4.6); the O-E
        # and E-O conversions around it (photodetector/TIA, SerDes,
        # buffering, modulator drive) are not free — 60 cycles (12 ns)
        # total is the calibrated realistic cost of the store-and-forward
        # hop, and is what keeps the narrow point-to-point network ahead
        # on non-neighbor traffic as the paper observes.
        self.router_latency_ps = config.cycles_ps(
            1 + conversion_overhead_cycles)
        n = layout.num_sites
        self._num_sites = n
        # precomputed per-pair routing tables (the per-packet hot path
        # does one flat index instead of four coords() calls):
        # _fwd_table[src*n+dst] is None for peers (direct channel) and the
        # (a, b) forwarder-candidate pair otherwise.  The n^2 build is
        # the costliest network construction in the package, and both
        # tables are pure functions of the layout — interned, so a sweep
        # builds them once per layout per process (and forked workers
        # inherit them copy-on-write).
        self._fwd_table, self._coords = intern_table(
            ("lp2p-routing", layout), lambda: _build_routing_tables(layout))
        self._channel_table: List[Optional[Channel]] = [None] * (n * n)
        #: forwarded packets (for Figure 9 style reporting and tests)
        self.forwarded_packets = 0
        self.direct_packets = 0

    # -- topology ----------------------------------------------------------

    def is_peer(self, a: int, b: int) -> bool:
        """True when two distinct sites share a row or a column."""
        return a != b and self._fwd_table[a * self._num_sites + b] is None

    def forwarder_candidates(self, src: int, dst: int) -> Tuple[int, int]:
        """The two sites that are peers of both endpoints."""
        fwd = self._fwd_table[src * self._num_sites + dst]
        if fwd is not None:
            return fwd
        layout = self.config.layout
        rs, cs = self._coords[src]
        rd, cd = self._coords[dst]
        return layout.site_at(rs, cd), layout.site_at(rd, cs)

    def channel(self, src: int, dst: int) -> Channel:
        if not self.is_peer(src, dst):
            raise ValueError("no direct channel between %d and %d" % (src, dst))
        idx = src * self._num_sites + dst
        ch = self._channel_table[idx]
        if ch is None:
            ch = self._new_channel(
                self.channel_gb_per_s,
                self.propagation_ps(src, dst),
                name="lp2p[%d->%d]" % (src, dst),
            )
            self._channel_table[idx] = ch
        return ch

    # -- routing -----------------------------------------------------------

    def _route(self, packet: Packet) -> None:
        src = packet.src
        dst = packet.dst
        n = self._num_sites
        fwd = self._fwd_table[src * n + dst]
        if fwd is None:
            packet.hops = 1
            self.direct_packets += 1
            ch = self._channel_table[src * n + dst]
            if ch is None:
                ch = self.channel(src, dst)
            ch.send(packet, self._deliver)
            return
        self.forwarded_packets += 1
        packet.hops = 2
        a, b = fwd
        # adaptive: pick the forwarder whose first-leg channel is freer;
        # deterministic tie-break on site id keeps runs reproducible.
        ch_a = self._channel_table[src * n + a]
        if ch_a is None:
            ch_a = self.channel(src, a)
        ch_b = self._channel_table[src * n + b]
        if ch_b is None:
            ch_b = self.channel(src, b)
        now = self.sim.now
        qa = ch_a.next_free - now
        if qa < 0:
            qa = 0
        qb = ch_b.next_free - now
        if qb < 0:
            qb = 0
        if (qa, a) <= (qb, b):
            ch_a.send(packet, self._at_forwarder, a)
        else:
            ch_b.send(packet, self._at_forwarder, b)

    def _at_forwarder(self, packet: Packet, via: int) -> None:
        """O-E conversion, one-cycle 7x7 router, E-O re-transmission."""
        self.stats.energy.add("router", router_energy_pj(packet.size_bytes))
        self.sim.schedule(self.router_latency_ps,
                          self._forward, packet, via)

    def _forward(self, packet: Packet, via: int) -> None:
        ch = self._channel_table[via * self._num_sites + packet.dst]
        if ch is None:
            ch = self.channel(via, packet.dst)
        ch.send(packet, self._deliver)


@register_kernel("limited_point_to_point")
def _vectorized_limited_p2p(net: LimitedPointToPointNetwork,
                            plan) -> KernelOutput:
    """Replay kernel: exact event order over flat state, delivers batched.

    The adaptive forwarder choice reads channel ``next_free`` at inject
    time, so dispatch order matters and the load point cannot collapse
    to a closed form.  Instead the kernel replays the engine's
    ``(time, seq)`` dispatch order over flat integer state — ``seq``
    is an event's place in the engine's scheduling order, and sequence
    numbers are allocated at exactly the points the engine schedules
    events, *including* delivers, which never enter the replay: a
    sweep ``_deliver`` is terminal (stats only, order-independent), so
    delivery times are collected into arrays and folded in at the end.

    The replay is *calendar-segmented*: a forwarder arrival trails its
    send by at least the serialization time (``start >= t`` and
    propagation is non-negative) and the post-router re-transmission
    trails the arrival by the router latency, so with buckets no wider
    than ``min(tx, router_ps)`` no scheduled event ever lands in the
    bucket currently dispatching — append + one C-level sort per bucket
    replaces heap churn.  Injections come from the
    :func:`~repro.core.vectorized.injection_order` stream, merged with
    each bucket on ``(time, seq)``.
    """
    n = net._num_sites
    pps = plan.pps
    horizon = plan.horizon_ps
    loop_ps = net.config.loopback_latency_ps
    router_ps = net.router_latency_ps
    tx = serialization_ps(plan.packet_bytes, net.channel_gb_per_s)
    prop = pair_propagation_table(net.config.layout)
    fwd_table = net._fwd_table
    next_free = [0] * (n * n)

    # every dynamically scheduled event trails its scheduler by at least
    # W, so an event never lands in the bucket currently dispatching
    W = max(1, min(tx, router_ps))
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
                else:
                    fwd = fwd_table[site * n + dst]
                    if fwd is None:
                        key = site * n + dst
                        nf = next_free[key]
                        start = t if t >= nf else nf
                        next_free[key] = start + tx
                        deliver_t.append(start + tx + prop[key])
                        deliver_i.append(t)
                        seq += 1
                    else:
                        fa, fb = fwd
                        ka = site * n + fa
                        kb = site * n + fb
                        qa = next_free[ka] - t
                        if qa < 0:
                            qa = 0
                        qb = next_free[kb] - t
                        if qb < 0:
                            qb = 0
                        if (qa, fa) <= (qb, fb):
                            via, key = fa, ka
                        else:
                            via, key = fb, kb
                        nf = next_free[key]
                        start = t if t >= nf else nf
                        next_free[key] = start + tx
                        tr = start + tx + prop[key]
                        if tr > horizon:
                            pending = True
                        else:
                            lst = buckets[tr // W]
                            if lst is None:
                                buckets[tr // W] = [(tr, seq, 1,
                                                     via, dst, t)]
                            else:
                                lst.append((tr, seq, 1, via, dst, t))
                        seq += 1
                if idx + 1 < pps:  # the site's next injection
                    inj_seq[site] = seq
                    seq += 1
                k += 1
                site = S[k]
                next_t = times[site][cursor[site]]
                continue
            t, _, kind, a, b, c = e
            i += 1
            dispatched += 1
            if kind == 1:
                tr = t + router_ps
                if tr > horizon:
                    pending = True
                else:
                    lst = buckets[tr // W]
                    if lst is None:
                        buckets[tr // W] = [(tr, seq, 2, a, b, c)]
                    else:
                        lst.append((tr, seq, 2, a, b, c))
                seq += 1
            else:
                key = a * n + b
                nf = next_free[key]
                start = t if t >= nf else nf
                next_free[key] = start + tx
                deliver_t.append(start + tx + prop[key])
                deliver_i.append(c)
                seq += 1
    return KernelOutput(heap_events=dispatched, heap_pending=pending,
                        deliver_t=deliver_t, deliver_inject=deliver_i,
                        injected=injected)
