"""Statically-routed WDM point-to-point network (paper section 4.2).

Every site owns a dedicated optical channel to every other site: the
transmitter picks the waveguide leading to the destination column and the
wavelength dropped at the destination site, so there is **no arbitration,
switching, or routing** of any kind.  The price is a narrow data path: in
the scaled Table 4 configuration each site's 128 transmitters are divided
over 64 destinations, giving a 2-wavelength, 5 GB/s channel per pair.

Packets to a given destination queue FIFO on the pair's private channel;
latency is pure serialization + Manhattan propagation + queueing.
"""

from __future__ import annotations

from typing import List, Optional

from .base import Channel, InterSiteNetwork, Packet
from ..core.engine import Simulator
from ..core.units import serialization_ps
from ..core.vectorized import (KernelOutput, fifo_channel_delivery,
                               pair_propagation_table, register_kernel)
from ..macrochip.config import MacrochipConfig


class PointToPointNetwork(InterSiteNetwork):
    """Fully connected static WDM point-to-point network."""

    name = "Point-to-Point"
    switching_class = "none"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0) -> None:
        super().__init__(config, sim, warmup_ps)
        n = config.num_sites
        # 128 Tx spread over all destinations (incl. the loopback slot the
        # paper's table implies by dividing by 64): floor to whole
        # wavelengths, minimum 1.
        wavelengths = max(1, config.transmitters_per_site // n)
        self.channel_wavelengths = wavelengths
        self.channel_gb_per_s = wavelengths * config.wavelength_gb_per_s
        self._num_sites = n
        # flat src*n+dst channel table, filled on first use: one index
        # per packet on the hot path instead of a tuple-key dict probe
        self._channel_table: List[Optional[Channel]] = [None] * (n * n)

    def channel(self, src: int, dst: int) -> Channel:
        """The dedicated (lazily created) channel for a site pair."""
        idx = src * self._num_sites + dst
        ch = self._channel_table[idx]
        if ch is None:
            ch = self._new_channel(
                self.channel_gb_per_s,
                self.propagation_ps(src, dst),
                name="p2p[%d->%d]" % (src, dst),
            )
            self._channel_table[idx] = ch
        return ch

    def _route(self, packet: Packet) -> None:
        packet.hops = 1
        src = packet.src
        dst = packet.dst
        ch = self._channel_table[src * self._num_sites + dst]
        if ch is None:
            ch = self.channel(src, dst)
        ch.send(packet, self._deliver)


@register_kernel("point_to_point")
def _vectorized_point_to_point(net: PointToPointNetwork, plan) -> KernelOutput:
    """Bulk kernel: the whole load point without an event loop.

    Valid because the network has no shared state beyond per-pair FIFO
    channels, each owned by exactly one source site: a site's injection
    times strictly increase (gaps are >= 1 ps), so per-channel dispatch
    order equals per-site index order and the closed-form FIFO
    recurrence (:func:`repro.core.vectorized.fifo_channel_delivery`)
    yields every delivery time at once.  Only injector-chain events ever
    sit in the scalar heap here — delivers are terminal — so the event
    count is the dispatched injections plus in-horizon deliveries.
    """
    import numpy as np

    n = net._num_sites
    tx = serialization_ps(plan.packet_bytes, net.channel_gb_per_s)
    prop = np.asarray(pair_propagation_table(net.config.layout),
                      dtype=np.int64)
    loop_ps = net.config.loopback_latency_ps
    horizon = plan.horizon_ps

    key_parts = []
    t_parts = []
    deliver_t = []
    deliver_i = []
    injected = 0
    inject_pending = False
    for site in range(n):
        times = plan.site_times_np[site]
        m = int(np.searchsorted(times, horizon, side="right"))
        injected += m
        if m < plan.pps:
            inject_pending = True  # next injector event sits past horizon
        if m == 0:
            continue
        t = times[:m]
        d = np.asarray(plan.site_dsts[site][:m], dtype=np.int64)
        self_mask = d == site
        if self_mask.any():
            ts = t[self_mask]
            deliver_t.append(ts + loop_ps)  # electrical loopback
            deliver_i.append(ts)
            t = t[~self_mask]
            d = d[~self_mask]
        key_parts.append(site * n + d)
        t_parts.append(t)

    if key_parts:
        key = np.concatenate(key_parts)
        t_all = np.concatenate(t_parts)
        if key.size:
            dt, order = fifo_channel_delivery(np, key, t_all, tx, prop)
            deliver_t.append(dt)
            deliver_i.append(t_all[order])  # send time == inject time here
    empty = np.empty(0, dtype=np.int64)
    return KernelOutput(
        heap_events=injected,
        heap_pending=inject_pending,
        deliver_t=np.concatenate(deliver_t) if deliver_t else empty,
        deliver_inject=np.concatenate(deliver_i) if deliver_i else empty,
        injected=injected)
