"""Electrical off-chip baseline network (section 1's motivation).

The paper motivates silicon photonics by the shortfall of electrical
inter-chip signaling: off-chip I/O density "dramatically lags that of
on-chip wires, forcing the use of overclocked and high-power serial
links".  This baseline quantifies that comparison inside the same
harness: a fully connected electrical point-to-point network built from
package-level SerDes links with

* far lower per-site bandwidth — pin budgets limit each site to a small
  fraction of the photonic 320 GB/s (default 64 GB/s, an optimistic
  ~2015 package: 64 differential pairs at 8 GT/s per direction);
* SerDes latency at each end (serialization/deserialization pipelines,
  default 10 ns combined, vs the photonic links' pure flight time);
* ~10x worse energy per bit (default 1.5 pJ/bit vs the 150 fJ/bit
  optical budget of Table 1).

It is *not* part of the paper's five-way evaluation; it exists so the
photonic claims ("dramatically reduce the incremental cost of
chip-to-chip bandwidth") can be demonstrated quantitatively — see
``examples/electrical_vs_photonic.py``.
"""

from __future__ import annotations

from typing import List, Optional

from .base import Channel, InterSiteNetwork, Packet
from ..core.engine import Simulator
from ..core.units import serialization_ps
from ..core.vectorized import (KernelOutput, fifo_channel_delivery,
                               pair_propagation_table, register_kernel)
from ..macrochip.config import MacrochipConfig


#: energy per bit of a package-level electrical serial link (pJ/bit);
#: ~10x the 150 fJ/bit optical budget of Table 1.
ELECTRICAL_ENERGY_PJ_PER_BIT = 1.5
#: signal velocity on package traces, ~0.5c -> 0.066 ns/cm; we keep the
#: optical 0.1 ns/cm figure for fairness (flight time is not the
#: electrical bottleneck).


class ElectricalBaselineNetwork(InterSiteNetwork):
    """Pin-limited electrical point-to-point network."""

    name = "Electrical Baseline"
    switching_class = "none"
    energy_category = "electrical"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0,
                 site_bandwidth_gb_per_s: float = 64.0,
                 serdes_latency_ns: float = 10.0) -> None:
        super().__init__(config, sim, warmup_ps)
        if site_bandwidth_gb_per_s <= 0:
            raise ValueError("site bandwidth must be positive")
        n = config.num_sites
        self.site_bandwidth_gb_per_s = site_bandwidth_gb_per_s
        #: per-pair channel: the pin budget divided over all destinations
        self.channel_gb_per_s = max(site_bandwidth_gb_per_s / (n - 1),
                                    0.001)
        self.serdes_latency_ps = int(serdes_latency_ns * 1000)
        self._num_sites = n
        self._channel_table: List[Optional[Channel]] = [None] * (n * n)
        # SerDes energy, not the optical transmit energy the base class
        # memoizes per technology point
        self._energy_cache = {}

    def channel(self, src: int, dst: int) -> Channel:
        idx = src * self._num_sites + dst
        ch = self._channel_table[idx]
        if ch is None:
            ch = self._new_channel(self.channel_gb_per_s,
                                   self.propagation_ps(src, dst),
                                   name="elec[%d->%d]" % (src, dst))
            self._channel_table[idx] = ch
        return ch

    def _route(self, packet: Packet) -> None:
        packet.hops = 1
        self.sim.schedule(self.serdes_latency_ps, self._start_tx, packet)

    def _start_tx(self, packet: Packet) -> None:
        ch = self._channel_table[packet.src * self._num_sites + packet.dst]
        if ch is None:
            ch = self.channel(packet.src, packet.dst)
        ch.send(packet, self._deliver)

    def _transmit_energy_pj(self, size_bytes: int, hops: int) -> float:
        return size_bytes * 8 * ELECTRICAL_ENERGY_PJ_PER_BIT


@register_kernel("electrical_baseline")
def _vectorized_electrical(net: ElectricalBaselineNetwork,
                           plan) -> KernelOutput:
    """Bulk kernel: point-to-point FIFO channels behind a SerDes stage.

    Identical structure to the photonic point-to-point kernel, with one
    extra heap event per off-site packet: the ``_start_tx`` callback at
    ``t_inject + serdes``.  A SerDes event past the horizon never
    dispatches — so its channel send (and delivery) never exists, which
    the per-site ``searchsorted`` on the shifted times reproduces.
    Per-channel dispatch order is still per-site index order: the SerDes
    stage shifts a site's (strictly increasing) injection times by a
    constant.
    """
    import numpy as np

    n = net._num_sites
    tx = serialization_ps(plan.packet_bytes, net.channel_gb_per_s)
    prop = np.asarray(pair_propagation_table(net.config.layout),
                      dtype=np.int64)
    loop_ps = net.config.loopback_latency_ps
    serdes = net.serdes_latency_ps
    horizon = plan.horizon_ps

    key_parts = []
    send_parts = []
    inject_parts = []
    deliver_t = []
    deliver_i = []
    injected = 0
    heap_events = 0
    heap_pending = False
    for site in range(n):
        times = plan.site_times_np[site]
        m = int(np.searchsorted(times, horizon, side="right"))
        injected += m
        heap_events += m
        if m < plan.pps:
            heap_pending = True
        if m == 0:
            continue
        t = times[:m]
        d = np.asarray(plan.site_dsts[site][:m], dtype=np.int64)
        self_mask = d == site
        if self_mask.any():
            ts = t[self_mask]
            deliver_t.append(ts + loop_ps)  # loopback skips the SerDes
            deliver_i.append(ts)
            t = t[~self_mask]
            d = d[~self_mask]
        send = t + serdes
        started = int(np.searchsorted(send, horizon, side="right"))
        heap_events += started
        if started < send.shape[0]:
            heap_pending = True  # undispatched SerDes events in the heap
        if started == 0:
            continue
        key_parts.append(site * n + d[:started])
        send_parts.append(send[:started])
        inject_parts.append(t[:started])

    if key_parts:
        key = np.concatenate(key_parts)
        send_all = np.concatenate(send_parts)
        inject_all = np.concatenate(inject_parts)
        if key.size:
            dt, order = fifo_channel_delivery(np, key, send_all, tx, prop)
            deliver_t.append(dt)
            deliver_i.append(inject_all[order])
    empty = np.empty(0, dtype=np.int64)
    return KernelOutput(
        heap_events=heap_events,
        heap_pending=heap_pending,
        deliver_t=np.concatenate(deliver_t) if deliver_t else empty,
        deliver_inject=np.concatenate(deliver_i) if deliver_i else empty,
        injected=injected)
