"""Common machinery for the five macrochip inter-site networks.

Every network model in this package follows the same contract:

* construct with a :class:`~repro.macrochip.config.MacrochipConfig` and a
  :class:`~repro.core.engine.Simulator`;
* ``inject(packet)`` hands the network a packet at the current simulation
  time; the network delivers it later by invoking the registered sink;
* ``stats`` accumulates latency/throughput/energy.

Channels are modeled as serialized servers: a channel with bandwidth ``B``
and propagation delay ``D`` transmits packets back-to-back (transmission
time = size/B) and delivers each at ``start + size/B + D``.  This is exact
for the paper's networks, none of which uses wormhole flow control.

Intra-site traffic (src == dst) bypasses the optical network over a
single-cycle electrical loopback, as the paper models it (section 6.2).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..core import tracing
from ..core.engine import Simulator
from ..core.interning import intern_memo
from ..core.stats import NetworkStats
from ..core.tracing import TraceRecorder
from ..core.units import serialization_ps
from ..macrochip.config import MacrochipConfig
from ..photonics.power import transmit_energy_pj

_packet_ids = itertools.count()


class Packet:
    """One network message.

    ``kind`` distinguishes coherence message classes ('req', 'data', 'inv',
    'ack', ...) for statistics; ``on_delivered`` is an optional callback the
    coherence replay layer uses to chain protocol steps.
    """

    __slots__ = ("pid", "src", "dst", "size_bytes", "t_inject", "t_deliver",
                 "kind", "on_delivered", "hops")

    def __init__(self, src: int, dst: int, size_bytes: int,
                 kind: str = "data",
                 on_delivered: Optional[Callable[["Packet"], None]] = None,
                 pid: Optional[int] = None):
        # pid=None draws from the process-global counter (historical
        # behavior); harnesses that need run-reproducible raw ids pass
        # their own per-run allocation (see repro.core.sweep) so a rerun
        # emits the same pids, not just the same canonically-renumbered
        # trace
        self.pid = next(_packet_ids) if pid is None else pid
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.kind = kind
        self.on_delivered = on_delivered
        self.t_inject = -1
        self.t_deliver = -1
        self.hops = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("Packet(#%d %d->%d %dB %s)"
                % (self.pid, self.src, self.dst, self.size_bytes, self.kind))


class Channel:
    """A serialized optical (or electrical) channel.

    ``send`` enqueues a packet for transmission; the completion callback
    fires when the last bit arrives at the far end.  ``next_free`` exposes
    the earliest time a new transmission could start (used by adaptive
    routing in the limited point-to-point network).
    """

    __slots__ = ("sim", "bandwidth_gb_per_s", "propagation_ps", "next_free",
                 "busy_ps", "name", "tracer", "_tx_cache")

    def __init__(self, sim: Simulator, bandwidth_gb_per_s: float,
                 propagation_ps: int, name: str = "",
                 tracer: Optional[TraceRecorder] = None) -> None:
        if bandwidth_gb_per_s <= 0:
            raise ValueError("channel bandwidth must be positive")
        if propagation_ps < 0:
            raise ValueError("propagation delay must be non-negative")
        self.sim = sim
        self.bandwidth_gb_per_s = bandwidth_gb_per_s
        self.propagation_ps = propagation_ps
        self.next_free = 0
        self.busy_ps = 0
        self.name = name
        self.tracer = tracer
        #: per-size serialization times; traffic uses a handful of sizes
        #: (64 B lines dominate), so the float conversion runs once per
        #: size instead of once per packet.  A pure function of the
        #: bandwidth, so every channel of one rate shares the memo.
        self._tx_cache: Dict[int, int] = intern_memo(
            ("channel-tx", bandwidth_gb_per_s), dict)

    def serialization_ps(self, size_bytes: int) -> int:
        tx = self._tx_cache.get(size_bytes)
        if tx is None:
            tx = serialization_ps(size_bytes, self.bandwidth_gb_per_s)
            self._tx_cache[size_bytes] = tx
        return tx

    def queue_delay_ps(self) -> int:
        """How long a packet injected now would wait before transmitting."""
        return max(0, self.next_free - self.sim.now)

    def send(self, packet: Packet, on_arrival: Callable[..., None],
             site: Optional[int] = None) -> int:
        """Transmit ``packet``; returns the arrival time at the far end.

        The arrival event calls ``on_arrival(packet)``, or
        ``on_arrival(packet, site)`` when a ``site`` is given: a network
        whose arrival handling depends on the leg (a forwarder, a ring
        owner) passes it here instead of caching a per-site closure over
        itself, which would tie the network into a reference cycle."""
        now = self.sim.now
        next_free = self.next_free
        start = now if now >= next_free else next_free
        tx = self._tx_cache.get(packet.size_bytes)
        if tx is None:
            tx = self.serialization_ps(packet.size_bytes)
        end = start + tx
        self.next_free = end
        self.busy_ps += tx
        arrival = end + self.propagation_ps
        if self.tracer is not None:
            pid = packet.pid
            self.tracer.emit(now, tracing.ENQUEUE, pid=pid,
                             resource=self.name, start_ps=start,
                             end_ps=end)
            self.tracer.emit(start, tracing.TX_START, pid=pid,
                             resource=self.name, start_ps=start,
                             end_ps=end)
            self.tracer.emit(end, tracing.TX_END, pid=pid,
                             resource=self.name, start_ps=start,
                             end_ps=arrival)
        if site is None:
            self.sim.at(arrival, on_arrival, packet)
        else:
            self.sim.at(arrival, on_arrival, packet, site)
        return arrival

    def reserve(self, start_ps: int, duration_ps: int) -> None:
        """Mark the channel busy for an externally scheduled slot (used by
        the slotted two-phase network)."""
        self.next_free = max(self.next_free, start_ps + duration_ps)
        self.busy_ps += duration_ps


class InterSiteNetwork:
    """Abstract base for the five network architectures."""

    #: Human-readable name used in tables ('Point-to-Point', ...).
    name = "abstract"
    #: Section 4.1 taxonomy: "none" (no switching or routing),
    #: "circuit" (circuit switched), "arbitrated" (arbitration-based
    #: switching), or "electronic" (optical with electronic routing).
    switching_class = "abstract"
    #: the energy category each delivered off-site packet's transmit
    #: energy accrues to
    energy_category = "optical"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0) -> None:
        self.config = config
        self.sim = sim
        self.stats = NetworkStats(warmup_ps)
        #: the intra-site loopback delay (a config property computed
        #: from the clock; read once here instead of per packet)
        self._loopback_ps = config.loopback_latency_ps
        self._sink: Optional[Callable[[Packet], None]] = None
        #: optional structured-event recorder (repro.core.tracing); None
        #: by default so the hot paths pay one attribute test and nothing
        #: else.  Attach with set_tracer()/tracing.attach().
        self.tracer: Optional[TraceRecorder] = None
        self._owned_channels: List[Channel] = []
        # per-(size, hops) dynamic-energy cache: transmit_energy_pj is a
        # pure function of size and the (fixed) technology point, so the
        # float pipeline runs once per distinct key instead of per
        # packet.  The memo is interned per technology point — every
        # instance built from an equal tech shares (and helps fill) one
        # dict, and fork-based workers inherit the parent's fills
        # copy-on-write.
        self._energy_cache: Dict[Tuple[int, int], float] = intern_memo(
            ("energy_pj", config.tech), dict)

    # -- public interface -------------------------------------------------

    def set_sink(self, sink: Callable[[Packet], None]) -> None:
        """Register the callback invoked for every delivered packet."""
        self._sink = sink

    def set_tracer(self, tracer: Optional[TraceRecorder]) -> None:
        """Attach (or detach, with None) a structured-event recorder.

        Covers channels created both before and after the attachment —
        networks build channels lazily, so both orders occur.
        """
        self.tracer = tracer
        for ch in self._owned_channels:
            ch.tracer = tracer

    def invariant_capacities(self) -> Dict[str, int]:
        """Per-resource grant capacities for the exclusivity checker;
        resources not listed default to capacity 1."""
        return {}

    def inject(self, packet: Packet) -> None:
        """Accept a packet for delivery.  Subclasses route it."""
        now = self.sim.now
        packet.t_inject = now
        self.stats.injected_packets += 1  # inlined NetworkStats.on_inject
        if self.tracer is not None:
            self.tracer.emit(now, tracing.INJECT, pid=packet.pid,
                             src=packet.src, dst=packet.dst,
                             size_bytes=packet.size_bytes)
        if packet.src == packet.dst:
            self.sim.schedule(self._loopback_ps, self._deliver, packet)
            return
        self._route(packet)

    # -- subclass hooks ----------------------------------------------------

    def _route(self, packet: Packet) -> None:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _new_channel(self, bandwidth_gb_per_s: float, propagation_ps: int,
                     name: str) -> Channel:
        """Create a channel wired to this network's tracer (if any) and
        tracked so a later set_tracer() reaches it too."""
        ch = Channel(self.sim, bandwidth_gb_per_s, propagation_ps,
                     name=name, tracer=self.tracer)
        self._owned_channels.append(ch)
        return ch

    def _deliver(self, packet: Packet) -> None:
        """Record stats and dynamic energy (one
        :meth:`~repro.core.stats.NetworkStats.on_deliver` call), then
        hand the packet to the sink.  Subclasses call this (directly or
        via Channel callbacks) at arrival time."""
        now = self.sim.now
        packet.t_deliver = now
        if self.tracer is not None:
            self.tracer.emit(now, tracing.DELIVER, pid=packet.pid,
                             src=packet.src, dst=packet.dst,
                             size_bytes=packet.size_bytes)
        size = packet.size_bytes
        if packet.src != packet.dst:
            key = (size, packet.hops or 1)
            pj = self._energy_cache.get(key)
            if pj is None:
                pj = self._energy_cache[key] = self._transmit_energy_pj(*key)
            self.stats.on_deliver(now, packet.t_inject, size,
                                  self.energy_category, pj)
        else:
            # the electrical loopback costs no transmit energy
            self.stats.on_deliver(now, packet.t_inject, size)
        if packet.on_delivered is not None:
            packet.on_delivered(packet)
        if self._sink is not None:
            self._sink(packet)

    def _transmit_energy_pj(self, size_bytes: int, hops: int) -> float:
        """Dynamic energy of one ``size_bytes`` packet over ``hops``
        transmissions (filled once per key into ``_energy_cache``)."""
        return transmit_energy_pj(size_bytes, self.config.tech) * hops

    def propagation_ps(self, src: int, dst: int) -> int:
        return self.config.layout.propagation_delay_ps(src, dst)
