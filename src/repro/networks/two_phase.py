"""Two-phase arbitrated switched optical network (section 4.3).

Topology: all 8 sites in a row share a 16-bit, 40 GB/s optical channel to
each destination site — 512 shared channels on the 8x8 macrochip, each a
pair of waveguide segments fed through broadband switches.  A site selects
*which destination in a column* it feeds with a per-column tree of
broadband switches, so a site can transmit to at most one destination per
column at a time (at most 8 simultaneous 40 GB/s streams).

Arbitration is fully distributed and two-phase (the macrochip is
mesochronous, so every site in an arbitration domain computes the same
slot assignment):

* **Phase 1** — the sender broadcasts a request on its row's request
  waveguide; every site in the domain assigns the same data slot ``Tr``
  to the request, round-robin per destination (modeled as FIFO reservation
  of the shared channel's timeline).
* **Phase 2** — the destination's column manager broadcasts a switch
  notification on the column's notification waveguide; the row feed
  switches and the destination input switch are set before ``Tr``.

**Switch-tree contention** — the mechanism behind the paper's low
sustained bandwidth: slot assignment is per-channel and knows nothing
about the sender's switch trees.  If the sender's tree for that column is
still busy with a transmission to a *different* destination when ``Tr``
arrives, the slot is wasted (the channel stays reserved but idle) and the
packet must re-arbitrate.  The ALT variant doubles the switch trees (and
transmitters/laser power) per column to halve this contention.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .base import Channel, InterSiteNetwork, Packet
from ..core import tracing
from ..core.engine import Simulator
from ..core.interning import intern_memo, intern_table
from ..core.units import propagation_ps, serialization_ps
from ..core.vectorized import (KernelOutput, injection_order,
                               pair_propagation_table, register_kernel)
from ..macrochip.config import MacrochipConfig


#: basic arbitration/data slot: 0.4 ns (section 4.3)
ARB_SLOT_PS = 400


class TwoPhaseArbitratedNetwork(InterSiteNetwork):
    """Shared-row-channel network with two-phase distributed arbitration."""

    name = "2-Phase Arb."
    switching_class = "arbitrated"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0,
                 trees_per_column: int = 1,
                 channel_wavelengths: int = 16,
                 switch_setup_ps: int = 500,
                 tree_reconfig_ps: int = 30000) -> None:
        super().__init__(config, sim, warmup_ps)
        layout = config.layout
        self.trees_per_column = trees_per_column
        self.channel_gb_per_s = (channel_wavelengths
                                 * config.wavelength_gb_per_s)
        self.switch_setup_ps = switch_setup_ps
        #: retuning a switch tree to a different destination in its column
        #: takes this long; the notification is timed to accommodate it
        #: (section 4.3: "timed to accommodate the switch delay"), so a
        #: tree must have been idle for the reconfiguration window before
        #: a slot targeting a new destination can use it.  The 30 ns
        #: default (150 cycles) is the calibration point at which the
        #: network saturates at the paper's ~7.5%-of-peak on uniform
        #: traffic; see EXPERIMENTS.md.
        self.tree_reconfig_ps = tree_reconfig_ps
        #: request broadcast flight time along a full row
        self.request_prop_ps = propagation_ps(layout.row_span_cm)
        #: switch-notification flight time along a full column
        self.notify_prop_ps = propagation_ps(layout.col_span_cm)
        # combined request->slot lead time: request flight + one arb slot
        # + notification flight + switch setup (one add per arbitration
        # instead of four)
        self._arb_lead_ps = (self.request_prop_ps + ARB_SLOT_PS
                             + self.notify_prop_ps + self.switch_setup_ps)
        n = layout.num_sites
        self._num_sites = n
        self._cols = layout.cols
        # precomputed coordinate tables: row of a source, column of a
        # destination (the only geometry the protocol consults per
        # packet) — pure functions of the layout, interned per layout
        self._row_of, self._col_of = intern_table(
            ("2ph-rowcol", layout),
            lambda: ([layout.coords(s)[0] for s in range(n)],
                     [layout.coords(s)[1] for s in range(n)]))
        # shared channel per (row, destination), flat row*n+dst table
        self._channel_table: List[Optional[Channel]] = [None] * (layout.rows * n)
        # per (site, column): [busy_until, configured_destination] per
        # tree, flat site*cols+col table
        self._tree_table: List[Optional[List[List[int]]]] = \
            [None] * (n * layout.cols)
        #: per-size cached data-slot durations — a pure memo on channel
        #: bandwidth, shared across instances of the same rate
        self._slot_cache: Dict[int, int] = intern_memo(
            ("2ph-slots", self.channel_gb_per_s), dict)
        #: wasted data slots (tree contention), for tests and diagnostics
        self.wasted_slots = 0
        self.granted_slots = 0

    # -- resources ---------------------------------------------------------

    def channel(self, row: int, dst: int) -> Channel:
        idx = row * self._num_sites + dst
        ch = self._channel_table[idx]
        if ch is None:
            # propagation: worst leg of the shared channel, row + column
            prop = propagation_ps(self.config.layout.row_span_cm / 2.0
                                  + self.config.layout.col_span_cm / 2.0)
            ch = self._new_channel(self.channel_gb_per_s, prop,
                                   name="2ph[row=%d->%d]" % (row, dst))
            self._channel_table[idx] = ch
        return ch

    def _tree_slots(self, site: int, col: int) -> List[List[int]]:
        idx = site * self._cols + col
        slots = self._tree_table[idx]
        if slots is None:
            # busy_until starts in the distant past: an untouched tree has
            # had ample time to be configured during the lead window
            slots = [[-(10 ** 15), -1] for _ in range(self.trees_per_column)]
            self._tree_table[idx] = slots
        return slots

    def slot_duration_ps(self, size_bytes: int) -> int:
        """Data slots are integral multiples of the basic slot."""
        dur = self._slot_cache.get(size_bytes)
        if dur is None:
            raw = serialization_ps(size_bytes, self.channel_gb_per_s)
            dur = -(-raw // ARB_SLOT_PS) * ARB_SLOT_PS
            self._slot_cache[size_bytes] = dur
        return dur

    # -- protocol ----------------------------------------------------------

    def _arbitrate(self, packet: Packet) -> None:
        """Phase 1: post the request; all domain members assign slot Tr.

        The earliest slot is request flight + arb slot + notification
        flight + switch setup after "now" (precombined in _arb_lead_ps).
        This is also the network's ``_route``: ``inject`` hands a packet
        straight to arbitration, and a re-arbitration sets ``hops`` to
        the 1 it already is.
        """
        packet.hops = 1
        row = self._row_of[packet.src]
        ch = self._channel_table[row * self._num_sites + packet.dst]
        if ch is None:
            ch = self.channel(row, packet.dst)
        now = self.sim.now
        earliest_tr = now + self._arb_lead_ps
        dur = self._slot_cache.get(packet.size_bytes)
        if dur is None:
            dur = self.slot_duration_ps(packet.size_bytes)
        next_free = ch.next_free
        tr = earliest_tr if earliest_tr >= next_free else next_free
        # Channel.reserve(tr, dur), whose max() is tr + dur: tr >= next_free
        ch.next_free = tr + dur
        ch.busy_ps += dur
        if self.tracer is not None:
            # slot reservation on the shared channel timeline: exclusive
            # for [tr, tr+dur) whether or not the slot ends up used
            self.tracer.emit(now, tracing.GRANT, pid=packet.pid,
                             resource="slot:" + ch.name,
                             start_ps=tr, end_ps=tr + dur)
        self.sim.at(tr, self._slot_begins, packet, dur)

    _route = _arbitrate

    def _slot_begins(self, packet: Packet, dur: int) -> None:
        """Phase 2 happened; at Tr the sender needs a switch tree for the
        destination's column that is either already configured for this
        destination, or has been idle long enough to have been retuned
        during the notification lead time.  Otherwise the reserved slot is
        wasted — the channel stays idle for it — and the packet must
        re-arbitrate from scratch."""
        src = packet.src
        dst = packet.dst
        trees = self._tree_table[src * self._cols + self._col_of[dst]]
        if trees is None:
            trees = self._tree_slots(src, self._col_of[dst])
        now = self.sim.now
        # prefer an already-configured tree, else the longest idle; the
        # first of equals wins
        best = None
        for tree in trees:
            busy_until = tree[0]
            if tree[1] == dst:
                if busy_until <= now and (best is None or best[1] != dst
                                          or busy_until < best[0]):
                    best = tree
            elif (busy_until + self.tree_reconfig_ps <= now
                  and (best is None
                       or (best[1] != dst and busy_until < best[0]))):
                best = tree
        if best is not None:
            best[0] = now + dur
            best[1] = dst
            self.granted_slots += 1
            if self.tracer is not None:
                idx = next(i for i, tree in enumerate(trees)
                           if tree is best)
                self.tracer.emit(now, tracing.GRANT, pid=packet.pid,
                                 resource="tree:%d.%d/%d"
                                 % (src, self._col_of[dst], idx),
                                 start_ps=now, end_ps=now + dur)
            arrival = now + dur + self._prop_table[src * self._num_sites + dst]
            self.sim.at(arrival, self._deliver, packet)
            return
        # tree contention: the reserved slot is wasted, re-arbitrate
        self.wasted_slots += 1
        if self.tracer is not None:
            row = self._row_of[src]
            self.tracer.emit(now, tracing.WASTE, pid=packet.pid,
                             resource="slot:2ph[row=%d->%d]" % (row, dst),
                             start_ps=now, end_ps=now + dur)
        self.sim.schedule(ARB_SLOT_PS, self._arbitrate, packet)


@register_kernel("two_phase")
@register_kernel("two_phase_alt")
def _vectorized_two_phase(net: TwoPhaseArbitratedNetwork,
                          plan) -> KernelOutput:
    """Replay kernel: slot reservation + switch-tree state, flat.

    Wasted slots re-arbitrate against the live shared-channel timeline,
    so dispatch order is load-bearing and the load point replays the
    engine's ``(time, seq)`` dispatch order exactly.  Instead of one
    big heap, events are *segmented into calendar buckets* one
    ``ARB_SLOT_PS`` wide: a slot begins at least ``_arb_lead_ps``
    (> one slot) after its arbitration and a wasted slot re-arbitrates
    exactly one slot later, so no protocol event ever lands in the
    bucket currently being dispatched — each bucket's population is
    complete before it is sorted, replacing O(log n) heap churn per
    event with an amortized append + one C-level sort per bucket.
    Injections (whose gaps can be arbitrarily small) come from the
    :func:`~repro.core.vectorized.injection_order` stream, walked with
    an index; a same-picosecond tie with a bucket event compares the
    injection's ``seq`` (each site keeps the scheduling-order place of
    its next injection) against the event's, so ties resolve exactly as
    the engine's same-time batches do.  Events scheduled past the horizon are
    counted as pending and never stored (the engine would never
    dispatch them).  Delivers are batched out of the replay entirely
    (terminal in a sweep).  Reads every knob off the instance
    (``trees_per_column`` included), so the same kernel serves both
    the base network and the ALT variant.
    """
    n = net._num_sites
    cols = net.config.layout.cols
    pps = plan.pps
    horizon = plan.horizon_ps
    loop_ps = net.config.loopback_latency_ps
    lead = net._arb_lead_ps
    reconfig = net.tree_reconfig_ps
    trees_per_column = net.trees_per_column
    dur = net.slot_duration_ps(plan.packet_bytes)
    prop = pair_propagation_table(net.config.layout)
    row_of = net._row_of
    col_of = net._col_of
    ch_next_free = [0] * (net.config.layout.rows * n)
    tree_table: List[Optional[List[List[int]]]] = [None] * (n * cols)
    idle_since = -(10 ** 15)  # untouched trees: idle since the distant past

    W = ARB_SLOT_PS
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
                    key = row_of[site] * n + dst
                    nf = ch_next_free[key]
                    tr = t + lead
                    if tr < nf:
                        tr = nf
                    ch_next_free[key] = tr + dur
                    if tr > horizon:
                        pending = True
                    else:
                        lst = buckets[tr // W]
                        if lst is None:
                            buckets[tr // W] = [(tr, seq, 1, site, dst, t)]
                        else:
                            lst.append((tr, seq, 1, site, dst, t))
                    seq += 1
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
                trees = tree_table[src * cols + col_of[dst]]
                if trees is None:
                    trees = tree_table[src * cols + col_of[dst]] = \
                        [[idle_since, -1] for _ in range(trees_per_column)]
                best = None
                for tree in trees:
                    busy_until = tree[0]
                    ready = 0 if tree[1] == dst else 1
                    if busy_until + (reconfig if ready else 0) <= t:
                        key = (ready, busy_until)
                        if best is None or key < best[0]:
                            best = (key, tree)
                if best is not None:
                    tree = best[1]
                    tree[0] = t + dur
                    tree[1] = dst
                    deliver_t.append(t + dur + prop[src * n + dst])
                    deliver_i.append(c)
                    seq += 1
                else:
                    # tree contention: slot wasted, re-arbitrate next slot
                    tr = t + W
                    if tr > horizon:
                        pending = True
                    else:
                        lst = buckets[tr // W]
                        if lst is None:
                            buckets[tr // W] = [(tr, seq, 2, src, dst, c)]
                        else:
                            lst.append((tr, seq, 2, src, dst, c))
                    seq += 1
            else:
                key = row_of[src] * n + dst
                nf = ch_next_free[key]
                tr = t + lead
                if tr < nf:
                    tr = nf
                ch_next_free[key] = tr + dur
                if tr > horizon:
                    pending = True
                else:
                    lst = buckets[tr // W]
                    if lst is None:
                        buckets[tr // W] = [(tr, seq, 1, src, dst, c)]
                    else:
                        lst.append((tr, seq, 1, src, dst, c))
                seq += 1
    return KernelOutput(heap_events=dispatched, heap_pending=pending,
                        deliver_t=deliver_t, deliver_inject=deliver_i,
                        injected=injected)


class TwoPhaseAltNetwork(TwoPhaseArbitratedNetwork):
    """The '2-Phase Arb ALT' variant: double switch trees (and double
    transmitters/laser power, accounted in the power model) to reduce
    tree contention (sections 4.3, 6.2)."""

    name = "2-Phase Arb. ALT"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0, **kwargs) -> None:
        kwargs.setdefault("trees_per_column", 2)
        super().__init__(config, sim, warmup_ps, **kwargs)
