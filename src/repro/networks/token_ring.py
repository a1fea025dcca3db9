"""Token-ring optical crossbar — the Corona adaptation (section 4.4).

Topology: every destination site owns a waveguide bundle, shared by all
64 potential senders, that snakes past every site (boustrophedon ring on
the bottom substrate).  Access is arbitrated by one optical token per
destination circulating on a token bus along the same ring.  A sender
diverts the token when it passes, transmits one packet on the bundle, and
re-injects the token — which then travels *forward*, so reacquiring it
costs a full round trip (the ~80-cycle penalty that ruins one-to-one
patterns at macrochip scale, section 6.1).

Scaling effects the paper highlights, both modeled here:

* the macrochip ring is ~10x a single die, so the token round trip is
  ~80 cycles (16 ns) — derived from the layout's snake-ring length;
* off-resonance modulator rings force the WDM factor down to 2, which
  costs laser power (Table 5) but not bandwidth (more waveguides), so the
  bundle still delivers the full 320 GB/s per destination.

The token is simulated lazily: while nobody wants a destination, its
position is a closed-form function of time.  A request computes the next
token arrival directly; a request from a site the token has not yet
passed *preempts* a grant scheduled for a more distant site (the token is
physically diverted by whichever waiting sender it reaches first), which
generation counters implement without event cancellation.  The waiting
senders of a destination are one int bitmask over snake positions, and
both engines pick the next grant with one helper, :func:`next_grant`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .base import InterSiteNetwork, Packet
from ..core import tracing
from ..core.engine import Simulator
from ..core.interning import intern_memo, intern_table
from ..core.units import propagation_ps, serialization_ps
from ..core.vectorized import (KernelOutput, _dispatches_first,
                               injection_order, pair_propagation_table,
                               register_kernel)
from ..macrochip.config import MacrochipConfig


def next_grant(mask: int, n: int, hop: int, tok_pos: int, tok_time: int,
               now: int, min_offset: int, release_pos: int,
               release_at: int) -> Tuple[int, int]:
    """``(grant_time, src_pos)`` of the next grant: the waiter (a set bit
    of ``mask``, over snake positions ``0..n-1``) minimizing
    ``(grant_time, ring offset)``.

    The token was at ``tok_pos`` at ``tok_time`` and advances one
    position per ``hop`` ps; from its position ``pos`` at reference
    time ``at`` a waiter ``offset`` positions ahead is reached at
    ``grant_time = max(now, at + offset*hop)``.  ``min_offset=1`` is
    used after a grant: the re-injected token travels forward, so the
    releasing site cannot recapture it without a full round trip.  The
    releasing site ``release_pos`` sees the token again only at
    ``release_at`` (a full rotation after its release), so its grant
    time is bumped to at least that.

    Why two bit scans suffice: ``grant_time`` is non-decreasing in
    ``offset``, so the first waiter in ring order wins outright (ties
    go to the smaller offset) — unless it is the releasing site, whose
    time is bumped.  Then only the next waiter can beat it: every later
    one has a grant time no earlier than the next waiter's, and loses a
    tie to it.  ``mask`` must be non-zero.
    """
    if now <= tok_time:
        pos, at = tok_pos, tok_time
    else:
        hops = (now - tok_time) // hop
        pos = (tok_pos + hops) % n
        at = tok_time + hops * hop
    q = (pos + min_offset) % n
    rot = ((mask >> q) | (mask << (n - q))) & ((1 << n) - 1)
    o = (rot & -rot).bit_length() - 1
    grant_time = at + (min_offset + o) * hop
    if grant_time < now:
        grant_time = now
    p = (q + o) % n
    if p == release_pos:
        if grant_time < release_at:
            grant_time = release_at
        rest = rot & (rot - 1)  # the other waiters, already rotated
        if rest:
            o2 = (rest & -rest).bit_length() - 1
            g2 = at + (min_offset + o2) * hop
            if g2 < now:
                g2 = now
            if g2 < grant_time:
                return g2, (q + o2) % n
    return grant_time, p


class _TokenState:
    """Position/time of one destination's token plus its waiter queues."""

    __slots__ = ("pos", "time_ps", "busy", "holding", "generation",
                 "queues", "waiting_mask", "release_pos", "release_time")

    def __init__(self, num_sites: int) -> None:
        self.pos = 0  # snake position where the token was at `time_ps`
        self.time_ps = 0
        self.busy = False  # a grant chain is in progress
        self.holding = False  # a sender holds the token right now
        self.generation = 0  # invalidates superseded grant events
        #: per snake position, its waiting packets (a deque made on
        #: the position's first enqueue)
        self.queues: List[Optional[Deque[Packet]]] = [None] * num_sites
        #: bitmask of snake positions with a non-empty queue
        self.waiting_mask = 0
        self.release_pos = -1  # last releasing position: cannot re-grab
        self.release_time = 0  # ...until a full rotation after this time


class TokenRingCrossbar(InterSiteNetwork):
    """Corona-style token-arbitrated optical crossbar on the macrochip."""

    name = "Token Ring"
    switching_class = "arbitrated"

    def __init__(self, config: MacrochipConfig, sim: Simulator,
                 warmup_ps: int = 0,
                 grant_overhead_ps: int = 50) -> None:
        super().__init__(config, sim, warmup_ps)
        layout = config.layout
        n = layout.num_sites
        self.num_sites = n
        #: full 320 GB/s bundle into each destination (all site receivers)
        self.bundle_gb_per_s = (config.receivers_per_site
                                * config.wavelength_gb_per_s)
        ring_cm = layout.snake_ring_length_cm()
        self.rotation_ps = propagation_ps(ring_cm)
        self.hop_ps = max(1, self.rotation_ps // n)
        #: token absorb/re-inject cost per grant
        self.grant_overhead_ps = grant_overhead_ps
        self._token_table: List[Optional[_TokenState]] = [None] * n
        # snake-ring geometry: pure functions of the layout, interned so
        # every network built on one layout shares one copy
        self._snake_pos, self._snake_site = intern_table(
            ("snake-geometry", layout),
            lambda: ([layout.snake_position(s) for s in range(n)],
                     [layout.snake_site(p) for p in range(n)]))
        #: per-size cached bundle serialization times (pure memo on the
        #: bundle rate, shared across instances)
        self._tx_cache: Dict[int, int] = intern_memo(
            ("ring-tx", self.bundle_gb_per_s), dict)

    # -- token geometry ----------------------------------------------------

    def _token(self, dst: int) -> _TokenState:
        tok = self._token_table[dst]
        if tok is None:
            tok = _TokenState(self.num_sites)
            self._token_table[dst] = tok
        return tok

    def _token_position_at(self, tok: _TokenState, now_ps: int):
        """Advance a circulating token's closed-form position to
        ``now_ps``; returns (position, time_token_was_there)."""
        if now_ps <= tok.time_ps:
            return tok.pos, tok.time_ps
        hops = (now_ps - tok.time_ps) // self.hop_ps
        pos = (tok.pos + hops) % self.num_sites
        return pos, tok.time_ps + hops * self.hop_ps

    # -- routing -----------------------------------------------------------

    def _route(self, packet: Packet) -> None:
        packet.hops = 1
        tok = self._token_table[packet.dst]
        if tok is None:
            tok = self._token(packet.dst)
        pos = self._snake_pos[packet.src]
        queue = tok.queues[pos]
        if queue is None:
            queue = tok.queues[pos] = deque()
        queue.append(packet)
        tok.waiting_mask |= 1 << pos
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, tracing.ENQUEUE, pid=packet.pid,
                             resource="token:%d" % packet.dst)
        if not tok.busy:
            tok.busy = True
            self._schedule_next_grant(packet.dst, tok)
        elif not tok.holding:
            # the token is in flight toward a scheduled grant; a closer
            # waiting sender diverts it first, so recompute the next grant
            tok.generation += 1
            self._schedule_next_grant(packet.dst, tok)

    def _schedule_next_grant(self, dst: int, tok: _TokenState,
                             min_offset: int = 0) -> None:
        """Schedule the token's arrival at the next waiting source (see
        :func:`next_grant`), or idle the token if nobody waits."""
        if not tok.waiting_mask:
            tok.busy = False
            return
        grant_time, p = next_grant(
            tok.waiting_mask, self.num_sites, self.hop_ps, tok.pos,
            tok.time_ps, self.sim.now, min_offset, tok.release_pos,
            tok.release_time + self.rotation_ps)
        self.sim.at(grant_time, self._grant, dst, p, tok.generation)

    def _grant(self, dst: int, src_pos: int, generation: int) -> None:
        """The token reached a waiting sender: transmit one packet."""
        tok = self._token_table[dst]
        if generation != tok.generation:
            return  # superseded by a closer requester
        queue = tok.queues[src_pos]
        if not queue:  # pragma: no cover - defensive
            tok.waiting_mask &= ~(1 << src_pos)
            self._schedule_next_grant(dst, tok)
            return
        packet = queue.popleft()
        if not queue:
            tok.waiting_mask &= ~(1 << src_pos)
        tok.holding = True
        tx = self._tx_cache.get(packet.size_bytes)
        if tx is None:
            tx = serialization_ps(packet.size_bytes, self.bundle_gb_per_s)
            self._tx_cache[packet.size_bytes] = tx
        src_site = self._snake_site[src_pos]
        prop = self._prop_table[src_site * self.num_sites + dst]
        now = self.sim.now
        self.sim.at(now + tx + prop, self._deliver, packet)
        # token is re-injected after the transmission slot + overhead
        tok.pos = src_pos
        tok.time_ps = now + tx + self.grant_overhead_ps
        if self.tracer is not None:
            # the sender holds the destination's token from the grant
            # until re-injection; holds on one token must never overlap
            self.tracer.emit(now, tracing.GRANT, pid=packet.pid,
                             src=src_site, dst=dst,
                             resource="token:%d" % dst,
                             start_ps=now, end_ps=tok.time_ps)
        tok.release_pos = src_pos
        tok.release_time = tok.time_ps
        tok.generation += 1
        self.sim.at(tok.time_ps, self._resume, dst, tok.generation)

    def _resume(self, dst: int, generation: int) -> None:
        tok = self._token_table[dst]
        if generation != tok.generation:  # pragma: no cover - defensive
            return
        tok.holding = False
        self._schedule_next_grant(dst, tok, min_offset=1)


@register_kernel("token_ring")
def _vectorized_token_ring(net: TokenRingCrossbar, plan) -> KernelOutput:
    """Replay kernel: one two-way merge per destination, no event heap.

    Every token-ring event — injection, grant, re-injection resume —
    reads and writes a single destination's state, so destinations
    replay independently.  Each one merges its run of the
    :func:`~repro.core.vectorized.injection_order` stream, grouped by
    destination, with its single live protocol event, the next grant
    or the token's resume; a closer requester replaces an in-flight
    grant outright.  Keys
    (:func:`~repro.core.vectorized._dispatches_first`) are compared
    only when times tie, so the merge follows the engine's ``(time,
    seq)`` order exactly.  A grant or resume counts as dispatched when
    it is pushed at or before the horizon and leaves the run pending
    past it, which a superseded grant does too.  Loopback packets and
    the injector chain are counted in bulk.  Grants are selected by the
    same :func:`next_grant` call as the scalar model.  Deliveries come
    out in destination order.
    """
    import numpy as np

    n = net.num_sites
    pps = plan.pps
    horizon = plan.horizon_ps
    hop = net.hop_ps
    rotation = net.rotation_ps
    overhead = net.grant_overhead_ps
    tx = serialization_ps(plan.packet_bytes, net.bundle_gb_per_s)
    # [dst][pos]: propagation from the site at snake position pos
    prop = np.array(pair_propagation_table(net.config.layout),
                    dtype=np.int64).reshape(n, n)[net._snake_site].T.tolist()
    site_times = plan.site_times
    dsts = np.array([d[:pps] for d in plan.site_dsts],
                    dtype=np.int64).ravel()
    order = injection_order(plan, group=dsts)
    sites = order.j // pps
    dst = dsts[order.j]
    loopback = sites == dst
    loop_t = order.t[loopback]
    remote = ~loopback
    T = order.t[remote].tolist()
    J = order.j[remote].tolist()
    P = np.asarray(net._snake_pos)[sites[remote]].tolist()
    bounds = np.searchsorted(dst[remote], np.arange(n + 1)).tolist()
    injected = order.injected

    deliver_t = []
    deliver_i = []
    dispatched = injected
    pending = order.pending
    idle = horizon + 1  # the time of "no live protocol event"
    for dst in range(n):
        k = bounds[dst]
        end = bounds[dst + 1]
        if k == end:
            continue
        dst_prop = prop[dst]
        queues: List[Optional[Deque[int]]] = [None] * n
        # == _TokenState as constructed (release_at = release_time +
        # rotation)
        tok_pos = 0
        tok_time = 0
        mask = 0
        release_pos = -1
        release_at = rotation
        holding = False
        # the live protocol event: a grant to ev_pos, or a resume (-1)
        ev_t = idle
        ev_pos = -1
        ev_key = None
        while True:
            if k < end:
                t = T[k]
                if t < ev_t or (t == ev_t and not _dispatches_first(
                        ev_key, J[k], site_times, pps)):
                    pos = P[k]
                    queue = queues[pos]
                    if queue is None:
                        queue = queues[pos] = deque()
                    queue.append(t)
                    mask |= 1 << pos
                    if not holding:
                        # start the token, or divert the in-flight one
                        ev_t, ev_pos = next_grant(
                            mask, n, hop, tok_pos, tok_time, t, 0,
                            release_pos, release_at)
                        ev_key = (ev_t, J[k], 0)
                        if ev_t <= horizon:
                            dispatched += 1
                        else:
                            pending = True
                    k += 1
                    continue
            elif ev_t > horizon:
                break
            t = ev_t
            if ev_pos >= 0:  # grant: transmit one packet
                queue = queues[ev_pos]
                deliver_i.append(queue.popleft())
                if not queue:
                    mask ^= 1 << ev_pos
                deliver_t.append(t + tx + dst_prop[ev_pos])
                tok_pos = release_pos = ev_pos
                tok_time = t + tx + overhead
                release_at = tok_time + rotation
                holding = True
                ev_t = tok_time
                ev_pos = -1
                ev_key = (ev_t, ev_key, 1)
            else:  # resume: the token travels on from the releaser
                holding = False
                if not mask:
                    ev_t = idle
                    continue
                ev_t, ev_pos = next_grant(mask, n, hop, tok_pos, tok_time,
                                          t, 1, release_pos, release_at)
                ev_key = (ev_t, ev_key, 0)
            if ev_t <= horizon:
                dispatched += 1
            else:
                pending = True
    return KernelOutput(
        heap_events=dispatched, heap_pending=pending,
        deliver_t=np.concatenate((np.array(deliver_t, dtype=np.int64),
                                  loop_t + net.config.loopback_latency_ps)),
        deliver_inject=np.concatenate((np.array(deliver_i, dtype=np.int64),
                                       loop_t)),
        injected=injected)
