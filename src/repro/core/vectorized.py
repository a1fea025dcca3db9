"""Opt-in vectorized execution backend for ``run_load_point``.

The scalar engine (:mod:`repro.core.engine`) dispatches one Python
callback per event.  That is exact, flexible — and, for the six
fixed-function network models driven by the open-loop sweep harness, far
more general than needed: a load point's entire event population is
determined by the injection schedule plus each network's (small) piece
of arbitration state.  This module exploits that:

* **Injection schedules as arrays.**  The per-site gap/destination draws
  (shared verbatim with the scalar path — the same ``_draw_schedules``
  lists, so the schedules are bit-identical by construction)
  are turned into absolute per-site arrival arrays once, instead of one
  ``schedule()`` call per packet.  Replay kernels take them as one
  stream in the engine's dispatch order (:func:`injection_order`).
* **Bulk kernels for contention-free spans.**  Networks whose only
  shared resource is a per-pair FIFO channel (point-to-point, the
  electrical baseline) never need an event loop at all: per-channel
  delivery times follow the closed-form recurrence
  ``finish_i = max(t_i, finish_{i-1}) + tx``, evaluated for every packet
  at once with a segmented cumulative maximum.
* **Replay loops with batched terminal delivers** for the arbitrated
  networks (HERMES, and the calendar kernels below): a tight loop over
  flat integer state that merges the injection stream with the
  protocol events in the engine's ``(time, seq)`` dispatch order
  exactly — sequence numbers are allocated at the same points — while
  keeping *deliver* events out of the queue entirely.  ``_deliver`` is
  terminal in a sweep (no sink, no chained callbacks) and statistics
  are order-independent integer accumulations, so delivery times can
  be collected in arrays, in any order, and folded into the result at
  the end.
* **Per-destination merges** for the token ring, whose every event
  reads and writes one destination's token: each destination replays
  on its own as a two-way merge of its injections with its single
  live grant or resume, with no event queue and no sequence counter.
  Where times tie, the engine's ``seq`` order is rebuilt from the
  chain of events that scheduled each one.
* **Calendar-segmented replay** for kernels whose every dynamically
  scheduled event provably trails its scheduler by at least some width
  ``W`` (two-phase: the arbitration lead; circuit switched: data
  serialization + teardown; limited point-to-point: the channel
  serialization): events append to per-``W``-bucket lists and each
  bucket is sorted once at dispatch time, replacing per-event heap
  churn with C-level ``list.sort`` while preserving the exact
  ``(time, seq)`` dispatch order.

Every network the sweeps drive — HERMES's snoopy broadcast included —
has a registered kernel.  The backend is **opt-in**
(``run_load_point(..., backend="vectorized")``) and falls back to the
scalar engine — silently, with identical results — whenever exactness
would require the real event loop: a tracer is attached, invariant
checking is on, numpy is unavailable, or the network has no registered
kernel.  The equivalence contract — bit-equal
:class:`~repro.core.sweep.LoadPointResult` fields and byte-identical
canonical traces — is locked by ``tests/test_fastpath_equivalence.py``.

numpy itself is an *optional* dependency (``pip install repro[fast]``):
without it every request degrades gracefully to the python backend and
:func:`require_numpy` explains how to enable the fast path.  It is
imported on the first vectorized load point (or the first
:func:`have_numpy` / :func:`require_numpy` call), not when this module
loads: the network modules import this one to register their kernels,
so a python-backend run never loads numpy at all.
"""

from __future__ import annotations

import math
import warnings
from itertools import accumulate
from typing import Any, Callable, Dict, List, NamedTuple, Optional

#: the numpy module once :func:`_load_numpy` has imported it, else None
#: — kernels run only after a successful load (``try_run_vectorized``
#: guarantees it), so they and their helpers read it freely
np: Any = None
#: :func:`_load_numpy`'s memo: None before the first attempt, then
#: whether numpy imported
_numpy_loaded: Optional[bool] = None

NUMPY_HINT = (
    "the vectorized backend needs numpy, which is an optional extra: "
    "install it with `pip install repro[fast]` (or `pip install numpy`). "
    "Without it, backend='vectorized' falls back to the exact python "
    "engine — same results, scalar speed."
)


def _load_numpy() -> bool:
    """Import numpy on first need and remember the outcome: whether it
    imported (binding :data:`np`) or is missing."""
    global np, _numpy_loaded
    if _numpy_loaded is None:
        try:
            import numpy
        except ImportError:  # pragma: no cover - CI's numpy-less tier-1
            _numpy_loaded = False
        else:
            np = numpy
            _numpy_loaded = True
    return _numpy_loaded


def have_numpy() -> bool:
    """True when numpy imports and bulk kernels can run (imports it)."""
    return _load_numpy()


def require_numpy() -> None:
    """Raise ``ImportError`` with the install hint when numpy is absent.

    Used by callers for whom silent fallback would be misleading (the
    vectorized benchmark, for one: comparing python vs python proves
    nothing).  Library paths never call this — they degrade gracefully.
    """
    if not _load_numpy():
        raise ImportError(NUMPY_HINT)


#: network-key -> kernel registry.  Kernels are registered by the
#: network modules at import time (the factory imports them all), so any
#: network reachable through ``build_network`` has had the chance to
#: register.  A kernel takes ``(net, plan)`` — the run context's built
#: network (only derived constants and interned tables are read, no
#: events ever run through it) and an
#: :class:`InjectionPlan` — and returns a :class:`KernelOutput`.
_KERNELS: Dict[str, Callable[..., "KernelOutput"]] = {}


def register_kernel(name: str):
    """Class of decorators: ``@register_kernel("point_to_point")``."""

    def deco(fn):
        _KERNELS[name] = fn
        return fn

    return deco


def vectorized_networks() -> List[str]:
    """Sorted network keys with a registered bulk/replay kernel."""
    return sorted(_KERNELS)


class KernelOutput(NamedTuple):
    """What a kernel hands back for shared result assembly.

    ``deliver_t``/``deliver_inject`` hold one entry per *scheduled*
    deliver event — including those past the horizon, which the engine
    would have left undispatched; the assembler applies the horizon.
    The pairs may come in any order: the result depends only on their
    multiset (the token-ring kernel emits them per destination).
    ``heap_events`` counts every dispatched non-deliver event (the
    injector chain included) and ``heap_pending`` whether any
    non-deliver event remained queued past the horizon.
    """

    heap_events: int
    heap_pending: bool
    deliver_t: Any  # sequence of int delivery times (list or ndarray)
    deliver_inject: Any  # matching injection times
    injected: int


class InjectionPlan:
    """The injection schedule plus run geometry a kernel consumes.

    Built once per load point from the *same* per-site gap/destination
    draws the scalar path uses (see ``repro.core.sweep``), so the
    absolute arrival times — plain prefix sums of the gap lists — are
    bit-identical to what the scalar injector chain would produce.
    Bulk kernels read the per-site schedules; replay kernels read them
    as one stream in dispatch order (:func:`injection_order`).
    """

    __slots__ = ("num_sites", "pps", "packet_bytes", "horizon_ps",
                 "warmup_ps", "window_end_ps", "site_gaps", "site_dsts",
                 "_times_list", "_times_np")

    def __init__(self, num_sites: int, pps: int, packet_bytes: int,
                 horizon_ps: int, warmup_ps: int, window_end_ps: int,
                 site_gaps: List[List[int]],
                 site_dsts: List[List[int]]) -> None:
        self.num_sites = num_sites
        self.pps = pps
        self.packet_bytes = packet_bytes
        self.horizon_ps = horizon_ps
        self.warmup_ps = warmup_ps
        self.window_end_ps = window_end_ps
        self.site_gaps = site_gaps
        self.site_dsts = site_dsts
        self._times_list: Optional[List[List[int]]] = None
        self._times_np = None

    @property
    def site_times(self) -> List[List[int]]:
        """Absolute injection times per site (exact Python ints)."""
        if self._times_list is None:
            self._times_list = [list(accumulate(gaps[: self.pps]))
                                for gaps in self.site_gaps]
        return self._times_list

    @property
    def site_times_np(self):
        """The same schedules as per-site int64 arrays (bulk kernels)."""
        if self._times_np is None:
            self._times_np = [np.asarray(times, dtype=np.int64)
                              for times in self.site_times]
        return self._times_np


class InjectionOrder(NamedTuple):
    """:func:`injection_order`'s stream: the flat indices ``site*pps +
    idx`` and times of the in-horizon injections (int64 arrays), their
    count, whether any injection fell past the horizon, and per site
    the ``seq`` the engine stamped on its next injection —
    ``run_load_point`` stamps the first ones ``0..num_sites-1``, so the
    first free ``seq`` is ``num_sites``.  A kernel restamps a site as
    each of its injections dispatches and pushes the next."""

    j: Any
    t: Any
    injected: int
    pending: bool
    site_seq: List[int]


def injection_order(plan: InjectionPlan, group=None) -> InjectionOrder:
    """The plan's in-horizon injections in the engine's dispatch order.

    Sorted by time — by ``(group, time)`` with ``group``, an int64
    array over flat injection indices, for a kernel that replays each
    group on its own — with each tied run in :func:`_injection_key`
    order, the order of the ``seq`` the engine stamped on them.  Each
    site's injections come in index order.  A kernel merges the stream
    with its protocol events on ``(time, seq)``.
    """
    pps = plan.pps
    site_times = plan.site_times
    times = np.array(site_times, dtype=np.int64).ravel()
    if group is None:
        j = np.argsort(times, kind="stable")
    else:
        j = np.lexsort((times, group))
    t = times[j]
    live = t <= plan.horizon_ps
    j = j[live]
    t = t[live]
    tied = t[1:] == t[:-1]
    if group is not None:
        g = group[j]
        tied &= g[1:] == g[:-1]
    ties = np.flatnonzero(tied)
    if ties.size:  # tied runs: into the engine's seq order
        gap = ties[1:] != ties[:-1] + 1
        starts = ties[np.r_[True, gap]].tolist()
        stops = (ties[np.r_[gap, True]] + 2).tolist()
        for a, b in zip(starts, stops):
            j[a:b] = sorted(j[a:b].tolist(), key=lambda x: _injection_key(
                x, site_times, pps))
    return InjectionOrder(j, t, j.size, j.size < times.size,
                          list(range(plan.num_sites)))


def _injection_key(j: int, site_times: List[List[int]], pps: int):
    """Order of injection ``j`` (flat ``site*pps + idx``) among the
    injections at its time (see :func:`_dispatches_first`): its site's
    injection times newest first, then the site."""
    site, idx = divmod(j, pps)
    return site_times[site][idx::-1], site


def _parent(event, site_times: List[List[int]], pps: int):
    """``(parent, push_index, parent_time)`` of a kernel event, or None
    for a site's first injection."""
    if type(event) is int:
        site, idx = divmod(event, pps)
        if not idx:
            return None
        return event - 1, 1, site_times[site][idx - 1]
    _, parent, push = event
    if type(parent) is tuple:
        return parent, push, parent[0]
    return parent, push, site_times[parent // pps][parent % pps]


def _dispatches_first(x, y, site_times: List[List[int]], pps: int) -> bool:
    """Whether event ``x`` precedes event ``y`` in the engine's
    ``(time, seq)`` order; both fall at the same time and differ.

    An injection is its flat index ``site*pps + idx`` (an int), a
    protocol event the tuple ``(time, parent, push_index)``.  The
    engine stamps ``seq`` when an event is pushed, that is while its
    parent dispatches, so ``(time, seq)`` sorts exactly like ``(time,
    key(parent), push_index)``.  ``run_load_point`` stamped every site's
    first injection, in site order, before anything ran: its key is
    ``(time, (), site)``.  Walk both parent chains back until the parents' times
    differ, the parents meet or both are injections.  An injection is
    pushed by its site's previous injection, at index 1 (after the
    event that injection's routing pushed, at 0), so two injections'
    keys unroll to :func:`_injection_key`.
    """
    while type(x) is not int or type(y) is not int:
        px = _parent(x, site_times, pps)
        py = _parent(y, site_times, pps)
        if py is None:  # y is a first injection, x a protocol event
            return False
        if px is None:
            return True
        xp, xi, xt = px
        yp, yi, yt = py
        if xp is yp or (type(xp) is int and xp == yp):
            return xi < yi
        if xt != yt:
            return xt < yt
        x, y = xp, yp
    return (_injection_key(x, site_times, pps)
            < _injection_key(y, site_times, pps))


def pair_propagation_table(layout) -> List[int]:
    """Flat ``src*n+dst`` optical propagation table for a layout.

    The same per-pair values every network's lazy lookups resolve to
    (``layout.propagation_delay_ps``); fully materialized and interned
    per layout so kernels gather from one shared list.
    """
    from .interning import intern_table

    n = layout.num_sites
    return intern_table(
        ("vec-pair-prop", layout),
        lambda: [layout.propagation_delay_ps(s, d)
                 for s in range(n) for d in range(n)])


#: whether this process already warned about a missing numpy
_warned_no_numpy = False


def warn_numpy_fallback(stacklevel: int = 3) -> None:
    """Warn (once per process) that ``backend='vectorized'`` resolved
    to the scalar python engine because numpy is missing."""
    global _warned_no_numpy
    if _warned_no_numpy:
        return
    _warned_no_numpy = True
    warnings.warn(
        "%s [backend='vectorized' requested; resolved backend: python]"
        % NUMPY_HINT, RuntimeWarning, stacklevel=stacklevel + 1)


def try_run_vectorized(ctx,
                       pattern,
                       offered_fraction: float,
                       inject_window_ps: int,
                       packets_per_site: int,
                       horizon_ps: int,
                       site_gaps: List[List[int]],
                       site_dsts: List[List[int]],
                       tracer,
                       check_invariants: bool):
    """Run one load point through a registered kernel, or return None.

    ``ctx`` is the run's :class:`~repro.core.parallel.SimContext`: the
    kernel reads its built network, and packets are one cache line of
    its config.  ``None`` means "use the scalar engine" — either numpy
    is missing, the run needs real event dispatch (tracer /
    invariants), or the network has no kernel.  The fallback is silent
    by design (except the once-per-process missing-numpy warning):
    results are identical either way, and ``run_figure6`` passes
    ``backend=`` through unconditionally.
    """
    if not _load_numpy():
        warn_numpy_fallback()
        return None
    if tracer is not None or check_invariants:
        return None
    network_name = ctx.network_name
    kernel = _KERNELS.get(network_name)
    if kernel is None:
        return None

    plan = InjectionPlan(len(site_gaps), packets_per_site,
                         ctx.network.config.cache_line_bytes,
                         horizon_ps, ctx.warmup_ps, inject_window_ps,
                         site_gaps, site_dsts)
    return _assemble_result(network_name, pattern.name, offered_fraction,
                            plan, kernel(ctx.network, plan))


def _assemble_result(network_name: str, pattern_name: str,
                     offered_fraction: float, plan: InjectionPlan,
                     out: KernelOutput):
    """Fold a kernel's delivery arrays into a LoadPointResult.

    Every arithmetic step mirrors the scalar collectors operation for
    operation — integer sums, ``(sum / n) / 1000.0`` mean, nearest-rank
    percentile over sorted *distinct* values, ``bytes * 1000.0 /
    max(1, last - warmup)`` throughput — so the floats come out
    bit-equal, not merely close.  The saturation verdict is the scalar
    path's rule, :data:`repro.core.sweep.SATURATION_THRESHOLD`.
    """
    from .sweep import SATURATION_THRESHOLD, LoadPointResult

    horizon = plan.horizon_ps
    warmup = plan.warmup_ps
    # capped at the horizon, so in-window implies dispatched
    window_end = min(plan.window_end_ps, horizon)

    dt = np.asarray(out.deliver_t, dtype=np.int64)
    di = np.asarray(out.deliver_inject, dtype=np.int64)
    pending = out.heap_pending
    delivered = 0
    mean_lat = float("nan")
    p99 = float("nan")
    throughput = 0.0
    if dt.size:
        dispatched = dt <= horizon
        delivered = int(dispatched.sum())
        if delivered < dt.size:
            pending = True
        in_window = (dt >= warmup) & (dt <= window_end)
        n_in = int(in_window.sum())
        if n_in:
            lat = dt[in_window] - di[in_window]
            lat_sum = int(lat.sum())
            mean_lat = (lat_sum / n_in) / 1000.0
            rank = max(1, int(math.ceil(99.0 / 100.0 * n_in)))
            values, counts = np.unique(lat, return_counts=True)
            cum = np.cumsum(counts)
            p99 = int(values[int(np.searchsorted(cum, rank))]) / 1000.0
            last = int(dt[in_window].max())
            throughput = (n_in * plan.packet_bytes) * 1000.0 / max(
                1, last - warmup)

    return LoadPointResult(
        network=network_name,
        pattern=pattern_name,
        offered_fraction=offered_fraction,
        mean_latency_ns=mean_lat,
        p99_latency_ns=p99,
        throughput_gb_per_s=throughput,
        delivered_packets=delivered,
        injected_packets=out.injected,
        saturated=delivered < out.injected * SATURATION_THRESHOLD,
        events_dispatched=out.heap_events + delivered,
        stop_reason="horizon" if pending else "drained",
        stopped_at_ps=horizon,
    )


def fifo_channel_delivery(np_mod, key, t, tx: int, prop):
    """Closed-form per-channel FIFO service for channel networks.

    ``key`` assigns each send to its channel, ``t`` is the send time
    (both int64 arrays in any order), ``tx`` the (shared) serialization
    time, ``prop[key]`` the per-channel propagation.  Returns
    ``(deliver_times, order)`` where ``order`` is the stable sort
    permutation applied — gather any per-packet auxiliary array (e.g.
    injection times) through it to stay aligned with ``deliver_times``.

    The engine's ``Channel.send`` recurrence is
    ``finish_i = max(t_i, finish_{i-1}) + tx`` per channel in dispatch
    order.  Substituting ``g_i = finish_i - tx*(i+1)`` (local index)
    turns it into a running maximum ``g_i = max(t_i - tx*i, g_{i-1})``,
    which a segmented cumulative maximum evaluates for every channel at
    once.  The stable sort preserves each channel's dispatch order
    (send times are non-decreasing per channel by construction).
    """
    np = np_mod
    order = np.argsort(key, kind="stable")
    sk = key[order]
    st = t[order]
    n_tot = sk.shape[0]
    boundaries = np.empty(n_tot, dtype=bool)
    boundaries[0] = True
    np.not_equal(sk[1:], sk[:-1], out=boundaries[1:])
    seg_ids = np.cumsum(boundaries) - 1
    first_idx = np.flatnonzero(boundaries)
    local = np.arange(n_tot, dtype=np.int64) - first_idx[seg_ids]
    v = st - tx * local
    span = int(v.max()) - int(v.min()) + 1
    bumped = v + seg_ids * span
    run_max = np.maximum.accumulate(bumped) - seg_ids * span
    finish = run_max + tx * (local + 1)
    return finish + prop[sk], order
