"""Open-loop load sweeps: the harness behind Figure 6.

Every site injects fixed-size packets (64 B cache lines) with exponential
inter-arrival times at a configured *offered load*, expressed as a
fraction of the per-site peak of 320 bytes/ns, exactly the x-axis of
Figure 6.  Injection runs for a fixed window; the simulation then drains
(up to a bounded horizon, since a saturated network never finishes) and we
report mean delivered latency and sustained throughput measured after a
warmup interval.

Saturation shows up exactly as in the paper: past the knee, throughput
plateaus and latency grows with the measurement window (the vertical
asymptote of the latency-load curve).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from collections import OrderedDict

from .parallel import (Shard, ShardError, SimContext, WorkerPool,
                       derive_seed, get_context, run_sharded)
from .tracing import TraceRecorder
from .units import serialization_ps
from ..macrochip.config import MacrochipConfig
from ..networks.base import Packet
from ..workloads.synthetic import TrafficPattern


@dataclass(frozen=True)
class LoadPointResult:
    """One (network, pattern, load) measurement."""

    network: str
    pattern: str
    offered_fraction: float
    mean_latency_ns: float
    p99_latency_ns: float
    throughput_gb_per_s: float  # aggregate delivered, measured window
    delivered_packets: int
    injected_packets: int
    saturated: bool
    #: simulator events dispatched — deterministic for a fixed seed, so
    #: it participates in the bit-identical serial-vs-parallel contract
    events_dispatched: int = 0
    #: why the simulation ceased: 'drained' (queue emptied before the
    #: horizon) or 'horizon' (window + drain fully simulated with events
    #: still pending)
    stop_reason: str = "horizon"
    #: simulation clock when it ceased: always the horizon,
    #: ``int(window_ns * 1000 * (1 + drain_factor))``
    stopped_at_ps: int = 0


class _DrawBank:
    """Per-(seed, pattern, sites) injection draw streams.

    A load point's injection schedule is built from two per-site RNG
    streams: inter-arrival gaps and destinations.  The destination
    stream depends only on ``(seed, site, pattern)`` — not on the
    offered load — and the pattern's ``unit_gaps`` draws are
    load-independent by contract, so the bank stores both per site and
    :func:`_draw_schedules` turns the stored draws into one load's gaps
    with the pattern's ``scale_gaps``.

    One bank therefore serves *every* load point of a sweep (and every
    network — schedules are network-independent), with each site's
    stream prefix growing monotonically.  Warm runs share interned
    banks (:func:`_get_draw_bank`); ``warm=False`` runs get a private
    one.
    """

    __slots__ = ("pattern", "seed", "num_sites", "_gap_rngs",
                 "_site_patterns", "_unit", "_dsts")

    def __init__(self, pattern: TrafficPattern, seed: int,
                 num_sites: int) -> None:
        self.pattern = pattern
        self.seed = seed
        self.num_sites = num_sites
        self._gap_rngs = [random.Random(derive_seed(seed, "gap", site))
                          for site in range(num_sites)]
        self._site_patterns = [pattern.split(derive_seed(seed, "dst", site))
                               for site in range(num_sites)]
        self._unit: List[List[Any]] = [[] for _ in range(num_sites)]
        self._dsts: List[List[int]] = [[] for _ in range(num_sites)]

    def extend(self, count: int) -> None:
        """Grow every site's unit-gap and destination streams to at
        least ``count`` draws.  Each site's streams are consumed in the
        same order whatever the extension steps, so the draws are too."""
        unit_gaps = self.pattern.unit_gaps
        for site, unit in enumerate(self._unit):
            need = count - len(unit)
            if need > 0:
                unit.extend(unit_gaps(self._gap_rngs[site], need))
            dsts = self._dsts[site]
            need = count - len(dsts)
            if need > 0:
                dsts.extend(self._site_patterns[site].destinations(site,
                                                                   need))


#: per-process draw-bank registry.  Keyed by everything the draws depend
#: on; pattern constructor seeds are irrelevant (split() replaces the
#: RNG), so the class + layout + draw signature (parametrized patterns'
#: knobs) identify the destination function.  The
#: registry is LRU-bounded: banks grow with the deepest load point they
#: served, so a long-lived worker cycling through many (seed, pattern)
#: combinations must not keep them all.
_DRAW_BANKS: "OrderedDict[Any, _DrawBank]" = OrderedDict()

#: default cap on cached draw banks per process: one bank serves every
#: network and every load point of a sweep, so even a multi-pattern
#: figure needs only a handful live at once
DEFAULT_DRAW_BANK_CACHE_LIMIT = 8
_draw_bank_cache_limit = DEFAULT_DRAW_BANK_CACHE_LIMIT


def draw_bank_cache_limit() -> int:
    """Current LRU cap on the per-process draw-bank registry."""
    return _draw_bank_cache_limit


def set_draw_bank_cache_limit(limit: int) -> int:
    """Set the draw-bank LRU cap (>= 1); evicts least-recently-used
    banks immediately if over the new cap.  Returns the previous limit.
    Eviction never affects results — a rebuilt bank replays the same
    derived streams — only whether the next sweep pays the draws again."""
    global _draw_bank_cache_limit
    limit = int(limit)
    if limit < 1:
        raise ValueError("draw-bank cache limit must be >= 1, got %r"
                         % (limit,))
    previous = _draw_bank_cache_limit
    _draw_bank_cache_limit = limit
    while len(_DRAW_BANKS) > _draw_bank_cache_limit:
        _DRAW_BANKS.popitem(last=False)
    return previous


def _get_draw_bank(pattern: TrafficPattern, seed: int,
                   num_sites: int) -> _DrawBank:
    # draw_signature() carries any constructor knobs that alter the
    # destination streams (e.g. a hotspot fraction), so differently
    # parametrized instances of one pattern class never share a bank
    key = (seed, pattern.__class__, pattern.layout, num_sites,
           getattr(pattern, "draw_signature", tuple)())
    bank = _DRAW_BANKS.get(key)
    if bank is None:
        bank = _DrawBank(pattern, seed, num_sites)
        _DRAW_BANKS[key] = bank
        while len(_DRAW_BANKS) > _draw_bank_cache_limit:
            _DRAW_BANKS.popitem(last=False)
    else:
        _DRAW_BANKS.move_to_end(key)
    return bank


def clear_draw_banks() -> int:
    """Drop every cached draw bank (tests / memory pressure)."""
    n = len(_DRAW_BANKS)
    _DRAW_BANKS.clear()
    return n


#: execution backends for run_load_point: 'python' is the exact scalar
#: event loop, 'vectorized' the numpy-batched fast path (see
#: repro.core.vectorized) that falls back to 'python' whenever exactness
#: would need real event dispatch
BACKENDS = ("python", "vectorized")


def _draw_schedules(bank: _DrawBank, mean_gap_ps: int,
                    packets_per_site: int
                    ) -> Tuple[List[List[int]], List[List[int]]]:
    """Per-site (gaps, destinations) for one load point's injections.

    Shared by both execution backends, so their schedules are the same
    lists — bit-identical by construction, not by reproof.  Every site
    draws from its own derived RNG streams, so site k's traffic depends
    only on (seed, k) — never on how the other sites' events happen to
    interleave, which is what makes load points shard-stable.
    Destination lists may run past ``packets_per_site`` (injectors
    index, they never iterate).
    """
    bank.extend(packets_per_site)
    scale_gaps = bank.pattern.scale_gaps
    count = packets_per_site
    site_gaps = [scale_gaps(unit[:count] if len(unit) != count else unit,
                            mean_gap_ps)
                 for unit in bank._unit]
    return site_gaps, bank._dsts


def _prewarm_draw_bank(config: MacrochipConfig, pattern: TrafficPattern,
                       fractions: List[float], window_ns: float,
                       kwargs: dict) -> None:
    """Draw every load point of a serial sweep in one bank pass.

    All of a sweep's load points share one :class:`_DrawBank`, so
    extending it once to the *deepest* point's packet count replaces
    the per-point incremental extensions with a single pass.  Results
    are unchanged by construction (see :meth:`_DrawBank.extend`).
    """
    f_max = max(fractions)
    packet_bytes = kwargs.get("packet_bytes", 64)
    try:
        _check_load_point_args(f_max, window_ns, packet_bytes=packet_bytes)
    except ValueError:
        return  # run_load_point raises the proper error per point
    seed = kwargs.get("seed", 12345)
    mean_gap_ps = serialization_ps(
        packet_bytes, f_max * config.site_bandwidth_gb_per_s)
    inject_window_ps = int(window_ns * 1000)
    packets_per_site = max(1, inject_window_ps // mean_gap_ps)
    _get_draw_bank(pattern, seed, config.num_sites).extend(packets_per_site)


def _check_load_point_args(offered_fraction: float, window_ns: float,
                           packet_bytes: int = 64,
                           warmup_fraction: float = 0.25,
                           drain_factor: float = 1.0,
                           saturation_threshold: float = 0.99,
                           rng_block: int = 256) -> None:
    """Raise ``ValueError`` naming the first out-of-range argument of
    :func:`run_load_point`.  The comparisons are written so that NaN
    fails every one of them."""
    checks = (
        ("offered_fraction", offered_fraction,
         0.0 < offered_fraction <= 1.0, "positive and <= 1"),
        ("window_ns", window_ns,
         0.0 < window_ns < math.inf, "finite and positive"),
        ("packet_bytes", packet_bytes, packet_bytes >= 1, ">= 1"),
        ("warmup_fraction", warmup_fraction,
         0.0 <= warmup_fraction < 1.0, "in [0, 1)"),
        ("drain_factor", drain_factor,
         0.0 <= drain_factor < math.inf, "finite and >= 0"),
        ("saturation_threshold", saturation_threshold,
         0.0 < saturation_threshold <= 1.0, "positive and <= 1"),
        ("rng_block", rng_block, rng_block >= 1, ">= 1"),
    )
    for name, value, ok, expected in checks:
        if not ok:
            raise ValueError("%s must be %s, got %r" % (name, expected, value))


@dataclass(frozen=True)
class SweepPoint:
    offered_fraction: float
    mean_latency_ns: float
    p99_latency_ns: float
    delivered_fraction: float
    saturated: bool


def run_load_point(network_name: str,
                   config: MacrochipConfig,
                   pattern: TrafficPattern,
                   offered_fraction: float,
                   window_ns: float = 2000.0,
                   packet_bytes: int = 64,
                   seed: int = 12345,
                   drain_factor: float = 1.0,
                   warmup_fraction: float = 0.25,
                   network_kwargs: Optional[dict] = None,
                   tracer: Optional[TraceRecorder] = None,
                   check_invariants: bool = False,
                   rng_block: int = 256,
                   saturation_threshold: float = 0.99,
                   warm: bool = True,
                   backend: str = "python") -> LoadPointResult:
    """Simulate one point of a latency-vs-load curve.

    ``offered_fraction`` is per-site offered load as a fraction of the
    320 bytes/ns site peak.  Every site injects Poisson traffic during a
    fixed ``window_ns`` window; throughput and latency are measured for
    deliveries inside ``[warmup, window]`` so the post-injection drain of
    a saturated network cannot dilute the sustained rate.  The run then
    drains for up to ``drain_factor`` extra windows (a saturated network
    never finishes, which is the point).

    ``tracer`` attaches a :class:`~repro.core.tracing.TraceRecorder` to
    the network for the run; ``check_invariants=True`` additionally runs
    every invariant checker over the recorded trace afterwards and raises
    :class:`~repro.core.invariants.InvariantViolation` on a breach
    (conservation is checked in exactly-once form only — the bounded
    drain horizon legitimately leaves saturated runs with packets in
    flight).  Both keywords pass through ``sweep(...)`` to every load
    point of a curve.

    ``rng_block`` (>= 1) is validated but has no effect on the draws.

    ``saturation_threshold`` defines the saturation verdict: a point is
    saturated when it delivers less than this fraction of what it
    injected by the end of the drain (0.99 by default, which tolerates
    the <1% of packets legitimately in flight when a healthy run hits
    the bounded drain horizon).

    Out-of-range arguments (``offered_fraction`` outside (0, 1],
    ``window_ns`` not finite and positive, ``packet_bytes`` < 1,
    ``warmup_fraction`` outside [0, 1), ``drain_factor`` < 0 or
    infinite, ``saturation_threshold`` outside (0, 1], ``rng_block`` < 1,
    or NaN anywhere) raise ``ValueError`` naming the argument before any
    draw, on either backend.  A window so short that no site's first
    injection lands before the horizon raises ``ValueError`` too, naming
    the minimum window (one mean injection gap) for that load.

    The (simulator, network) pair comes from the per-process context
    registry (:func:`repro.core.parallel.get_context`) — reset to
    as-constructed state instead of rebuilt — and the injection draws
    from an interned :class:`_DrawBank` shared across load points.
    ``warm=False`` runs the same code on a private
    :class:`~repro.core.parallel.SimContext` and a private bank, shared
    with nothing: the fresh-construction reference the reset protocol is
    tested against.  Results are bit-identical either way.

    ``backend`` selects the execution engine: ``"python"`` (default) is
    the scalar event loop; ``"vectorized"`` routes the run through
    :mod:`repro.core.vectorized` — numpy-batched kernels proven
    bit-identical to the scalar path — and silently falls back to
    ``"python"`` whenever exactness needs real event dispatch (tracer
    attached, invariants on, numpy missing, or a network without a
    registered kernel; the missing-numpy fallback warns once per
    process, naming the resolved backend).
    Either way the returned result is the same bits; ``backend`` is
    wall-clock only.
    """
    if backend not in BACKENDS:
        raise ValueError("unknown backend %r; valid backends: %s"
                         % (backend, ", ".join(BACKENDS)))
    _check_load_point_args(offered_fraction, window_ns, packet_bytes,
                           warmup_fraction, drain_factor,
                           saturation_threshold, rng_block)
    site_peak = config.site_bandwidth_gb_per_s  # 320 GB/s = bytes/ns
    rate_gb_per_s = offered_fraction * site_peak
    mean_gap_ps = serialization_ps(packet_bytes, rate_gb_per_s)
    inject_window_ps = int(window_ns * 1000)
    packets_per_site = max(1, inject_window_ps // mean_gap_ps)
    warmup_ps = int(inject_window_ps * warmup_fraction)
    horizon = int(inject_window_ps * (1.0 + drain_factor))

    if warm:
        ctx = get_context(network_name, config, warmup_ps,
                          network_kwargs=network_kwargs)
        bank = _get_draw_bank(pattern, seed, config.num_sites)
    else:
        ctx = SimContext(network_name, config, warmup_ps, network_kwargs)
        bank = _DrawBank(pattern, seed, config.num_sites)
    site_gaps, site_dsts = _draw_schedules(bank, mean_gap_ps,
                                           packets_per_site)
    if min(gaps[0] for gaps in site_gaps) > horizon:
        raise ValueError(
            "window_ns=%r injects nothing at offered_fraction=%r: every "
            "site's first injection lands past the %d ps horizon; use a "
            "window of at least one mean injection gap, %g ns"
            % (window_ns, offered_fraction, horizon, mean_gap_ps / 1000.0))

    if backend == "vectorized":
        from .vectorized import try_run_vectorized

        result = try_run_vectorized(
            ctx, pattern, offered_fraction,
            packet_bytes=packet_bytes,
            inject_window_ps=inject_window_ps,
            packets_per_site=packets_per_site,
            horizon_ps=horizon,
            site_gaps=site_gaps,
            site_dsts=site_dsts,
            tracer=tracer,
            check_invariants=check_invariants,
            saturation_threshold=saturation_threshold)
        if result is not None:
            return result

    sim = ctx.sim
    net = ctx.network
    if check_invariants and tracer is None:
        tracer = TraceRecorder()
    if tracer is not None:
        net.set_tracer(tracer)
    net.stats.throughput.window_end_ps = inject_window_ps
    #: per-run packet ids: pids restart at 0 for every load point, so a
    #: run's raw pids are a pure function of its arguments — independent
    #: of process history (how many packets this worker made before)
    pids = itertools.count()

    # the site draws were prefetched above (shared with the vectorized
    # backend), so the per-event work is two list indexes.  Each event
    # carries the injector as ``again``: a closure naming itself would
    # be a reference cycle holding this run's gap lists until a cyclic
    # collection
    def injector(site: int, idx: int, again: Callable[..., None]) -> None:
        net.inject(Packet(site, site_dsts[site][idx], packet_bytes,
                          pid=next(pids)))
        nxt = idx + 1
        if nxt < packets_per_site:
            sim.schedule(site_gaps[site][nxt], again, site, nxt, again)

    sim.at_many((site_gaps[site][0], injector, (site, 0, injector))
                for site in range(config.num_sites))

    events = sim.run(until_ps=horizon)
    stop_reason = "horizon" if sim.pending() else "drained"

    if check_invariants:
        from .invariants import InvariantViolation, check_trace

        problems = check_trace(tracer.events,
                               capacities=net.invariant_capacities(),
                               stats=net.stats,
                               expect_drained=False)
        if problems:
            raise InvariantViolation(problems)

    stats = net.stats
    delivered = stats.delivered_packets
    injected = stats.injected_packets
    saturated = delivered < injected * saturation_threshold
    mean_lat = stats.latency.mean_ns if len(stats.latency) else float("nan")
    p99 = stats.latency.percentile_ns(99.0) if len(stats.latency) else float("nan")
    # measure over [warmup, last delivery]: an unsaturated network drains
    # early, a saturated one delivers right up to the horizon
    throughput = stats.throughput.bytes_per_ns()
    return LoadPointResult(
        network=network_name,
        pattern=pattern.name,
        offered_fraction=offered_fraction,
        mean_latency_ns=mean_lat,
        p99_latency_ns=p99,
        throughput_gb_per_s=throughput,
        delivered_packets=delivered,
        injected_packets=injected,
        saturated=saturated,
        events_dispatched=events,
        stop_reason=stop_reason,
        stopped_at_ps=horizon,
    )


def to_sweep_point(result: LoadPointResult,
                   config: MacrochipConfig) -> SweepPoint:
    """Normalize one load-point result to a sweep point (throughput as a
    fraction of the aggregate peak)."""
    total_peak = config.num_sites * config.site_bandwidth_gb_per_s
    return SweepPoint(
        offered_fraction=result.offered_fraction,
        mean_latency_ns=result.mean_latency_ns,
        p99_latency_ns=result.p99_latency_ns,
        delivered_fraction=result.throughput_gb_per_s / total_peak,
        saturated=result.saturated,
    )


def sweep(network_name: str,
          config: MacrochipConfig,
          pattern: TrafficPattern,
          fractions: List[float],
          window_ns: float = 2000.0,
          workers: int = 1,
          progress: Optional[Callable[[str], None]] = None,
          pool: Optional[WorkerPool] = None,
          on_error: str = "raise",
          **kwargs) -> List[SweepPoint]:
    """Run a list of load points and normalize throughput to total peak.

    Load points are independent simulations, so with ``workers > 1`` they
    are sharded across processes via :func:`repro.core.parallel.
    run_sharded`; every point's RNG streams derive from its own arguments,
    so results are bit-identical to the ``workers=1`` serial path.  High
    loads inject (and queue) the most packets, so shards are submitted in
    descending-load order — the run never serializes on a late-submitted
    expensive tail.  Extra keywords (``saturation_threshold``,
    ``check_invariants``, ...) pass through to every
    :func:`run_load_point`.

    Every load point after the first reuses the reset (simulator,
    network) context and the interned draw bank
    instead of rebuilding them — bit-identical results, less
    wall-clock.  A serial sweep also draws all its load points'
    schedules in one bank pass up front (:func:`_prewarm_draw_bank`).
    ``pool`` lends a persistent
    :class:`~repro.core.parallel.WorkerPool` so consecutive sweeps reuse
    worker processes (and their warm contexts) instead of re-spawning.

    ``on_error`` is the per-shard failure policy of
    :func:`~repro.core.parallel.run_sharded`.  Under ``'collect'`` a
    load point that fails is *dropped from the returned curve* — the
    surviving points keep their order — rather than aborting the sweep;
    callers that need the structured
    :class:`~repro.core.parallel.ShardError` records should drive
    :func:`run_sharded` directly (as the figure drivers do).

    ``backend="vectorized"`` (an extra keyword, like the others it
    reaches every load point) routes each point through the numpy
    fast path — bit-identical results, see :mod:`repro.core.vectorized`.
    """
    if workers == 1 and fractions:
        _prewarm_draw_bank(config, pattern, fractions, window_ns, kwargs)
    if kwargs.get("backend") == "vectorized":
        # import numpy before a pool forks, so the workers share it
        from .vectorized import have_numpy

        have_numpy()
    shards = [
        Shard(run_load_point,
              args=(network_name, config, pattern, f),
              kwargs=dict(window_ns=window_ns, **kwargs),
              label="%s/%s @%.3f" % (network_name, pattern.name, f))
        for f in fractions
    ]
    run = run_sharded(shards, workers=workers, progress=progress,
                      cost_key=lambda s: s.args[3], pool=pool,
                      on_error=on_error)
    return [to_sweep_point(r, config) for r in run.results
            if not isinstance(r, ShardError)]


def saturation_fraction(points: List[SweepPoint]) -> float:
    """The highest delivered fraction observed over a sweep — the paper's
    'sustained bandwidth, % of peak'."""
    if not points:
        raise ValueError("empty sweep")
    return max(p.delivered_fraction for p in points)
