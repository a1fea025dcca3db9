"""Open-loop load points: the harness behind Figure 6.

:func:`run_load_point` simulates one point of a latency-vs-load curve.
Every site injects one-cache-line packets (64 B) with exponential
inter-arrival times at a configured *offered load*, expressed as a
fraction of the per-site peak of 320 bytes/ns, exactly the x-axis of
Figure 6.  Injection runs for a fixed window; the simulation then drains
(up to a bounded horizon, since a saturated network never finishes) and we
report mean delivered latency and sustained throughput measured after a
warmup interval.  The methodology is fixed (DESIGN.md F6): the module
constants below set the warmup, the drain and the saturation verdict.
Curves — a grid of load points over patterns and networks, sharded
across workers — are :func:`repro.experiments.figure6.run_figure6`'s job.

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

from .parallel import derive_seed, get_context
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
    #: ``int(window_ns * 1000 * (1 + DRAIN_FACTOR))``
    stopped_at_ps: int = 0


#: deliveries in the first quarter of the injection window are warmup:
#: latency and throughput are measured over ``[warmup, window]`` only
WARMUP_FRACTION = 0.25
#: after injection stops, the run drains for up to this many more
#: injection windows (a saturated network never finishes)
DRAIN_FACTOR = 1.0
#: a point is saturated when it delivers less than this fraction of what
#: it injected by the end of the drain: 0.99 tolerates the <1% of packets
#: legitimately in flight when a healthy run hits the drain horizon
SATURATION_THRESHOLD = 0.99


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
    stream prefix growing monotonically.  Runs share interned banks
    (:func:`_get_draw_bank`); ``warm=False`` runs get a private one.
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
#: RNG), and no pattern takes other constructor knobs, so the class +
#: layout identify the destination function.  The registry is
#: LRU-bounded: banks grow with the deepest load point they served, so a
#: long-lived worker cycling through many (seed, pattern) combinations
#: must not keep them all.
_DRAW_BANKS: "OrderedDict[Any, _DrawBank]" = OrderedDict()

#: cap on cached draw banks per process: one bank serves every network
#: and every load point of a sweep, so even a multi-pattern figure needs
#: only a handful live at once.  Eviction never affects results — a
#: rebuilt bank replays the same derived streams — only whether the next
#: load point pays the draws again
DRAW_BANK_CACHE_LIMIT = 8


def _get_draw_bank(pattern: TrafficPattern, seed: int,
                   num_sites: int) -> _DrawBank:
    key = (seed, pattern.__class__, pattern.layout, num_sites)
    bank = _DRAW_BANKS.get(key)
    if bank is None:
        bank = _DrawBank(pattern, seed, num_sites)
        _DRAW_BANKS[key] = bank
        while len(_DRAW_BANKS) > DRAW_BANK_CACHE_LIMIT:
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


def _check_load_point_args(offered_fraction: float, window_ns: float,
                           rng_block: int = 256) -> None:
    """Raise ``ValueError`` naming the first out-of-range argument of
    :func:`run_load_point`.  The comparisons are written so that NaN
    fails every one of them."""
    checks = (
        ("offered_fraction", offered_fraction,
         0.0 < offered_fraction <= 1.0, "positive and <= 1"),
        ("window_ns", window_ns,
         0.0 < window_ns < math.inf, "finite and positive"),
        ("rng_block", rng_block, rng_block >= 1, ">= 1"),
    )
    for name, value, ok, expected in checks:
        if not ok:
            raise ValueError("%s must be %s, got %r" % (name, expected, value))


def _load_point_timing(config: MacrochipConfig, offered_fraction: float,
                       window_ns: float) -> Tuple[int, int, int, int]:
    """``(mean_gap_ps, inject_window_ps, packets_per_site, horizon_ps)``
    of a load point at ``offered_fraction`` over ``window_ns``."""
    rate_gb_per_s = offered_fraction * config.site_bandwidth_gb_per_s
    mean_gap_ps = serialization_ps(config.cache_line_bytes, rate_gb_per_s)
    inject_window_ps = int(window_ns * 1000)
    packets_per_site = max(1, inject_window_ps // mean_gap_ps)
    horizon = int(inject_window_ps * (1.0 + DRAIN_FACTOR))
    return mean_gap_ps, inject_window_ps, packets_per_site, horizon


def _raise_if_injects_nothing(first_ps: int, horizon: int,
                              mean_gap_ps: int, window_ns: float,
                              offered_fraction: float) -> None:
    """The one "injects nothing" rule: the earliest first injection of
    any site, ``first_ps``, must land by the drain horizon."""
    if first_ps > horizon:
        raise ValueError(
            "window_ns=%r injects nothing at offered_fraction=%r: every "
            "site's first injection lands past the %d ps horizon; use a "
            "window of at least one mean injection gap, %g ns"
            % (window_ns, offered_fraction, horizon, mean_gap_ps / 1000.0))


def check_injects_something(config: MacrochipConfig,
                            pattern: TrafficPattern,
                            offered_fraction: float, window_ns: float,
                            seed: int = 12345) -> None:
    """Raise the ``ValueError`` :func:`run_load_point` would raise with
    these arguments, without simulating: out-of-range arguments, or a
    window in which every site's first injection lands past the drain
    horizon (the message names the minimum window, one mean injection
    gap at that load).

    The first gaps come from the same interned per-site streams the
    load point draws, so no fixed window bound stands in for them: at
    load 0.002 one mean gap is 100 ns, yet a 40 ns window still injects
    at some of 64 sites.
    """
    _check_load_point_args(offered_fraction, window_ns)
    mean_gap_ps, _, _, horizon = _load_point_timing(
        config, offered_fraction, window_ns)
    bank = _get_draw_bank(pattern, seed, config.num_sites)
    bank.extend(1)
    scale_gaps = bank.pattern.scale_gaps
    first = min(scale_gaps(unit[:1], mean_gap_ps)[0] for unit in bank._unit)
    _raise_if_injects_nothing(first, horizon, mean_gap_ps, window_ns,
                              offered_fraction)


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
                   seed: int = 12345,
                   network_kwargs: Optional[dict] = None,
                   tracer: Optional[TraceRecorder] = None,
                   check_invariants: bool = False,
                   rng_block: int = 256,
                   warm: bool = True,
                   backend: str = "python") -> LoadPointResult:
    """Simulate one point of a latency-vs-load curve.

    ``offered_fraction`` is per-site offered load as a fraction of the
    320 bytes/ns site peak.  Every site injects Poisson traffic of
    ``config.cache_line_bytes`` packets during a fixed ``window_ns``
    window; throughput and latency are measured for deliveries inside
    ``[warmup, window]`` (:data:`WARMUP_FRACTION`) so the post-injection
    drain of a saturated network cannot dilute the sustained rate.  The
    run then drains for up to :data:`DRAIN_FACTOR` extra windows (a
    saturated network never finishes, which is the point), and the point
    is saturated when it delivered less than :data:`SATURATION_THRESHOLD`
    of what it injected.

    ``tracer`` attaches a :class:`~repro.core.tracing.TraceRecorder` to
    the network for the run; ``check_invariants=True`` additionally runs
    every invariant checker over the recorded trace afterwards and raises
    :class:`~repro.core.invariants.InvariantViolation` on a breach
    (conservation is checked in exactly-once form only — the bounded
    drain horizon legitimately leaves saturated runs with packets in
    flight).

    ``rng_block`` (>= 1) is validated but has no effect on the draws.

    Out-of-range arguments (``offered_fraction`` outside (0, 1],
    ``window_ns`` not finite and positive, ``rng_block`` < 1, or NaN)
    raise ``ValueError`` naming the argument before any draw, on either
    backend.  A window so short that no site's first injection lands
    before the horizon raises ``ValueError`` too
    (:func:`check_injects_something`, which a driver can run over a
    whole grid before simulating any of it).

    Every call builds its own (simulator, network) pair
    (:class:`~repro.core.parallel.SimContext`) on the process's interned
    tables.  ``warm`` only selects where the injection draws come from:
    the interned :class:`_DrawBank` shared across load points (default),
    or, with ``warm=False``, a private bank shared with nothing.
    Results are bit-identical either way.

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
    _check_load_point_args(offered_fraction, window_ns, rng_block)
    packet_bytes = config.cache_line_bytes
    mean_gap_ps, inject_window_ps, packets_per_site, horizon = (
        _load_point_timing(config, offered_fraction, window_ns))
    warmup_ps = int(inject_window_ps * WARMUP_FRACTION)

    ctx = get_context(network_name, config, warmup_ps,
                      network_kwargs=network_kwargs)
    if warm:
        bank = _get_draw_bank(pattern, seed, config.num_sites)
    else:
        bank = _DrawBank(pattern, seed, config.num_sites)
    site_gaps, site_dsts = _draw_schedules(bank, mean_gap_ps,
                                           packets_per_site)
    _raise_if_injects_nothing(min(gaps[0] for gaps in site_gaps), horizon,
                              mean_gap_ps, window_ns, offered_fraction)

    if backend == "vectorized":
        from .vectorized import try_run_vectorized

        result = try_run_vectorized(
            ctx, pattern, offered_fraction,
            inject_window_ps=inject_window_ps,
            packets_per_site=packets_per_site,
            horizon_ps=horizon,
            site_gaps=site_gaps,
            site_dsts=site_dsts,
            tracer=tracer,
            check_invariants=check_invariants)
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

    # one ``at`` per site, in site order: the first injections take seq
    # 0..num_sites-1, which InjectionOrder.site_seq assumes
    for site in range(config.num_sites):
        sim.at(site_gaps[site][0], injector, site, 0, injector)

    events = sim.run(until_ps=horizon)
    stop_reason = "horizon" if sim.pending() else "drained"
    # events left past the horizon refer back to the network (network ->
    # sim -> queue -> bound method -> network): drop them, so the run's
    # objects go with their last reference instead of to the cyclic GC
    sim.clear()

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
    saturated = delivered < injected * SATURATION_THRESHOLD
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

