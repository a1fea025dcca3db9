"""Adaptive load-point execution: checkpointed early termination.

The fixed-grid Figure 6 methodology simulates every (network, pattern,
load) point for a full injection window plus drain — even when the point
is deep in saturation (where only the binary "saturated" verdict is
needed) or the mean latency converged long ago.  This module makes the
sweep harness simulate dramatically fewer events for the same curves:

* :class:`AdaptiveConfig` + :func:`decide_stop` — walk a load point's
  horizon in *slices* and evaluate stop rules on the :class:`Checkpoint`
  counters at every slice end.  :func:`decide_stop` is the only copy of
  the rules: :func:`execute_adaptive` feeds it by stepping
  ``Simulator.run``, the vectorized backend by reading the same counters
  off a kernel's delivery arrays.  The rules:

  - **convergence stop**: a batch-means relative-precision test on mean
    delivered latency.  Each inter-checkpoint span of post-warmup
    deliveries is one batch; once ``min_batches`` batches exist and the
    confidence half-width of the batch-mean estimator drops under
    ``rel_precision`` of the running mean, the point is declared
    converged and the rest of the window/drain is skipped.
  - **saturation fast-abort**: the fixed path's verdict is "saturated
    iff the end-of-drain in-flight backlog exceeds ``(1 - threshold)``
    of all injected packets".  At every checkpoint the executor projects
    that final backlog from the current backlog, the known remaining
    injections, and the measured delivery rate; once the projection
    exceeds the saturation deficit by ``abort_margin`` for
    ``abort_streak`` consecutive checkpoints of strictly growing
    backlog, the point is recorded as saturated without simulating the
    rest of the window or the drain.  The margin plus the streak make
    the abort *conservative*: quasi-saturated points whose drain would
    still clear the backlog run to completion and get the legacy
    verdict.

  With both rules disabled the sliced executor dispatches exactly the
  events the single-shot ``sim.run(until_ps=horizon)`` call would — in
  the same order, with the same final clock — so results are
  bit-identical to the legacy fixed-window path (pinned by
  ``tests/test_fastpath_equivalence.py``).

* :func:`refine_knee` — a knee-seeking sweep driver that replaces a
  fixed load grid with coarse probing plus bisection between the last
  unsaturated and first saturated load.  The knee (the paper's "maximum
  sustainable bandwidth", read off the vertical asymptote of the
  latency-load curve) is located at equal-or-better resolution with far
  fewer simulated points, each of which may itself stop early.

Adaptive execution is *opt-in* (``run_load_point(..., adaptive=cfg)``);
every default path keeps the exact legacy fixed-window behavior, so
golden pins and differential tests are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "AdaptiveConfig",
    "Checkpoint",
    "KneeResult",
    "decide_stop",
    "execute_adaptive",
    "refine_knee",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Stop-rule knobs for checkpointed load-point execution.

    ``slice_fraction`` sets the checkpoint cadence as a fraction of the
    injection window (1/32 by default: stop rules are evaluated 32 times
    per window and at the same cadence through the drain).  The two stop
    rules are independently switchable; with both off the executor is a
    pure re-slicing of the legacy single-shot run.
    """

    #: checkpoint interval as a fraction of the injection window
    slice_fraction: float = 0.03125

    # -- convergence stop (unsaturated points) --------------------------------
    #: enable the batch-means relative-precision test
    convergence_stop: bool = True
    #: stop once half-width <= rel_precision * mean of batch means (10%
    #: by default: adaptive mode deliberately trades a small latency-mean
    #: bias on near-knee points for skipping the rest of their window —
    #: the delivered *rate*, which sets the knee, settles much earlier
    #: than the mean latency)
    rel_precision: float = 0.10
    #: minimum number of non-empty post-warmup batches before testing
    min_batches: int = 10
    #: normal critical value for the confidence half-width (1.96 = 95%)
    confidence_z: float = 1.96
    #: never converge-stop a point planning fewer injections than this:
    #: small runs have single-digit saturation deficits, so per-slice
    #: rate noise can flip their verdict (a barely-saturated
    #: circuit-switched run whose drain stalls on starved circuits looks
    #: clearable mid-window) — and skipping the tail of a small run
    #: saves next to nothing, so they simply run to the legacy verdict
    min_converge_planned: int = 20000

    # -- saturation fast-abort (saturated points) -----------------------------
    #: enable the projected-backlog + backlog-growth abort
    saturation_abort: bool = True
    #: consecutive checkpoints of over-deficit projection + growing backlog
    abort_streak: int = 4
    #: never abort before this many packets were injected
    min_abort_injected: int = 256
    #: the projected end-of-drain backlog must exceed the saturation
    #: deficit by this factor — headroom for delivery-rate estimation
    #: error, so a drain that would clear the backlog is never aborted
    abort_margin: float = 2.0
    #: the projection credits remaining drain time with this multiple of
    #: the measured delivery rate: networks often drain much faster once
    #: injection-side contention stops (the limited point-to-point
    #: network roughly doubles, and only after half the drain has
    #: passed), and underestimating the drain is what turns a clearable
    #: backlog into a false abort
    drain_rate_factor: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.slice_fraction <= 1.0:
            raise ValueError("slice_fraction must be in (0, 1], got %r"
                             % (self.slice_fraction,))
        if not 0.0 < self.rel_precision < 1.0:
            raise ValueError("rel_precision must be in (0, 1), got %r"
                             % (self.rel_precision,))
        if self.min_batches < 2:
            raise ValueError("min_batches must be >= 2 (batch-means needs "
                             "a variance), got %r" % (self.min_batches,))
        if self.min_converge_planned < 0:
            raise ValueError("min_converge_planned must be >= 0, got %r"
                             % (self.min_converge_planned,))
        if self.abort_streak < 1:
            raise ValueError("abort_streak must be >= 1, got %r"
                             % (self.abort_streak,))
        if self.abort_margin < 1.0:
            raise ValueError("abort_margin must be >= 1 (a sub-unity "
                             "margin aborts runs the drain would save), "
                             "got %r" % (self.abort_margin,))
        if self.drain_rate_factor < 1.0:
            raise ValueError("drain_rate_factor must be >= 1 (the drain "
                             "is never slower to a first approximation; "
                             "under-crediting it causes false aborts), "
                             "got %r" % (self.drain_rate_factor,))

    def disabled(self) -> "AdaptiveConfig":
        """A copy with both stop rules off — the pure re-slicing used by
        the differential tests."""
        return replace(self, convergence_stop=False, saturation_abort=False)


class Checkpoint(NamedTuple):
    """The monotone counters the stop rules read at one checkpoint.

    Every field is a pure function of which events have dispatched by
    the checkpoint time, so the scalar engine (reading
    :class:`~repro.core.stats.NetworkStats` after ``sim.run``) and the
    vectorized backend (reading sorted kernel arrays) produce equal
    records for the same run.
    """

    #: the event queue is empty: every injected packet was delivered
    drained: bool
    injected: int
    delivered: int
    #: packets in flight (injected, not yet delivered or dropped)
    backlog: int
    #: post-warmup in-window latency observations so far, and their sum
    latency_count: int
    latency_sum_ps: int


def decide_stop(advance: Callable[[int], Checkpoint],
                inject_window_ps: int,
                horizon_ps: int,
                warmup_ps: int,
                cfg: AdaptiveConfig,
                saturation_threshold: float,
                planned_injections: int) -> Tuple[str, int]:
    """Walk the checkpoints of one load point and apply the stop rules.

    ``advance(now)`` brings the run up to checkpoint time ``now`` (which
    only ever increases) and returns its :class:`Checkpoint`; counters
    start from zero at time 0.  ``planned_injections`` is the total
    packet count the injectors will schedule over the window (known up
    front: injection is open-loop), which anchors the fast-abort's
    projection of the legacy verdict.

    Returns ``(stop_reason, stopped_at_ps)`` where ``stop_reason`` is one
    of:

    * ``'converged'`` — the batch-means test passed; the point is
      unsaturated and its mean latency is statistically settled;
    * ``'saturated'`` — the fast-abort proved saturation;
    * ``'drained'`` — the event queue emptied before the horizon (every
      injected packet delivered), exactly like the legacy path;
    * ``'horizon'`` — the full window + drain was simulated with no rule
      firing (also the verdict-neutral outcome: the caller applies the
      legacy delivered/injected test).

    For ``'drained'``/``'horizon'`` the clock convention matches the
    single-shot run (``stopped_at_ps == horizon_ps``); for early stops it
    is the checkpoint time at which the rule fired.
    """
    slice_ps = max(1, int(inject_window_ps * cfg.slice_fraction))

    # the fixed path declares saturation when the end-of-drain backlog
    # exceeds this many packets (delivered < threshold * injected)
    sat_deficit = (1.0 - saturation_threshold) * planned_injections

    # convergence state: batch means of delivered latency between
    # checkpoints (post-warmup, non-empty batches only)
    batch_means: List[float] = []
    prev_count = 0
    prev_sum = 0

    # fast-abort state: backlog trajectory + last-slice delivery rate
    prev_backlog: Optional[int] = None
    prev_delivered = 0
    streak = 0

    now = 0
    while now < horizon_ps:
        now = min(now + slice_ps, horizon_ps)
        cp = advance(now)

        if cp.drained:
            # all injections fired and every packet delivered: the legacy
            # single-shot run would have returned here too
            return "drained", horizon_ps

        past_warmup = now > warmup_ps
        backlog = cp.backlog
        delivered = cp.delivered
        # shared projection state: the measured per-slice delivery rate,
        # the injections still to come (known up front — injection is
        # open-loop), and the time left in each phase
        delivery_rate = (delivered - prev_delivered) / slice_ps
        remaining = planned_injections - cp.injected
        inject_left = max(0, inject_window_ps - now)
        drain_left = horizon_ps - max(now, inject_window_ps)

        if cfg.saturation_abort and past_warmup:
            # project the legacy verdict: will the end-of-drain backlog
            # clear the saturation deficit?  Only a projection over the
            # deficit with margin counts toward the abort streak.  The
            # remaining drain time is credited at drain_rate_factor x
            # the measured rate even mid-drain: contention can take a
            # sizable fraction of the drain to dissipate (the limited
            # point-to-point network holds its in-window rate for half
            # the drain, then doubles), and extrapolating the not-yet-
            # accelerated rate is what turns a clearable backlog into a
            # false abort
            capacity = (delivery_rate * inject_left
                        + cfg.drain_rate_factor * delivery_rate
                        * drain_left)
            if now <= inject_window_ps:
                # while injecting, only a strictly growing backlog
                # counts toward the streak
                growing = prev_backlog is not None and backlog > prev_backlog
            else:
                # in the drain the backlog shrinks by construction, so
                # the projection alone gates it
                growing = True
            proven = (
                cp.injected >= cfg.min_abort_injected
                and backlog + remaining - capacity
                > cfg.abort_margin * sat_deficit)
            streak = streak + 1 if (proven and growing) else 0
            if streak >= cfg.abort_streak:
                return "saturated", now

        prev_backlog = backlog
        prev_delivered = delivered

        if (cfg.convergence_stop and past_warmup
                and planned_injections >= cfg.min_converge_planned):
            count = cp.latency_count
            delta_n = count - prev_count
            if delta_n > 0:
                total = cp.latency_sum_ps
                batch_means.append((total - prev_sum) / delta_n)
                prev_count, prev_sum = count, total
                # the projection gate keeps borderline points honest: a
                # converged mean only ends the run if the drain provably
                # clears the whole backlog *at the measured rate, with no
                # drain-acceleration credit* — the conservative mirror
                # image of the fast-abort (which needs the credited
                # projection to *exceed* the deficit with margin, so the
                # two rules can never claim the same checkpoint)
                clears = (backlog + remaining
                          - delivery_rate * (inject_left + drain_left)
                          <= 0.0)
                if len(batch_means) >= cfg.min_batches and clears:
                    k = len(batch_means)
                    grand = sum(batch_means) / k
                    var = sum((b - grand) ** 2 for b in batch_means) / (k - 1)
                    half_width = cfg.confidence_z * math.sqrt(var / k)
                    if grand > 0 and half_width <= cfg.rel_precision * grand:
                        return "converged", now

    return "horizon", horizon_ps


def execute_adaptive(sim,
                     stats,
                     inject_window_ps: int,
                     horizon_ps: int,
                     cfg: AdaptiveConfig,
                     saturation_threshold: float,
                     planned_injections: int) -> Tuple[int, str, int]:
    """Step ``sim`` to ``horizon_ps`` in slices, checking stop rules.

    ``stats`` is the network's freshly reset
    :class:`~repro.core.stats.NetworkStats`; the latency sample and
    packet counters it accumulates *are* the checkpoint state — no extra
    instrumentation runs between checkpoints, so the dispatched event
    stream is identical to an uninterrupted run.  The rules themselves
    live in :func:`decide_stop`.

    Returns ``(events_dispatched, stop_reason, stopped_at_ps)``.
    """
    events = 0
    latency = stats.latency

    def advance(now: int) -> Checkpoint:
        nonlocal events
        events += sim.run(until_ps=now)
        return Checkpoint(sim.pending() == 0, stats.injected_packets,
                          stats.delivered_packets, stats.in_flight,
                          latency.count, latency.sum_ps)

    stop_reason, stopped_at_ps = decide_stop(
        advance, inject_window_ps, horizon_ps, stats.throughput.warmup_ps,
        cfg, saturation_threshold, planned_injections)
    return events, stop_reason, stopped_at_ps


# -- knee refinement ----------------------------------------------------------

@dataclass(frozen=True)
class KneeResult:
    """Outcome of a knee-seeking sweep for one (network, pattern) pair."""

    network: str
    pattern: str
    #: sustained delivered fraction at the knee — the paper's "maximum
    #: sustainable bandwidth, % of peak" (best unsaturated point, falling
    #: back to the best overall if every probe saturated)
    knee_fraction: float
    #: offered load of the point that achieved ``knee_fraction``
    knee_offered: float
    #: highest offered load proven unsaturated (0.0 if every probe saturated)
    bracket_low: float
    #: lowest offered load proven saturated (``inf`` if none saturated)
    bracket_high: float
    #: final bisection interval width — the knee's offered-load resolution
    resolution: float
    #: every probed point (coarse + bisection), ascending offered load
    points: Tuple = ()
    #: coarse loads the ascending walk never probed: saturation is
    #: monotone in offered load, so everything above the first saturated
    #: probe is skipped (recorded here, not silently dropped)
    skipped_loads: Tuple[float, ...] = ()
    #: total simulator events across all probes
    events_dispatched: int = 0
    #: number of load points simulated
    load_points: int = 0
    #: probes that failed under ``on_error='collect'``: tuples of
    #: ``(offered_fraction, error_type, message)``, ascending load.
    #: Empty on a clean refinement (and always under ``'raise'``)
    failures: Tuple = ()


def refine_knee(network_name: str,
                config,
                pattern,
                coarse_fractions: Sequence[float],
                window_ns: float = 2000.0,
                bisections: int = 4,
                adaptive: Optional[AdaptiveConfig] = AdaptiveConfig(),
                progress: Optional[Callable[[str], None]] = None,
                on_error: str = "raise",
                **kwargs) -> KneeResult:
    """Locate the saturation knee with coarse probing plus bisection.

    The ``coarse_fractions`` grid (typically every few points of the
    fixed Figure 6 grid, plus its endpoint) is walked in ascending order;
    saturation is monotone in offered load, so the walk stops at the
    first saturated probe and skips everything above it (recorded in
    :attr:`KneeResult.skipped_loads`).  Bisection then halves the
    interval between the last unsaturated and first saturated load
    ``bisections`` times, so the knee's offered-load resolution is
    ``(hi - lo) / 2**bisections`` — equal or better than the fixed
    grid's spacing with far fewer simulated points, each of which may
    itself stop early under ``adaptive`` (pass ``adaptive=None`` to
    probe with full fixed-window runs).  Every step depends on the
    previous verdict, so a single refinement is inherently serial;
    parallelism lives one level up, across (pattern, network) pairs
    (see :func:`repro.experiments.figure6.run_figure6_adaptive`).

    ``on_error='collect'`` makes the refinement fault-tolerant: a probe
    that raises is recorded in :attr:`KneeResult.failures` and skipped —
    the ascending walk moves to the next coarse load (the failed probe's
    verdict is unknown, not assumed), and a failed bisection probe ends
    the bisection at the bracket reached so far.  The refinement only
    raises if *every* probe failed.  ``'raise'`` (the default) keeps the
    historical propagate-first-error behavior.

    Extra ``kwargs`` (``seed``, ``saturation_threshold``, ...) pass
    through to every ``run_load_point`` call.
    """
    from .sweep import run_load_point, to_sweep_point

    if on_error not in ("raise", "collect"):
        raise ValueError("refine_knee on_error must be 'raise' or "
                         "'collect', got %r" % (on_error,))
    fractions = sorted(set(float(f) for f in coarse_fractions))
    if not fractions:
        raise ValueError("refine_knee needs at least one coarse fraction")

    failures = []

    def probe(f):
        """One guarded load-point probe: the result, or None when it
        failed under 'collect' (failure recorded)."""
        try:
            return run_load_point(network_name, config, pattern, f,
                                  **point_kwargs)
        except Exception as exc:
            if on_error == "raise":
                raise
            failures.append((f, type(exc).__name__, str(exc)))
            return None

    point_kwargs = dict(window_ns=window_ns, adaptive=adaptive, **kwargs)
    results = []
    skipped: Tuple[float, ...] = ()
    events = 0
    for i, f in enumerate(fractions):
        if progress:
            progress("knee %s/%s probe @%.4f"
                     % (network_name, pattern.name, f))
        r = probe(f)
        if r is None:
            continue
        results.append(r)
        events += r.events_dispatched
        if r.saturated:
            skipped = tuple(fractions[i + 1:])
            break

    if not results:
        raise RuntimeError(
            "every knee probe failed for %s/%s: %s"
            % (network_name, pattern.name,
               "; ".join("@%.4f %s: %s" % f for f in failures)))

    def bracket(rs):
        unsat = [r.offered_fraction for r in rs if not r.saturated]
        sat = [r.offered_fraction for r in rs if r.saturated]
        return (max(unsat) if unsat else 0.0,
                min(sat) if sat else float("inf"))

    lo, hi = bracket(results)
    if math.isfinite(hi):
        for _ in range(max(0, bisections)):
            mid = 0.5 * (lo + hi)
            if mid <= 0.0 or mid in (lo, hi):
                break
            if progress:
                progress("knee %s/%s bisect @%.4f"
                         % (network_name, pattern.name, mid))
            r = probe(mid)
            if r is None:
                # the midpoint's verdict is unknown, so the bracket
                # cannot shrink: keep the resolution reached so far
                break
            results.append(r)
            events += r.events_dispatched
            if r.saturated:
                hi = mid
            else:
                lo = mid

    results.sort(key=lambda r: r.offered_fraction)
    unsat = [r for r in results if not r.saturated]
    candidates = unsat or results
    best = max(candidates,
               key=lambda r: to_sweep_point(r, config).delivered_fraction)
    best_point = to_sweep_point(best, config)
    return KneeResult(
        network=network_name,
        pattern=pattern.name,
        knee_fraction=best_point.delivered_fraction,
        knee_offered=best.offered_fraction,
        bracket_low=lo,
        bracket_high=hi,
        resolution=(hi - lo) if math.isfinite(hi) else float("inf"),
        points=tuple(to_sweep_point(r, config) for r in results),
        skipped_loads=skipped,
        events_dispatched=events,
        load_points=len(results),
        failures=tuple(failures),
    )
