"""Invariant checkers over recorded simulation traces.

The paper's five-way comparison (Figures 6-10) is only meaningful if all
network models obey the same physical contract.  These checkers verify it
from a :class:`~repro.core.tracing.TraceRecorder` stream:

* **conservation** — every injected packet is delivered exactly once,
  nothing is delivered that was never injected, and (for a fully drained
  run) nothing is left in flight;
* **causality** — per-packet event streams start at INJECT, end at
  DELIVER, carry non-negative and monotonically non-decreasing modeled
  times, and cross-site delivery is strictly later than injection;
* **channel non-overlap** — a serialized channel never transmits two
  packets at once (TX intervals per channel are disjoint; back-to-back
  is allowed);
* **grant exclusivity** — arbitrated resources (two-phase slots and
  switch trees, token-ring tokens, circuit-switched engines and receiver
  ports) are never oversubscribed beyond their declared capacity.

Two ways to run them:

* **live attachment** — :class:`InvariantMonitor` wires a recorder into a
  network before the run and ``verify()`` raises
  :class:`InvariantViolation` afterwards (what
  ``run_load_point(check_invariants=True)`` uses);
* **post-hoc** — :func:`check_trace` over any recorded event list.

``python -m repro.core.invariants`` runs the CI smoke: the six Figure 7
network configurations under several loads/patterns with every checker
enabled.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .tracing import (DELIVER, GRANT, INJECT, RELEASE, TX_START, TraceEvent,
                      TraceRecorder)


class InvariantViolation(AssertionError):
    """One or more physical invariants were violated by a recorded run."""

    def __init__(self, violations: Sequence["Violation"]) -> None:
        self.violations = list(violations)
        lines = ["%d invariant violation(s):" % len(self.violations)]
        lines += ["  [%s] %s" % (v.checker, v.message) for v in self.violations]
        super().__init__("\n".join(lines))


class Violation(NamedTuple):
    """One detected contract breach; ``checker`` names the checker class
    ('conservation', 'causality', 'overlap', 'exclusivity', 'stats')."""

    checker: str
    message: str


# -- individual checkers ------------------------------------------------------

def check_conservation(events: Iterable[TraceEvent],
                       expect_drained: bool = True) -> List[Violation]:
    """Exactly-once delivery; optionally, no in-flight packets at drain."""
    injected: Dict[int, TraceEvent] = {}
    delivered: Dict[int, int] = {}
    out: List[Violation] = []
    for e in events:
        if e.etype == INJECT:
            if e.pid in injected:
                out.append(Violation(
                    "conservation", "packet %d injected twice" % e.pid))
            injected[e.pid] = e
        elif e.etype == DELIVER:
            delivered[e.pid] = delivered.get(e.pid, 0) + 1
    for pid, count in sorted(delivered.items()):
        if pid not in injected:
            out.append(Violation(
                "conservation",
                "packet %d delivered but never injected" % pid))
        if count > 1:
            out.append(Violation(
                "conservation",
                "packet %d delivered %d times (exactly-once violated)"
                % (pid, count)))
    if expect_drained:
        missing = sorted(pid for pid in injected if pid not in delivered)
        for pid in missing[:10]:
            e = injected[pid]
            out.append(Violation(
                "conservation",
                "packet %d (%d->%d) injected at %d ps but never delivered"
                % (pid, e.src, e.dst, e.time_ps)))
        if len(missing) > 10:
            out.append(Violation(
                "conservation",
                "... and %d more undelivered packets" % (len(missing) - 10)))
    return out


def check_causality(events: Iterable[TraceEvent]) -> List[Violation]:
    """Per-packet streams are causally ordered with sane timestamps."""
    out: List[Violation] = []
    streams: Dict[int, List[TraceEvent]] = {}
    for e in events:
        if e.time_ps < 0:
            out.append(Violation(
                "causality", "negative timestamp on record %r" % (e,)))
        if e.pid >= 0:
            streams.setdefault(e.pid, []).append(e)
    for pid, stream in sorted(streams.items()):
        if stream[0].etype != INJECT:
            out.append(Violation(
                "causality",
                "packet %d stream starts with %s, not inject"
                % (pid, stream[0].etype)))
        prev = stream[0]
        for e in stream[1:]:
            if e.time_ps < prev.time_ps:
                out.append(Violation(
                    "causality",
                    "packet %d time goes backwards: %s@%d after %s@%d"
                    % (pid, e.etype, e.time_ps, prev.etype, prev.time_ps)))
            if prev.etype == DELIVER:
                out.append(Violation(
                    "causality",
                    "packet %d has %s after deliver" % (pid, e.etype)))
            prev = e
        last = stream[-1]
        if last.etype == DELIVER:
            first = stream[0]
            if first.src != first.dst and last.time_ps <= first.time_ps:
                out.append(Violation(
                    "causality",
                    "packet %d (%d->%d) delivered at %d ps, not strictly "
                    "after injection at %d ps"
                    % (pid, first.src, first.dst, last.time_ps,
                       first.time_ps)))
    return out


def check_channel_overlap(events: Iterable[TraceEvent]) -> List[Violation]:
    """TX intervals on one channel never overlap (back-to-back allowed)."""
    out: List[Violation] = []
    intervals: Dict[str, List[Tuple[int, int, int]]] = {}
    for e in events:
        if e.etype == TX_START:
            intervals.setdefault(e.resource, []).append(
                (e.start_ps, e.end_ps, e.pid))
    for resource, spans in sorted(intervals.items()):
        spans.sort()
        for (s0, e0, p0), (s1, e1, p1) in zip(spans, spans[1:]):
            if s1 < e0:
                out.append(Violation(
                    "overlap",
                    "channel %s transmits packets %d and %d concurrently "
                    "([%d,%d) overlaps [%d,%d))"
                    % (resource, p0, p1, s0, e0, s1, e1)))
    return out


def check_grant_exclusivity(events: Iterable[TraceEvent],
                            capacities: Optional[Dict[str, int]] = None
                            ) -> List[Violation]:
    """Arbitrated resources never exceed their capacity (default 1).

    Closed grants carry their hold interval in ``[start_ps, end_ps)``;
    open grants (``end_ps == -1``) are closed by the next RELEASE on the
    same resource.  Concurrency is checked with a sweep line; a release
    at the same instant as a new grant is back-to-back, not a conflict.
    """
    capacities = capacities or {}
    out: List[Violation] = []
    # per resource: list of (time, delta) endpoints
    endpoints: Dict[str, List[Tuple[int, int]]] = {}
    open_holds: Dict[str, int] = {}
    for e in events:
        if e.etype == GRANT:
            pts = endpoints.setdefault(e.resource, [])
            pts.append((e.start_ps if e.start_ps >= 0 else e.time_ps, +1))
            if e.end_ps >= 0:
                if e.end_ps <= max(e.start_ps, 0):
                    out.append(Violation(
                        "exclusivity",
                        "grant on %s has empty/inverted hold [%d,%d)"
                        % (e.resource, e.start_ps, e.end_ps)))
                pts.append((e.end_ps, -1))
            else:
                open_holds[e.resource] = open_holds.get(e.resource, 0) + 1
        elif e.etype == RELEASE:
            pts = endpoints.setdefault(e.resource, [])
            pts.append((e.time_ps, -1))
            held = open_holds.get(e.resource, 0)
            if held <= 0:
                out.append(Violation(
                    "exclusivity",
                    "release on %s at %d ps without an open grant"
                    % (e.resource, e.time_ps)))
            else:
                open_holds[e.resource] = held - 1
    for resource, pts in sorted(endpoints.items()):
        capacity = capacities.get(resource, 1)
        # releases sort before grants at the same instant: back-to-back ok
        pts.sort(key=lambda p: (p[0], p[1]))
        held = 0
        for time_ps, delta in pts:
            held += delta
            if held > capacity:
                out.append(Violation(
                    "exclusivity",
                    "resource %s held %d times concurrently at %d ps "
                    "(capacity %d)" % (resource, held, time_ps, capacity)))
                break  # one report per resource is enough
    return out


def check_stats_consistency(events: Sequence[TraceEvent],
                            stats) -> List[Violation]:
    """The trace and :class:`~repro.core.stats.NetworkStats` agree on
    injected/delivered counts and the derived in-flight population."""
    out: List[Violation] = []
    injected = sum(1 for e in events if e.etype == INJECT)
    delivered = sum(1 for e in events if e.etype == DELIVER)
    if injected != stats.injected_packets:
        out.append(Violation(
            "stats", "trace saw %d injections, stats counted %d"
            % (injected, stats.injected_packets)))
    if delivered != stats.delivered_packets:
        out.append(Violation(
            "stats", "trace saw %d deliveries, stats counted %d"
            % (delivered, stats.delivered_packets)))
    if stats.in_flight != injected - delivered:
        out.append(Violation(
            "stats", "stats.in_flight=%d but trace implies %d"
            % (stats.in_flight, injected - delivered)))
    return out


def check_trace(events: Sequence[TraceEvent],
                capacities: Optional[Dict[str, int]] = None,
                stats=None,
                expect_drained: bool = True) -> List[Violation]:
    """Run every checker over a recorded event stream."""
    out = check_conservation(events, expect_drained=expect_drained)
    out += check_causality(events)
    out += check_channel_overlap(events)
    out += check_grant_exclusivity(events, capacities=capacities)
    if stats is not None:
        out += check_stats_consistency(events, stats)
    return out


# -- live attachment ----------------------------------------------------------

class InvariantMonitor:
    """Wire a recorder into a network and verify invariants after a run.

    >>> sim = Simulator(); net = build_network("token_ring", cfg, sim)
    >>> monitor = InvariantMonitor(net)
    >>> ...inject traffic, sim.run()...
    >>> monitor.verify()          # raises InvariantViolation on breach
    """

    def __init__(self, network,
                 recorder: Optional[TraceRecorder] = None) -> None:
        self.network = network
        self.recorder = recorder if recorder is not None else TraceRecorder()
        network.set_tracer(self.recorder)

    @property
    def events(self) -> List[TraceEvent]:
        return self.recorder.events

    def problems(self, expect_drained: bool = True) -> List[Violation]:
        return check_trace(
            self.events,
            capacities=self.network.invariant_capacities(),
            stats=self.network.stats,
            expect_drained=expect_drained)

    def verify(self, expect_drained: bool = True) -> None:
        problems = self.problems(expect_drained=expect_drained)
        if problems:
            raise InvariantViolation(problems)


# -- CI smoke -----------------------------------------------------------------

def run_smoke(networks: Optional[Sequence[str]] = None,
              loads: Sequence[float] = (0.05, 0.4),
              patterns: Sequence[str] = ("uniform", "neighbor"),
              seeds: Sequence[int] = (12345,),
              window_ns: float = 120.0,
              verbose: bool = True) -> int:
    """Run invariant-checked load points over the six Figure 7 network
    configurations (the five Figure 6 networks plus the ALT variant).

    Returns the number of load points checked; raises
    :class:`InvariantViolation` on the first breach.  This is the CI
    smoke job (`python -m repro.core.invariants`).
    """
    from .sweep import run_load_point
    from ..macrochip.config import small_test_config
    from ..networks.factory import FIGURE7_NETWORKS
    from ..workloads.synthetic import make_pattern

    if networks is None:
        networks = FIGURE7_NETWORKS
    config = small_test_config(4, 4)
    checked = 0
    for network in networks:
        for pattern_name in patterns:
            pattern = make_pattern(pattern_name, config.layout)
            for load in loads:
                for seed in seeds:
                    result = run_load_point(
                        network, config, pattern, load,
                        window_ns=window_ns, seed=seed,
                        check_invariants=True)
                    checked += 1
                    if verbose:
                        print("ok %-24s %-9s load=%.2f seed=%d "
                              "(%d delivered / %d injected)"
                              % (network, pattern_name, load, seed,
                                 result.delivered_packets,
                                 result.injected_packets))
    if verbose:
        print("invariant smoke passed: %d load points, all checkers on"
              % checked)
    return checked


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    run_smoke()
