"""Tests for the discrete-event simulation kernel."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import SimulationError, Simulator


def test_events_fire_in_time_order(sim):
    fired = []
    sim.at(300, fired.append, "c")
    sim.at(100, fired.append, "a")
    sim.at(200, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order(sim):
    fired = []
    for tag in "abcde":
        sim.at(50, fired.append, tag)
    sim.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time(sim):
    seen = []
    sim.at(123, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [123]
    assert sim.now == 123


def test_schedule_is_relative_to_now(sim):
    seen = []

    def first():
        sim.schedule(50, lambda: seen.append(sim.now))

    sim.at(100, first)
    sim.run()
    assert seen == [150]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_scheduling_in_the_past_rejected(sim):
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_stop_halts_dispatch(sim):
    fired = []
    sim.at(10, fired.append, 1)
    sim.at(20, lambda: sim.stop())
    sim.at(30, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.pending() == 1


def test_run_until_horizon_leaves_later_events(sim):
    fired = []
    sim.at(10, fired.append, 1)
    sim.at(1000, fired.append, 2)
    dispatched = sim.run(until_ps=500)
    assert fired == [1]
    assert dispatched == 1
    assert sim.pending() == 1
    assert sim.now == 500  # clock advanced to the horizon


def test_run_after_horizon_resumes(sim):
    fired = []
    sim.at(1000, fired.append, 2)
    sim.run(until_ps=500)
    sim.run()
    assert fired == [2]


def test_events_scheduled_during_run_are_dispatched(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.at(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_long_self_rescheduling_chain(sim):
    """A 10,000-deep chain of events each scheduling the next, 10 ps
    apart: every link fires and the clock ends on the last one."""

    def tick(n):
        if n:
            sim.schedule(10, tick, n - 1)

    sim.at(0, tick, 10_000)
    assert sim.run() == 10_001
    assert sim.now == 100_000


def test_run_returns_dispatch_count(sim):
    for i in range(7):
        sim.at(i, lambda: None)
    assert sim.run() == 7


def test_reentrant_run_rejected(sim):
    def bad():
        sim.run()

    sim.at(1, bad)
    with pytest.raises(SimulationError):
        sim.run()


def test_trace_hook_sees_every_event(sim):
    seen = []
    sim.trace = lambda t, fn, args: seen.append(t)
    sim.at(5, lambda: None)
    sim.at(9, lambda: None)
    sim.run()
    assert seen == [5, 9]


def test_empty_run_is_noop(sim):
    assert sim.run() == 0
    assert sim.now == 0


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                max_size=50))
def test_dispatch_order_is_sorted_for_any_schedule(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.at(t, fired.append, t)
    sim.run()
    assert fired == sorted(times)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=30), st.integers(min_value=0, max_value=1000))
def test_horizon_partitions_events(times, horizon):
    sim = Simulator()
    fired = []
    for t in times:
        sim.at(t, fired.append, t)
    sim.run(until_ps=horizon)
    assert fired == sorted(t for t in times if t <= horizon)
    assert sim.pending() == sum(1 for t in times if t > horizon)


# -- horizon / stop edge cases (parallel shards lean on these semantics) -----

def test_event_exactly_at_horizon_fires(sim):
    fired = []
    sim.at(100, fired.append, "edge")
    sim.at(101, fired.append, "late")
    sim.run(until_ps=100)
    assert fired == ["edge"]
    assert sim.now == 100


def test_stop_prevents_clock_advance_to_horizon(sim):
    sim.at(10, sim.stop)
    sim.at(500, lambda: None)
    sim.run(until_ps=1000)
    # stop() freezes the clock at the stopping event, not the horizon
    assert sim.now == 10
    assert sim.pending() == 1


def test_stop_flag_resets_between_runs(sim):
    sim.at(10, sim.stop)
    sim.run()
    sim.at(20, lambda: None)
    assert sim.run() == 1  # previous stop() must not halt a fresh run
    assert sim.now == 20


def test_empty_run_with_horizon_advances_clock(sim):
    sim.run(until_ps=750)
    assert sim.now == 750


def test_horizon_at_now_is_noop_for_later_events(sim):
    sim.at(5, lambda: None)
    sim.run(until_ps=5)
    assert sim.now == 5
    sim.at(50, lambda: None)
    assert sim.run(until_ps=5) == 0
    assert sim.pending() == 1


def test_dispatch_counts_accumulate_across_resumed_runs(sim):
    for t in (10, 20, 30, 40):
        sim.at(t, lambda: None)
    assert sim.run(until_ps=20) == 2
    assert sim.run() == 2


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                          st.lists(st.integers(min_value=0, max_value=3),
                                   max_size=2)),
                min_size=1, max_size=25),
       st.lists(st.integers(min_value=0, max_value=20), max_size=6))
def test_resumed_runs_dispatch_like_one_run(plan, horizons):
    """``run(t1); ...; run(tN); run()`` dispatches exactly the events of
    one ``run()``, in the same order, for any horizons — ascending or
    not, on or between event times.  The tiny time range forces heavy
    ties, and callbacks schedule more events (some at delay 0, i.e. at
    the current time), so an event popped past a horizon is often tied
    with events scheduled after it and must go back to the queue
    unchanged."""

    def play(slices):
        sim = Simulator()
        fired = []
        scheduled = [len(plan)]

        def fire(tag, delays, depth):
            fired.append((sim.now, tag))
            if depth < 2:
                for k, delay in enumerate(delays):
                    sim.schedule(delay, fire, tag + (k,), delays, depth + 1)
                    scheduled[0] += 1

        for idx, (t, delays) in enumerate(plan):
            sim.at(t, fire, (idx,), delays, 0)
        cuts = []
        for horizon in slices:
            sim.run(until_ps=horizon)
            cuts.append((len(fired), sim.now, sim.pending(),
                         scheduled[0] - len(fired)))
        sim.run()
        assert sim.pending() == 0
        return fired, cuts

    reference, _ = play([])
    fired, cuts = play(horizons)
    assert fired == reference
    reached = 0
    for horizon, (count, now, pending, expected) in zip(horizons, cuts):
        reached = max(reached, horizon)
        # every event at or before the furthest horizon so far, no other
        assert count == sum(1 for t, _ in reference if t <= reached)
        assert now == reached
        assert pending == expected


# -- determinism properties (the trace layer leans on these) -----------------

@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2,
                max_size=60))
def test_equal_timestamps_dispatch_in_scheduling_order(times):
    """Ties are broken by scheduling order for ANY schedule: the tiny
    time range forces heavy timestamp collisions."""
    sim = Simulator()
    fired = []
    for idx, t in enumerate(times):
        sim.at(t, fired.append, (t, idx))
    sim.run()
    assert fired == sorted(fired)  # time-major, then scheduling order
    assert [t for t, _ in fired] == sorted(times)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                max_size=40))
def test_trace_hook_order_matches_dispatch_order(times):
    sim = Simulator()
    traced, fired = [], []
    sim.trace = lambda t, fn, args: traced.append(args[0])
    for idx, t in enumerate(times):
        sim.at(t, fired.append, (t, idx))
    sim.run()
    assert traced == fired


def test_identical_runs_produce_byte_identical_traces(small_config):
    """Two identical traced network runs serialize to byte-identical
    canonical trace records — the regression contract every refactor of
    the engine or the networks must preserve."""
    from repro.core.sweep import run_load_point
    from repro.core.tracing import TraceRecorder
    from repro.workloads.synthetic import UniformTraffic

    def one_run():
        rec = TraceRecorder()
        run_load_point("token_ring", small_config,
                       UniformTraffic(small_config.layout), 0.2,
                       window_ns=60.0, seed=99, tracer=rec)
        return b"\n".join(line.encode() for line in rec.canonical_lines())

    first, second = one_run(), one_run()
    assert len(first) > 0
    assert first == second


# -- the trace/stop() cutoff contract ----------------------------------------
# stop() takes effect after the currently dispatching callback returns; no
# event is dispatched afterwards, so dispatch and trace can never disagree.

def test_trace_fires_for_the_stop_requesting_event(sim):
    traced = []
    sim.trace = lambda t, fn, args: traced.append(t)
    sim.at(10, lambda: None)
    sim.at(20, sim.stop)
    sim.at(30, lambda: None)
    sim.run()
    # the stopping event itself is traced; nothing after it is dispatched
    # or traced — the cutoff is identical for both
    assert traced == [10, 20]
    assert sim.pending() == 1


def test_no_dispatch_hence_no_trace_after_stop(sim):
    traced, fired = [], []
    sim.trace = lambda t, fn, args: traced.append(t)

    def stop_then_record():
        sim.stop()
        fired.append("stopper")

    sim.at(5, stop_then_record)
    sim.at(5, fired.append, "same-time-later")  # same timestamp, later seq
    sim.run()
    assert fired == ["stopper"]  # even same-time events are cut off
    assert traced == [5]
    sim.run()  # a fresh run dispatches (and traces) the leftover
    assert fired == ["stopper", "same-time-later"]
    assert traced == [5, 5]


def test_trace_fires_before_a_raising_callback(sim):
    traced = []
    sim.trace = lambda t, fn, args: traced.append(t)

    def boom():
        raise RuntimeError("callback failure")

    sim.at(7, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert traced == [7]  # the failing event was traced before dispatch


# -- trace hook attached or detached mid-run ----------------------------------
# run() reads sim.trace before every callback; attaching/detaching it from
# a callback must take effect at the next event without losing or
# double-dispatching events.

def test_trace_hook_attached_mid_run_sees_only_later_events(sim):
    traced, fired = [], []

    def attach():
        sim.trace = lambda t, fn, args: traced.append(t)

    for t in (10, 20, 40, 50):
        sim.at(t, fired.append, t)
    sim.at(30, attach)
    sim.run()
    assert fired == [10, 20, 40, 50]
    assert traced == [40, 50]  # events after the attachment, no replay


def test_trace_hook_detached_mid_run_goes_quiet(sim):
    traced, fired = [], []
    sim.trace = lambda t, fn, args: traced.append(t)

    def detach():
        sim.trace = None

    for t in (10, 20, 40, 50):
        sim.at(t, fired.append, t)
    sim.at(30, detach)
    sim.run()
    assert fired == [10, 20, 40, 50]
    assert traced == [10, 20, 30]  # the detaching event itself is traced


def test_trace_hook_toggled_repeatedly_mid_run(sim):
    traced, fired = [], []
    hook = lambda t, fn, args: traced.append(t)  # noqa: E731

    def set_trace(value):
        sim.trace = value

    for t in (10, 30, 50, 70):
        sim.at(t, fired.append, t)
    sim.at(20, set_trace, hook)
    sim.at(40, set_trace, None)
    sim.at(60, set_trace, hook)
    sim.run()
    assert fired == [10, 30, 50, 70]
    # traced windows: (20, 40] and (60, end] — plus the detach event at 40
    assert traced == [30, 40, 70]


def test_mid_run_attach_with_horizon_still_respects_horizon(sim):
    traced = []

    def attach():
        sim.trace = lambda t, fn, args: traced.append(t)

    sim.at(10, attach)
    sim.at(20, lambda: None)
    sim.at(900, lambda: None)
    sim.run(until_ps=100)
    assert traced == [20]
    assert sim.now == 100
    assert sim.pending() == 1


# -- stop() on the final event under a horizon --------------------------------

def test_stop_on_final_event_prevents_horizon_advance(sim):
    """stop() fired by the very last queued event freezes the clock at
    that event even though run() was given a later horizon."""
    sim.at(10, lambda: None)
    sim.at(60, sim.stop)  # final event — queue is empty afterwards
    assert sim.run(until_ps=1000) == 2
    assert sim.now == 60
    assert sim.pending() == 0


def test_stop_on_final_event_traced_run(sim):
    """Same contract with a trace hook installed."""
    traced = []
    sim.trace = lambda t, fn, args: traced.append(t)
    sim.at(10, lambda: None)
    sim.at(60, sim.stop)
    sim.run(until_ps=1000)
    assert traced == [10, 60]
    assert sim.now == 60


def test_stop_at_exactly_the_horizon(sim):
    sim.at(100, sim.stop)
    sim.run(until_ps=100)
    assert sim.now == 100
    sim.at(150, lambda: None)  # clock must not have run past the event
    assert sim.run() == 1


# -- the engine against a reference (time, seq) heap --------------------------
# The engine keeps one heap entry per distinct time and a batch of events
# per time; its contract is that of one heap of (time, seq, fn, args) with
# seq counting every at/schedule call.  Random programs, whose callbacks
# schedule at the current time, at an already-busy future time or later,
# stop the run, read pending() or raise, must play out alike on both.

class _ReferenceSimulator:
    """The dispatch contract as the plainest code: one event heap."""

    def __init__(self):
        self.now = 0
        self.queue = []
        self.seq = 0
        self.stopped = False

    def at(self, time_ps, fn, *args):
        heapq.heappush(self.queue, (time_ps, self.seq, fn, args))
        self.seq += 1

    def schedule(self, delay_ps, fn, *args):
        self.at(self.now + delay_ps, fn, *args)

    def stop(self):
        self.stopped = True

    def pending(self):
        return len(self.queue)

    def run(self, until_ps=None):
        self.stopped = False
        dispatched = 0
        while self.queue and (until_ps is None or self.queue[0][0] <= until_ps):
            time_ps, _, fn, args = heapq.heappop(self.queue)
            self.now = time_ps
            fn(*args)
            dispatched += 1
            if self.stopped:
                return dispatched
        if until_ps is not None and self.now < until_ps:
            self.now = until_ps
        return dispatched


class _Boom(Exception):
    pass


#: what a callback may do: schedule at delay 0, at the k-th pending time
#: after now, or later; stop the run; record pending(); raise
_ACTIONS = st.one_of(
    st.tuples(st.just("now"), st.just(0)),
    st.tuples(st.just("busy"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("later"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.sampled_from(["stop", "pending", "raise"]), st.just(0)))
#: between runs: run to a horizon (None: unbounded), or schedule an event
#: at now + offset, often at now itself, behind a part-dispatched batch
_DRIVER = st.one_of(
    st.tuples(st.just("run"),
              st.none() | st.integers(min_value=0, max_value=120)),
    st.tuples(st.just("at"), st.integers(min_value=0, max_value=3)))


def _play(sim, initial, behaviours, driver, limit=80):
    """Play one program on ``sim``; return everything it observed."""
    log = []
    times = []
    count = [0]

    def add(time_ps):
        tag = count[0]
        count[0] += 1
        times.append(time_ps)
        sim.at(time_ps, fire, tag)

    def fire(tag):
        now = sim.now
        log.append(("fire", now, tag))
        for kind, arg in behaviours[tag % len(behaviours)]:
            if kind == "stop":
                sim.stop()
            elif kind == "pending":
                log.append(("pending", sim.pending()))
            elif kind == "raise":
                raise _Boom
            elif count[0] >= limit:
                continue
            elif kind == "now":
                tag = count[0]
                count[0] += 1
                times.append(now)
                sim.schedule(0, fire, tag)
            elif kind == "later":
                add(now + arg)
            else:
                busy = sorted({t for t in times if t > now})
                add(busy[arg % len(busy)] if busy else now + 1)

    def run(until_ps):
        try:
            dispatched = sim.run(until_ps)
        except _Boom:
            dispatched = "raised"
        log.append(("run", dispatched, sim.now, sim.pending()))

    for time_ps in initial:
        add(time_ps)
    for kind, arg in driver:
        if kind == "run":
            run(arg)
        else:
            add(sim.now + arg)
    # each run dispatches at least one event, and at most limit events
    # are scheduled past the initial ones and the driver's, so this many
    # runs drain the queue (a broken engine fails instead of hanging)
    for _ in range(limit + len(initial) + len(driver)):
        if not sim.pending():
            break
        run(None)
    return log


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=12),
       st.lists(st.lists(_ACTIONS, max_size=4), min_size=1, max_size=8),
       st.lists(_DRIVER, max_size=8))
def test_engine_matches_a_reference_heap(initial, behaviours, driver):
    sim = Simulator()
    traced = []
    sim.trace = lambda t, fn, args: traced.append((t, args[0]))
    log = _play(sim, initial, behaviours, driver)
    assert log == _play(_ReferenceSimulator(), initial, behaviours, driver)
    assert traced == [(e[1], e[2]) for e in log if e[0] == "fire"]


def test_stopped_batch_keeps_its_place_ahead_of_later_events(sim):
    """A batch cut by stop() resumes ahead of an event scheduled at the
    same time after the cut."""
    fired = []
    sim.at(5, fired.append, "a")
    sim.at(5, sim.stop)
    sim.at(5, fired.append, "b")
    sim.at(5, fired.append, "c")
    sim.run()
    assert sim.pending() == 2
    sim.at(5, fired.append, "late")
    assert sim.run() == 3
    assert fired == ["a", "b", "c", "late"]


def test_raising_callback_leaves_the_rest_of_its_batch_queued(sim):
    fired = []

    def boom():
        sim.schedule(0, fired.append, "same-time")
        raise RuntimeError("callback failure")

    sim.at(5, boom)
    sim.at(5, fired.append, "b")
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.now == 5
    assert sim.pending() == 2
    sim.run()
    assert fired == ["b", "same-time"]


def test_pending_from_a_callback_excludes_dispatched_events(sim):
    seen = []
    for _ in range(3):
        sim.at(5, lambda: seen.append(sim.pending()))
    sim.at(9, lambda: seen.append(sim.pending()))
    sim.run()
    assert seen == [3, 2, 1, 0]


def test_clear_drops_every_pending_event(sim):
    fired = []
    sim.at(5, fired.append, 1)
    sim.at(5, fired.append, 2)
    sim.at(9, fired.append, 3)
    sim.clear()
    assert sim.pending() == 0
    assert sim.run() == 0
    sim.at(5, fired.append, 4)
    sim.run()
    assert fired == [4]


def test_clear_is_rejected_mid_run(sim):
    sim.at(5, sim.clear)
    with pytest.raises(SimulationError):
        sim.run()
