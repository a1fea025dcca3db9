"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, strategies as st

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


# -- at_many (bulk scheduling) ------------------------------------------------
# at_many is the engine's bulk-scheduling entry point; it must be
# observationally identical to the equivalent sequence of at() calls.

def test_at_many_dispatch_matches_sequential_at():
    plan = [(30, "c"), (10, "a"), (10, "b"), (20, "x"), (0, "zero")]

    def run_with_at():
        sim = Simulator()
        fired = []
        for t, tag in plan:
            sim.at(t, fired.append, tag)
        sim.run()
        return fired

    def run_with_at_many():
        sim = Simulator()
        fired = []
        count = sim.at_many((t, fired.append, (tag,)) for t, tag in plan)
        assert count == len(plan)
        sim.run()
        return fired

    assert run_with_at() == run_with_at_many()


def test_at_many_interleaved_with_at_preserves_tie_order(sim):
    """Ties at equal timestamps break by scheduling order regardless of
    which API scheduled them — at, at_many, at again."""
    fired = []
    sim.at(50, fired.append, "a")
    sim.at_many([(50, fired.append, ("b",)), (50, fired.append, ("c",)),
                 (10, fired.append, ("early",))])
    sim.at(50, fired.append, "d")
    sim.at_many([(50, fired.append, ("e",))])
    sim.run()
    assert fired == ["early", "a", "b", "c", "d", "e"]


def test_at_many_from_inside_a_callback(sim):
    """Bulk scheduling during dispatch (the sweep's initial injections
    happen before run(), but nothing forbids mid-run bulk adds)."""
    fired = []

    def seed_more():
        sim.at_many([(sim.now + 5, fired.append, (tag,))
                     for tag in ("x", "y")])

    sim.at(10, seed_more)
    sim.at(15, fired.append, "plain")
    sim.run()
    # same-time tie: "plain" (seq 1) precedes the mid-run adds
    assert fired == ["plain", "x", "y"]


def test_at_many_rejects_past_times(sim):
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at_many([(50, lambda: None, ())])


def test_at_many_empty_is_noop(sim):
    assert sim.at_many([]) == 0
    assert sim.pending() == 0


def test_at_many_counts_in_pending(sim):
    sim.at_many([(i, lambda: None, ()) for i in range(5)])
    sim.at(10, lambda: None)
    assert sim.pending() == 6
    assert sim.run() == 6


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
