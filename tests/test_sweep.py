"""Tests for the open-loop load-sweep harness (Figure 6 machinery)."""

import gc
import math

import pytest

import repro.core.sweep as sweep_mod
from repro.core.engine import Simulator
from repro.core.interning import clear_interned, intern_table, interned_count
from repro.core.parallel import Shard, WorkerPool, run_sharded
from repro.core.sweep import (BACKENDS, clear_draw_banks, run_load_point,
                              to_sweep_point)
from repro.core.tracing import TraceRecorder
from repro.experiments.figure6 import run_figure6
from repro.macrochip.config import small_test_config
from repro.networks.base import Packet
from repro.networks.factory import available_networks, build_network
from repro.workloads.synthetic import (BurstyTraffic, TransposeTraffic,
                                       UniformTraffic)


CFG = small_test_config(4, 4)


def test_low_load_point_is_unsaturated():
    r = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       offered_fraction=0.05, window_ns=200)
    assert not r.saturated
    assert r.delivered_packets == r.injected_packets
    assert r.mean_latency_ns > 0
    assert r.throughput_gb_per_s > 0


def test_overload_saturates_circuit_switched():
    r = run_load_point("circuit_switched", CFG, UniformTraffic(CFG.layout),
                       offered_fraction=0.5, window_ns=200)
    assert r.saturated
    assert r.delivered_packets < r.injected_packets


def test_throughput_tracks_offered_load_when_unsaturated():
    lo = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                        0.02, window_ns=400, seed=7)
    hi = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                        0.08, window_ns=400, seed=7)
    assert hi.throughput_gb_per_s > 2 * lo.throughput_gb_per_s


def test_latency_grows_with_load():
    lo = run_load_point("token_ring", CFG, UniformTraffic(CFG.layout),
                        0.05, window_ns=400)
    hi = run_load_point("token_ring", CFG, UniformTraffic(CFG.layout),
                        0.6, window_ns=400)
    assert hi.mean_latency_ns > lo.mean_latency_ns


def test_invalid_load_rejected():
    with pytest.raises(ValueError):
        run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.0)


#: (argument, bad value) pairs run_load_point must reject.  Without the
#: check, an infinite load injected 640,000 packets into a 40 ns window,
#: a zero or negative window returned NaN latency marked unsaturated,
#: and a negative block size silently picked another draw path.
BAD_LOAD_POINT_ARGS = [
    ("offered_fraction", math.inf),
    ("offered_fraction", math.nan),
    ("offered_fraction", 1.5),
    ("offered_fraction", -0.1),
    ("window_ns", 0.0),
    ("window_ns", -10.0),
    ("window_ns", math.nan),
    ("window_ns", math.inf),
    ("rng_block", -3),
    ("rng_block", 0),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,value", BAD_LOAD_POINT_ARGS,
                         ids=["%s=%r" % arg for arg in BAD_LOAD_POINT_ARGS])
def test_run_load_point_rejects_bad_inputs(name, value, backend,
                                           monkeypatch):
    """Each bad argument raises ValueError naming it and its value, on
    both backends, before a single injection is drawn."""
    def no_draws(*args, **kwargs):
        raise AssertionError("drew injections before validating")

    monkeypatch.setattr(sweep_mod, "_draw_schedules", no_draws)
    kwargs = dict(offered_fraction=0.1, window_ns=40.0, backend=backend)
    kwargs[name] = value
    with pytest.raises(ValueError) as exc:
        run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       **kwargs)
    assert name in str(exc.value)
    assert repr(value) in str(exc.value)


@pytest.mark.parametrize("backend", BACKENDS)
def test_window_with_no_injection_rejected(backend):
    """A 10 ps window at 5% load (mean gap 4 ns) injects nothing: it
    used to return 0 injected, NaN latency and saturated=False.  It now
    raises, naming the minimum window for that load."""
    with pytest.raises(ValueError) as exc:
        run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.05, window_ns=0.01, backend=backend)
    message = str(exc.value)
    assert "window_ns=0.01" in message
    assert "4 ns" in message


def test_sweep_returns_points_in_order():
    result = run_figure6(CFG, window_ns=200, patterns=["uniform"],
                         networks=["point_to_point"],
                         load_grids={"uniform": [0.02, 0.05]})
    points = result.curves["uniform"]["point_to_point"]
    assert [p.offered_fraction for p in points] == [0.02, 0.05]
    for p in points:
        assert not math.isnan(p.mean_latency_ns)


def test_saturation_fraction():
    """The sustained fraction at the knee is the best delivered fraction
    among unsaturated points, or the best overall if every point
    saturated."""
    result = run_figure6(CFG, window_ns=200, patterns=["uniform"],
                         networks=["circuit_switched"],
                         load_grids={"uniform": [0.02, 0.05, 0.5]})
    points = result.curves["uniform"]["circuit_switched"]
    assert [p.saturated for p in points] == [False, False, True]
    assert result.saturation_table() == [
        ("uniform", "circuit_switched", points[1].delivered_fraction)]
    assert points[2].delivered_fraction > points[1].delivered_fraction
    result.curves["uniform"]["circuit_switched"] = points[2:]
    assert result.saturation_table() == [
        ("uniform", "circuit_switched", points[2].delivered_fraction)]


def test_saturation_threshold_default_is_pinned():
    """The paper-methodology verdict: saturated iff delivered <
    0.99 * injected after the bounded drain.  The 0.99 constant is
    pinned here so a silent change shows up as a test failure, not a
    drifted Figure 6 summary."""
    assert sweep_mod.SATURATION_THRESHOLD == 0.99


def test_saturation_threshold_changes_verdict(monkeypatch):
    """A near-knee point flips verdict as the threshold crosses its
    delivered/injected ratio — same simulation, different rule, on
    either engine."""
    pattern = UniformTraffic(CFG.layout)
    for backend in BACKENDS:
        monkeypatch.undo()
        base = run_load_point("circuit_switched", CFG, pattern, 0.5,
                              window_ns=200, backend=backend)
        assert base.saturated
        ratio = base.delivered_packets / base.injected_packets
        monkeypatch.setattr(sweep_mod, "SATURATION_THRESHOLD", ratio * 0.5)
        lenient = run_load_point("circuit_switched", CFG, pattern, 0.5,
                                 window_ns=200, backend=backend)
        assert not lenient.saturated
        # the simulation itself is untouched by the verdict rule
        assert lenient.delivered_packets == base.delivered_packets
        assert lenient.events_dispatched == base.events_dispatched


def test_deterministic_for_fixed_seed():
    a = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.05, window_ns=200, seed=99)
    b = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.05, window_ns=200, seed=99)
    assert a.mean_latency_ns == b.mean_latency_ns
    assert a.delivered_packets == b.delivered_packets


#: (network, load, expected stop_reason): a light load drains before the
#: horizon; a saturated circuit-switched load still has packets queued
#: when the bounded drain ends
STOP_FIELD_CASES = [
    ("point_to_point", 0.05, "drained"),
    ("circuit_switched", 0.5, "horizon"),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("network,load,reason", STOP_FIELD_CASES,
                         ids=[c[2] for c in STOP_FIELD_CASES])
@pytest.mark.parametrize("drain_factor", [1.0, 0.5])
def test_stop_fields_on_fixed_path(network, load, reason, drain_factor,
                                   backend, monkeypatch):
    """``stop_reason`` says whether the queue emptied within the run;
    ``stopped_at_ps`` is always the horizon (window plus the
    ``DRAIN_FACTOR`` drain), whichever way the run ended and on either
    engine."""
    window_ns = 200
    monkeypatch.setattr(sweep_mod, "DRAIN_FACTOR", drain_factor)
    r = run_load_point(network, CFG, UniformTraffic(CFG.layout), load,
                       window_ns=window_ns, backend=backend)
    assert r.stop_reason == reason
    assert r.stopped_at_ps == int(window_ns * 1000 * (1 + drain_factor))
    assert r.saturated == (reason == "horizon")


# -- per-load-point state ----------------------------------------------------
#
# Every load point builds its own (simulator, network) pair on the
# process's interned tables; ``warm`` only picks the interned or a
# private injection draw bank.  Results never depend on either.

WINDOW_NS = 80.0
SEED = 7


def _pattern():
    return UniformTraffic(CFG.layout, seed=1)


def _run(network, load, warm, tracer=None):
    return run_load_point(network, CFG, _pattern(), load,
                          window_ns=WINDOW_NS, seed=SEED, warm=warm,
                          tracer=tracer)


@pytest.fixture
def fresh_draw_banks():
    """Start with no cached draw bank, so the test builds the banks it
    counts or compares."""
    clear_draw_banks()
    yield
    clear_draw_banks()


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("network", available_networks())
def test_load_point_leaves_no_cyclic_garbage(network, warm):
    """A load point refers back to nothing of its own: once it returns,
    its network, injector, gap lists and in-flight packets are freed by
    reference counting alone, with nothing left for the cyclic GC.  The
    load is past every network's knee on transpose traffic, so each run
    ends at the horizon with events still queued."""
    def run():
        return run_load_point(network, CFG,
                              TransposeTraffic(CFG.layout, seed=1), 0.60,
                              window_ns=WINDOW_NS, seed=SEED, warm=warm)

    run()  # build the interned tables (and, warm, the draw bank)
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            result = run()
            assert result.delivered_packets > 0
            assert result.stop_reason == "horizon"
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_interned_tables_shared_across_instances():
    clear_interned()
    sim_a, sim_b = Simulator(), Simulator()
    net_a = build_network("limited_point_to_point", CFG, sim_a)
    net_b = build_network("limited_point_to_point", CFG, sim_b)
    assert net_a._fwd_table is net_b._fwd_table
    assert interned_count() > 0
    # intern_table returns the same object for the same key, and the
    # builder runs exactly once
    calls = []
    t1 = intern_table(("unit-test", 1), lambda: calls.append(1) or [1, 2])
    t2 = intern_table(("unit-test", 1), lambda: calls.append(1) or [3, 4])
    assert t1 is t2 and t1 == [1, 2] and calls == [1]
    clear_interned()


def test_pids_independent_of_process_history():
    """Raw pids must restart at 0 per run: two identical runs yield the
    same pid for the same packet no matter what ran in between."""
    rec_a = TraceRecorder()
    _run("token_ring", 0.30, warm=False, tracer=rec_a)
    # pollute process history: other runs, other networks
    _run("two_phase", 0.08, warm=False)
    Packet(0, 1, 64)  # a stray module-counter packet
    rec_b = TraceRecorder()
    _run("token_ring", 0.30, warm=False, tracer=rec_b)
    raw_a = [(e.time_ps, e.etype, e.pid) for e in rec_a.events]
    raw_b = [(e.time_ps, e.etype, e.pid) for e in rec_b.events]
    assert raw_a == raw_b  # raw pids, not canonical renumbering


def test_explicit_pid_overrides_module_counter():
    assert Packet(0, 1, 64, pid=123).pid == 123
    a = Packet(0, 1, 64)
    b = Packet(0, 1, 64)
    assert b.pid == a.pid + 1  # module counter still serves default use


# -- load points across workers and pools ------------------------------------


FRACTIONS = [0.05, 0.20, 0.40, 0.60]


def _fresh_points(network, pattern, fractions):
    """A sweep's points drawn from private banks, shared with nothing."""
    return [to_sweep_point(run_load_point(network, CFG, pattern, f,
                                          window_ns=WINDOW_NS, seed=SEED,
                                          warm=False), CFG)
            for f in fractions]


def _warm_points(network, pattern, fractions, workers=1, pool=None):
    """The same points through the interned draw bank, sharded as
    run_figure6 shards them."""
    shards = [Shard(run_load_point, args=(network, CFG, pattern, f),
                    kwargs=dict(window_ns=WINDOW_NS, seed=SEED))
              for f in fractions]
    run = run_sharded(shards, workers=workers, pool=pool)
    return [to_sweep_point(r, CFG) for r in run.results]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sweep_warm_identical_across_worker_counts(workers):
    got = _warm_points("point_to_point", _pattern(), FRACTIONS,
                       workers=workers)
    assert got == _fresh_points("point_to_point", _pattern(), FRACTIONS)


def test_worker_pool_survives_across_run_sharded_calls():
    shards = [Shard(run_load_point,
                    args=("point_to_point", CFG, _pattern(), f),
                    kwargs=dict(window_ns=WINDOW_NS, seed=SEED, warm=True))
              for f in FRACTIONS]
    baseline = run_sharded(shards, workers=1).results
    with WorkerPool(workers=2) as pool:
        first = run_sharded(shards, workers=2, pool=pool)
        second = run_sharded(shards, workers=2, pool=pool)
        assert first.results == baseline
        assert second.results == baseline
        if pool.mode != "serial":
            # same worker processes served both calls (the pool's point)
            pids_first = {r.worker_pid for r in first.reports}
            pids_second = {r.worker_pid for r in second.reports}
            assert pids_first & pids_second
    # close() is idempotent and the pool can be reused after closing
    pool.close()
    third = run_sharded(shards, workers=2, pool=pool)
    assert third.results == baseline
    pool.close()


def test_sweep_accepts_borrowed_pool():
    with WorkerPool(workers=2) as pool:
        a = _warm_points("token_ring", _pattern(), FRACTIONS, workers=2,
                         pool=pool)
    assert a == _fresh_points("token_ring", _pattern(), FRACTIONS)


# -- the interned draw bank --------------------------------------------------


def test_draw_bank_keys_on_pattern_parameters(fresh_draw_banks):
    """Regression: the warm draw bank used to key destination caches on
    (seed, pattern class, layout) only, so two differently-parametrized
    instances of one pattern class shared cached streams — the second
    configuration silently replayed the first one's destinations.  The
    key now includes ``draw_signature()``."""
    from repro.workloads.synthetic import HotspotTraffic

    def warm_run(fraction):
        return run_load_point(
            "point_to_point", CFG,
            HotspotTraffic(CFG.layout, seed=1, hotspot_fraction=fraction),
            0.10, window_ns=WINDOW_NS, seed=SEED, warm=True)

    # populate the bank with the all-uniform configuration, then run the
    # all-hotspot one through the same interned bank registry
    mild = warm_run(0.0)
    extreme = warm_run(1.0)
    clear_draw_banks()
    fresh_extreme = warm_run(1.0)
    assert extreme == fresh_extreme
    assert extreme != mild  # the knob visibly changes the traffic


def test_serial_bursty_sweep_shares_one_draw_bank(fresh_draw_banks,
                                                  monkeypatch):
    """The draw bank serves bursty like every other pattern: a serial
    3-point sweep builds exactly one bank, and its points equal runs on
    private instances."""
    pattern = BurstyTraffic(CFG.layout, seed=1)
    fractions = [0.05, 0.10, 0.20]
    built = []
    init = sweep_mod._DrawBank.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sweep_mod._DrawBank, "__init__", counting_init)
    points = _warm_points("point_to_point", pattern, fractions)
    monkeypatch.undo()
    assert len(built) == 1
    assert points == _fresh_points("point_to_point", pattern, fractions)
