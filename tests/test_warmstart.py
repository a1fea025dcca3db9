"""Differential tests locking the PR 5 warm-start machinery down.

Warm-start execution reuses three things a ``warm=False`` run builds
privately per load point — the (simulator, network) pair (reset via the
``reset()`` protocol), the interned pure derived tables, and the
injection draw bank — and the contract is absolute: a warm run must be
*bit-identical* to one on fresh private instances, proven by

* byte-identical canonical traces after N reuse cycles of one context,
  for every network architecture plus the electrical baseline;
* exact :class:`~repro.core.sweep.LoadPointResult` equality (including
  ``events_dispatched``) between cold and warm runs;
* bit-identical sweep results for worker counts 1, 2, and 4 with warm
  contexts live inside the workers (pool-reuse determinism).

The reset protocol itself is unit-tested at each layer (engine, stats,
networks), and per-run packet ids are pinned: a run's raw pids must be a
pure function of its arguments, independent of process history.
"""

import gc

import pytest

import repro.core.sweep as sweep_mod
from repro.core.engine import Simulator
from repro.core.interning import clear_interned, intern_table, interned_count
from repro.core.parallel import (WorkerPool, clear_contexts, get_context,
                                 run_sharded, Shard)
from repro.core.stats import NetworkStats
from repro.core.sweep import clear_draw_banks, run_load_point, to_sweep_point
from repro.core.tracing import TraceRecorder
from repro.macrochip.config import small_test_config
from repro.networks.base import Packet
from repro.networks.factory import available_networks, build_network
from repro.workloads.synthetic import BurstyTraffic, UniformTraffic


CFG = small_test_config(4, 4)

#: every architecture plus the electrical baseline, each with a load
#: near its knee so queues/arbitration state actually accumulates
NETWORK_LOADS = [
    ("point_to_point", 0.60),
    ("limited_point_to_point", 0.40),
    ("token_ring", 0.30),
    ("two_phase", 0.08),
    ("circuit_switched", 0.03),
    ("electrical_baseline", 0.05),
    ("hermes", 0.30),
]

NETWORKS = [key for key, _ in NETWORK_LOADS]

WINDOW_NS = 80.0
SEED = 7
REUSE_CYCLES = 3


def _pattern():
    return UniformTraffic(CFG.layout, seed=1)


def _run(network, load, warm, tracer=None):
    return run_load_point(network, CFG, _pattern(), load,
                          window_ns=WINDOW_NS, seed=SEED, warm=warm,
                          tracer=tracer)


@pytest.fixture(autouse=True)
def _fresh_registries():
    """Every test starts with cold per-process registries, so warm paths
    demonstrably construct-then-reuse inside the test itself."""
    clear_contexts()
    clear_draw_banks()
    yield
    clear_contexts()
    clear_draw_banks()


# -- reset protocol units ----------------------------------------------------


def test_simulator_reset_restores_fresh_state():
    sim = Simulator()
    fired = []
    sim.at(5, fired.append, "a")
    sim.schedule(9, fired.append, "b")
    sim.run()
    assert sim.now > 0 and fired == ["a", "b"]
    sim.reset()
    assert sim.now == 0
    assert not sim.pending()
    # the clock and sequence numbers restart: a rerun schedules events
    # at absolute times again, not relative to the old clock
    sim.at(3, fired.append, "c")
    sim.run()
    assert sim.now == 3 and fired[-1] == "c"


def test_simulator_reset_preserves_queue_identity():
    """reset() must clear the queue in place — the run loop binds it
    locally, so rebinding would desynchronize a reset simulator."""
    sim = Simulator()
    queue = sim._queue
    for t in (5, 4, 3):
        sim.at(t, lambda: None)
    sim.reset()
    assert sim._queue is queue
    assert not queue


def test_network_stats_reset():
    stats = NetworkStats(warmup_ps=10, window_end_ps=100)
    stats.injected_packets = 5
    stats.delivered_packets = 4
    stats.latency.add(5000)
    stats.throughput.record(50, 64)
    stats.energy.add("laser", 1.5)
    stats.throughput.window_end_ps = 777  # run-level override
    stats.reset()
    assert stats.injected_packets == 0
    assert stats.delivered_packets == 0
    assert len(stats.latency) == 0
    assert stats.energy.total_pj == 0.0
    assert stats.throughput.bytes_per_ns() == 0.0
    # reset restores the *constructed* window, not the override
    assert stats.throughput.window_end_ps == 100


@pytest.mark.parametrize("network", NETWORKS)
def test_network_reset_equals_fresh_instance(network):
    """A reset network run a second time must behave byte-identically to
    a fresh construction: same canonical trace, same stats."""
    load = dict(NETWORK_LOADS)[network]
    fresh = _run(network, load, warm=False)
    fresh_trace = _canonical(network, load, warm=False)
    # one context, reused REUSE_CYCLES times, compared every cycle
    for cycle in range(REUSE_CYCLES):
        assert _run(network, load, warm=True) == fresh, (
            "results diverged on reuse cycle %d" % cycle)
        assert _canonical(network, load, warm=True) == fresh_trace, (
            "trace diverged on reuse cycle %d" % cycle)


def _canonical(network, load, warm):
    rec = TraceRecorder()
    _run(network, load, warm=warm, tracer=rec)
    return "\n".join(rec.canonical_lines()).encode()


# -- context registry --------------------------------------------------------


def test_get_context_reuses_and_resets():
    ctx1 = get_context("point_to_point", CFG, warmup_ps=100)
    sim, net = ctx1.sim, ctx1.network
    sim.at(5, lambda: None)
    sim.run()
    ctx2 = get_context("point_to_point", CFG, warmup_ps=100)
    assert ctx2 is ctx1 and ctx2.sim is sim and ctx2.network is net
    assert sim.now == 0 and not sim.pending()
    assert ctx2.uses == 2
    # a different fingerprint gets its own context
    ctx3 = get_context("point_to_point", CFG, warmup_ps=200)
    assert ctx3 is not ctx1
    assert clear_contexts() == 2


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


@pytest.mark.parametrize("network", available_networks())
def test_warm_load_point_leaves_no_cyclic_garbage(network):
    """A warm load point refers back to nothing of its own: once the
    next reuse resets the context, the previous run's injector, gap
    lists and in-flight packets are freed by reference counting alone,
    with nothing left for the cyclic GC."""
    _run(network, 0.20, warm=True)  # construct the context and the bank
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):  # the second reset drops the first run's queue
            result = _run(network, 0.20, warm=True)
            assert result.delivered_packets > 0
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- per-run packet ids ------------------------------------------------------


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


# -- pool-reuse determinism --------------------------------------------------


FRACTIONS = [0.05, 0.20, 0.40, 0.60]


def _fresh_points(network, pattern, fractions):
    """A sweep's points built from private, unshared instances."""
    return [to_sweep_point(run_load_point(network, CFG, pattern, f,
                                          window_ns=WINDOW_NS, seed=SEED,
                                          warm=False), CFG)
            for f in fractions]


def _warm_points(network, pattern, fractions, workers=1, pool=None):
    """The same points through warm contexts and the interned draw
    bank, sharded as run_figure6 shards them."""
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


# -- draw-bank cache keys for parametrized patterns (PR 8 regression) --------


def test_draw_bank_keys_on_pattern_parameters():
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
    # all-hotspot one through the same warm registries
    mild = warm_run(0.0)
    extreme = warm_run(1.0)
    clear_contexts()
    clear_draw_banks()
    fresh_extreme = warm_run(1.0)
    assert extreme == fresh_extreme
    assert extreme != mild  # the knob visibly changes the traffic


def test_serial_bursty_sweep_shares_one_draw_bank(monkeypatch):
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
