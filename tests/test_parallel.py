"""Tests for the parallel shard runner and seed derivation
(:mod:`repro.core.parallel`)."""

import os

import pytest

import repro.core.sweep as sweep_module
from repro.core.parallel import (
    Shard,
    ShardReport,
    ShardedRun,
    _submission_order,
    available_cpus,
    derive_seed,
    resolve_workers,
    run_sharded,
)
from repro.core.sweep import run_load_point
from repro.experiments.figure6 import run_figure6
from repro.macrochip.config import scaled_config, small_test_config
from repro.workloads.synthetic import UniformTraffic


CFG = small_test_config(2, 2)


# -- derive_seed --------------------------------------------------------------

def test_derive_seed_is_deterministic():
    assert derive_seed(42, "gap", 3) == derive_seed(42, "gap", 3)


def test_derive_seed_distinguishes_components():
    seeds = {
        derive_seed(42),
        derive_seed(42, "gap", 0),
        derive_seed(42, "gap", 1),
        derive_seed(42, "dst", 0),
        derive_seed(43, "gap", 0),
        derive_seed(42, "gap", "0"),  # int vs str must differ
    }
    assert len(seeds) == 6


def test_derive_seed_fits_63_bits():
    for site in range(50):
        assert 0 <= derive_seed(12345, site) < 2 ** 63


# -- resolve_workers / available_cpus -----------------------------------------

def test_resolve_workers_clamps_and_detects():
    assert resolve_workers(4) == 4
    with pytest.raises(ValueError, match="workers"):
        resolve_workers(-3)
    assert resolve_workers(None) >= 1
    assert resolve_workers(0) >= 1


def test_available_cpus_positive():
    assert available_cpus() >= 1


def test_available_cpus_without_sched_getaffinity(monkeypatch):
    """Non-Linux hosts have no os.sched_getaffinity at all; the helper
    must fall back to cpu_count instead of raising AttributeError."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert available_cpus() == 6
    assert resolve_workers(None) == 6


def test_available_cpus_when_cpu_count_unknown(monkeypatch):
    """cpu_count() may return None; the helper never reports < 1 core."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cpus() == 1
    assert resolve_workers(0) == 1


def test_available_cpus_when_getaffinity_fails(monkeypatch):
    def broken(pid):
        raise OSError("affinity mask unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert available_cpus() == 3


# -- run_sharded --------------------------------------------------------------

def _square(x):
    return x * x


def _boom(x):
    raise ValueError("boom %d" % x)


def test_serial_results_in_submission_order():
    run = run_sharded([Shard(_square, args=(i,), label="sq%d" % i)
                       for i in range(5)], workers=1)
    assert run.results == [0, 1, 4, 9, 16]
    assert run.mode == "serial"
    assert run.workers == 1


def test_parallel_results_match_serial():
    shards = [Shard(_square, args=(i,)) for i in range(8)]
    serial = run_sharded(shards, workers=1)
    parallel = run_sharded(shards, workers=2)
    assert parallel.results == serial.results


def test_reports_carry_telemetry():
    run = run_sharded([Shard(_square, args=(3,), label="three")], workers=1)
    (report,) = run.reports
    assert isinstance(report, ShardReport)
    assert report.label == "three"
    assert report.index == 0
    assert report.wall_clock_s >= 0
    assert report.worker_pid == os.getpid()
    assert run.total_shard_seconds >= 0
    assert run.speedup > 0


def test_progress_called_per_shard():
    seen = []
    run_sharded([Shard(_square, args=(i,)) for i in range(3)],
                workers=1, progress=seen.append)
    assert len(seen) == 3


def test_exceptions_propagate():
    with pytest.raises(ValueError, match="boom"):
        run_sharded([Shard(_boom, args=(1,))], workers=1)
    with pytest.raises(ValueError, match="boom"):
        run_sharded([Shard(_square, args=(1,)), Shard(_boom, args=(2,))],
                    workers=2)


def test_empty_shard_list():
    run = run_sharded([], workers=4)
    assert run.results == []
    assert run.reports == []


def test_events_telemetry_from_load_points():
    run = run_sharded([Shard(
        run_load_point,
        args=("point_to_point", CFG, UniformTraffic(CFG.layout), 0.05),
        kwargs=dict(window_ns=100.0))], workers=1)
    assert run.reports[0].events_dispatched > 0
    assert run.total_events == run.reports[0].events_dispatched


# -- speedup guard ------------------------------------------------------------

def _run_with_wall(wall_clock_s, shard_seconds=(0.5, 0.5)):
    return ShardedRun(
        results=[None] * len(shard_seconds),
        reports=[ShardReport(index=i, label="", wall_clock_s=s,
                             events_dispatched=0, worker_pid=0)
                 for i, s in enumerate(shard_seconds)],
        workers=2, mode="fork", wall_clock_s=wall_clock_s)


def test_speedup_finite_when_wall_clock_quantizes_to_zero():
    run = _run_with_wall(0.0)
    assert run.speedup == 1.0
    assert "1.00x speedup" in run.summary()


def test_speedup_finite_on_nan_and_negative_wall_clock():
    assert _run_with_wall(float("nan")).speedup == 1.0
    assert _run_with_wall(-1.0).speedup == 1.0
    # degenerate telemetry inside the ratio is also caught
    assert _run_with_wall(1.0, (float("inf"), 0.5)).speedup == 1.0


def test_speedup_normal_case_unchanged():
    run = _run_with_wall(0.5)
    assert run.speedup == pytest.approx(2.0)


# -- cost-keyed submission order ----------------------------------------------

def test_submission_order_descending_cost_stable_ties():
    shards = [Shard(_square, args=(i,)) for i in range(5)]
    costs = {0: 1.0, 1: 5.0, 2: 5.0, 3: 0.5, 4: 9.0}
    order = _submission_order(shards, lambda s: costs[s.args[0]])
    assert order == [4, 1, 2, 0, 3]  # ties (1, 2) keep submission order


def test_submission_order_without_key_is_natural():
    shards = [Shard(_square, args=(i,)) for i in range(4)]
    assert _submission_order(shards, None) == [0, 1, 2, 3]


def test_cost_key_never_changes_results():
    shards = [Shard(_square, args=(i,)) for i in range(8)]
    plain = run_sharded(shards, workers=2)
    keyed = run_sharded(shards, workers=2, cost_key=lambda s: s.args[0])
    serial = run_sharded(shards, workers=1, cost_key=lambda s: s.args[0])
    assert plain.results == keyed.results == serial.results
    # reports stay keyed by submission index, not completion order
    assert [r.index for r in keyed.reports] == list(range(8))


# -- the LRU-bounded draw-bank registry ---------------------------------------

def test_draw_bank_cache_lru_cap(monkeypatch):
    from repro.core.sweep import _DRAW_BANKS, _get_draw_bank, clear_draw_banks

    pattern = UniformTraffic(CFG.layout)
    clear_draw_banks()
    monkeypatch.setattr(sweep_module, "DRAW_BANK_CACHE_LIMIT", 2)
    try:
        bank1 = _get_draw_bank(pattern, 1, CFG.num_sites)
        bank2 = _get_draw_bank(pattern, 2, CFG.num_sites)
        _get_draw_bank(pattern, 1, CFG.num_sites)  # touch: seed 1 is MRU
        _get_draw_bank(pattern, 3, CFG.num_sites)  # evicts seed 2
        assert len(_DRAW_BANKS) == 2
        assert _get_draw_bank(pattern, 1, CFG.num_sites) is bank1
        assert _get_draw_bank(pattern, 2, CFG.num_sites) is not bank2
    finally:
        clear_draw_banks()


def test_lru_eviction_never_changes_results(monkeypatch):
    """Warm results under a draw-bank cap of 1 (maximum eviction churn
    across alternating seeds) must equal private banks exactly."""
    from repro.core.sweep import clear_draw_banks

    pattern = UniformTraffic(CFG.layout)
    clear_draw_banks()
    monkeypatch.setattr(sweep_module, "DRAW_BANK_CACHE_LIMIT", 1)
    try:
        cold = [run_load_point(net, CFG, pattern, 0.05, window_ns=100.0,
                               seed=seed, warm=False)
                for seed in (7, 11) for net in ("point_to_point",
                                                "token_ring")]
        warm = [run_load_point(net, CFG, pattern, 0.05, window_ns=100.0,
                               seed=seed, warm=True)
                for seed in (7, 11) for net in ("point_to_point",
                                                "token_ring")]
        assert warm == cold
    finally:
        clear_draw_banks()


# -- the determinism contract on real sweeps ---------------------------------

def test_load_point_results_bit_identical_serial_vs_parallel():
    """The acceptance criterion: workers=1 and workers=4 produce
    byte-identical LoadPointResults for the same grid."""
    fractions = [0.02, 0.05, 0.10, 0.20]
    pattern = UniformTraffic(CFG.layout)
    shards = [Shard(run_load_point,
                    args=("point_to_point", CFG, pattern, f),
                    kwargs=dict(window_ns=150.0))
              for f in fractions]
    serial = run_sharded(shards, workers=1)
    parallel = run_sharded(shards, workers=4)
    assert serial.results == parallel.results  # dataclass field equality
    for a, b in zip(serial.results, parallel.results):
        assert repr(a) == repr(b)  # byte-identical rendering


def _scaled_sweep_shards():
    """An 8-point uniform sweep on the paper's 8x8 configuration: shards
    large enough for a process pool to pay off."""
    cfg = scaled_config()
    pattern = UniformTraffic(cfg.layout)
    return [Shard(run_load_point,
                  args=("point_to_point", cfg, pattern, f),
                  kwargs=dict(window_ns=120.0), label="@%.2f" % f)
            for f in (0.02, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 0.95)]


def test_scaled_sweep_identical_on_4_workers_under_both_policies():
    shards = _scaled_sweep_shards()
    serial = run_sharded(shards, workers=1)
    assert len(serial.results) == len(shards)
    assert serial.mode == "serial"
    run = run_sharded(shards, workers=4)
    assert run.results == serial.results
    # on_error='collect' on a clean run: same results, zero failures
    collect = run_sharded(shards, workers=4, on_error="collect")
    assert collect.results == serial.results
    assert collect.ok and collect.failed == 0


def test_4_workers_at_least_twice_as_fast():
    """The speedup target on a real multi-core host."""
    if available_cpus() < 4:
        pytest.skip("needs >= 4 CPUs")
    shards = _scaled_sweep_shards()
    serial = run_sharded(shards, workers=1)
    run = run_sharded(shards, workers=4)
    assert run.results == serial.results
    if run.mode == "serial":
        pytest.skip("no process pool on this host")
    assert run.wall_clock_s < serial.wall_clock_s / 2.0, (
        "expected >=2x speedup on 4 workers, got %.2fx"
        % (serial.wall_clock_s / run.wall_clock_s))


def test_sweep_workers_param_matches_serial():
    kwargs = dict(window_ns=150.0, patterns=["uniform"],
                  networks=["point_to_point"],
                  load_grids={"uniform": [0.02, 0.08]})
    serial = run_figure6(CFG, workers=1, **kwargs)
    parallel = run_figure6(CFG, workers=2, **kwargs)
    assert serial.curves == parallel.curves


def test_load_point_independent_of_pattern_rng_state():
    """Per-site streams derive from the seed, so the incoming pattern
    object's RNG position cannot leak into results."""
    pattern = UniformTraffic(CFG.layout)
    a = run_load_point("point_to_point", CFG, pattern, 0.05,
                       window_ns=150.0, seed=7)
    pattern.rng.random()  # perturb the shared pattern's stream
    b = run_load_point("point_to_point", CFG, pattern, 0.05,
                       window_ns=150.0, seed=7)
    assert a == b
