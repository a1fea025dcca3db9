"""Fault-injection tests for ``run_sharded``'s serial and pool loops.

Both must survive the three failure modes a long campaign hits in
practice — a *raising* shard, a worker *killed* mid-flight
(OOM/segfault, injected here via ``os.kill(..., SIGKILL)``), and a
*hung* shard exceeding ``timeout_s`` — and the determinism contract must
hold through recovery: with ``on_error='retry'`` a disturbed run's
results are bit-identical to an undisturbed serial run, proven
differentially for all five photonic network architectures.
"""

import os
import signal
import threading
import time

import pytest

from repro.core.parallel import (
    ErrorPolicy,
    Shard,
    ShardError,
    ShardExecutionError,
    ShardTimeoutError,
    WorkerPool,
    clear_contexts,
    run_sharded,
)
from repro.core.sweep import clear_draw_banks, run_load_point, sweep
from repro.macrochip.config import small_test_config
from repro.workloads.synthetic import UniformTraffic

CFG = small_test_config(2, 2)
WINDOW_NS = 60.0
SEED = 7

#: all five photonic architectures of the paper's Figure 6, plus the
#: HERMES extension (a single 2x2 cluster on this reduced macrochip)
NETWORKS = [
    "point_to_point",
    "limited_point_to_point",
    "token_ring",
    "two_phase",
    "circuit_switched",
    "hermes",
]


@pytest.fixture(autouse=True)
def _fresh_registries():
    clear_contexts()
    clear_draw_banks()
    yield
    clear_contexts()
    clear_draw_banks()


def _pool_available():
    with WorkerPool(2) as probe:
        return probe.acquire() is not None


# -- shard bodies (module-level, picklable) -----------------------------------

def _square(x):
    return x * x


def _boom(x):
    raise ValueError("boom %d" % x)


def _sleep_forever(x):
    time.sleep(60)
    return x


class UnpicklableError(Exception):
    """An exception that cannot cross the pickle boundary (carries a
    lock), forcing the traceback-text transport fallback."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def _raise_unpicklable(x):
    raise UnpicklableError("untransportable %d" % x)


def _fail_once_then_square(sentinel, x):
    """Transient failure: raises on the first attempt (sentinel absent),
    succeeds on every retry."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("armed")
        raise RuntimeError("transient %d" % x)
    return x * x


def _kill_once_then_load_point(sentinel, network, config, pattern, fraction,
                               **kwargs):
    """SIGKILL the hosting worker on the first attempt (simulating an
    OOM kill mid-shard); compute the load point normally on re-execution.
    The sentinel is written *before* the kill so the retry — wherever it
    runs — sees it."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("armed")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_load_point(network, config, pattern, fraction, **kwargs)


# -- error policy validation ---------------------------------------------------

def test_error_policy_validation():
    assert ErrorPolicy().on_error == "raise"
    with pytest.raises(ValueError, match="on_error"):
        ErrorPolicy(on_error="bogus")
    with pytest.raises(ValueError, match="max_retries"):
        ErrorPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="timeout_s"):
        ErrorPolicy(timeout_s=0.0)
    with pytest.raises(ValueError, match="on_error"):
        run_sharded([Shard(_square, args=(1,))], on_error="bogus")


# -- raising shard ------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_collect_keeps_19_of_20(workers):
    """The acceptance criterion: a 20-shard run with one always-raising
    shard returns 19 valid results plus one structured ShardError, and
    summary() reports the failure count."""
    shards = [Shard(_square, args=(i,), label="sq%d" % i) for i in range(20)]
    shards[7] = Shard(_boom, args=(7,), label="boom7")
    run = run_sharded(shards, workers=workers, on_error="collect")
    err = run.results[7]
    assert isinstance(err, ShardError)
    assert err.kind == "exception"
    assert err.error_type == "ValueError"
    assert "boom 7" in err.message
    assert "ValueError" in err.traceback
    assert err.index == 7 and err.label == "boom7"
    good = [r for i, r in enumerate(run.results) if i != 7]
    assert good == [i * i for i in range(20) if i != 7]
    assert run.failed == 1 and not run.ok
    assert run.errors == [err]
    assert ", 1 failed" in run.summary()
    assert "boom7" in run.failure_report()


@pytest.mark.parametrize("workers", [1, 2])
def test_raise_policy_still_propagates(workers):
    with pytest.raises(ValueError, match="boom"):
        run_sharded([Shard(_square, args=(1,)), Shard(_boom, args=(2,))],
                    workers=workers, on_error="raise")


@pytest.mark.parametrize("workers", [1, 2])
def test_retry_recovers_transient_failure(workers, tmp_path):
    sentinel = str(tmp_path / ("transient-%d" % workers))
    shards = [Shard(_fail_once_then_square, args=(sentinel, 3),
                    label="flaky"),
              Shard(_square, args=(4,), label="steady")]
    run = run_sharded(shards, workers=workers, on_error="retry",
                      max_retries=2)
    assert run.results == [9, 16]
    assert run.ok
    flaky_report = run.reports[0]
    assert flaky_report.label == "flaky" and flaky_report.attempts == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_retry_exhausts_then_collects(workers):
    run = run_sharded([Shard(_boom, args=(1,), label="always"),
                       Shard(_square, args=(2,))],
                      workers=workers, on_error="retry", max_retries=2)
    err = run.results[0]
    assert isinstance(err, ShardError)
    assert err.attempts == 3  # first try + two retries
    assert run.results[1] == 4


def test_unpicklable_exception_transport():
    """An exception that cannot pickle must still surface: as a
    ShardExecutionError embedding the worker traceback under 'raise',
    and as a typed ShardError under 'collect'."""
    if not _pool_available():
        pytest.skip("platform cannot create worker pools")
    shards = [Shard(_raise_unpicklable, args=(5,), label="weird"),
              Shard(_square, args=(6,))]
    with pytest.raises(ShardExecutionError, match="worker traceback"):
        run_sharded(shards, workers=2, on_error="raise")
    run = run_sharded(shards, workers=2, on_error="collect")
    err = run.results[0]
    assert isinstance(err, ShardError)
    assert err.error_type == "UnpicklableError"
    assert "untransportable 5" in err.message
    assert run.results[1] == 36


# -- killed worker ------------------------------------------------------------

def test_killed_worker_recovers_and_completes(tmp_path):
    """A SIGKILLed worker must not lose the run: the pool is rebuilt and
    the lost shard re-executed, with every other result intact."""
    if not _pool_available():
        pytest.skip("platform cannot create worker pools")
    pattern = UniformTraffic(CFG.layout, seed=1)
    sentinel = str(tmp_path / "killed")
    kwargs = dict(window_ns=WINDOW_NS, seed=SEED)
    shards = [Shard(run_load_point,
                    args=("point_to_point", CFG, pattern, f),
                    kwargs=kwargs, label="@%.2f" % f)
              for f in (0.02, 0.05, 0.10)]
    shards.insert(1, Shard(_kill_once_then_load_point,
                           args=(sentinel, "point_to_point", CFG, pattern,
                                 0.20),
                           kwargs=kwargs, label="killed@0.20"))
    run = run_sharded(shards, workers=2, on_error="retry")
    assert run.ok
    assert os.path.exists(sentinel)  # the kill really fired
    baseline = [run_load_point("point_to_point", CFG, pattern, f,
                               **kwargs) for f in (0.02, 0.20, 0.05, 0.10)]
    assert run.results == baseline


@pytest.mark.parametrize("network", NETWORKS)
def test_kill_retry_bit_identical_to_serial(network, tmp_path):
    """The determinism lock (acceptance criterion): with
    on_error='retry', a run where one worker is killed mid-flight is
    bit-identical to an undisturbed serial run — for every network."""
    if not _pool_available():
        pytest.skip("platform cannot create worker pools")
    pattern = UniformTraffic(CFG.layout, seed=1)
    fractions = [0.02, 0.05, 0.10, 0.20]
    kwargs = dict(window_ns=WINDOW_NS, seed=SEED)
    baseline = [run_load_point(network, CFG, pattern, f, **kwargs)
                for f in fractions]
    sentinel = str(tmp_path / ("killed-%s" % network))
    shards = []
    for i, f in enumerate(fractions):
        if i == 1:
            shards.append(Shard(_kill_once_then_load_point,
                                args=(sentinel, network, CFG, pattern, f),
                                kwargs=kwargs, label="killed@%.2f" % f))
        else:
            shards.append(Shard(run_load_point,
                                args=(network, CFG, pattern, f),
                                kwargs=kwargs, label="@%.2f" % f))
    run = run_sharded(shards, workers=2, on_error="retry")
    assert os.path.exists(sentinel)
    assert run.results == baseline  # dataclass field equality
    for got, want in zip(run.results, baseline):
        assert repr(got) == repr(want)  # byte-identical rendering


# -- hung shard / timeout ------------------------------------------------------

def test_timeout_collects_and_rest_completes():
    if not _pool_available():
        pytest.skip("platform cannot create worker pools")
    shards = [Shard(_square, args=(i,), label="sq%d" % i) for i in range(6)]
    shards[2] = Shard(_sleep_forever, args=(2,), label="hung")
    started = time.monotonic()
    run = run_sharded(shards, workers=2, on_error="collect", timeout_s=1.0)
    assert time.monotonic() - started < 45  # never waits the full sleep
    err = run.results[2]
    assert isinstance(err, ShardError)
    assert err.kind == "timeout"
    assert err.error_type == "ShardTimeoutError"
    assert "timeout_s" in err.message
    others = [run.results[i] for i in (0, 1, 3, 4, 5)]
    assert others == [0, 1, 9, 16, 25]
    assert ", 1 failed" in run.summary()


def test_timeout_raises_under_raise_policy():
    if not _pool_available():
        pytest.skip("platform cannot create worker pools")
    shards = [Shard(_sleep_forever, args=(0,), label="hung"),
              Shard(_square, args=(1,))]
    started = time.monotonic()
    with pytest.raises(ShardTimeoutError, match="hung"):
        run_sharded(shards, workers=2, on_error="raise", timeout_s=0.5)
    assert time.monotonic() - started < 45


def test_serial_backend_ignores_timeout():
    """A serial run cannot enforce timeout_s in-process: a fast shard
    list with a timeout must simply run."""
    run = run_sharded([Shard(_square, args=(i,)) for i in range(3)],
                      workers=1, on_error="collect", timeout_s=0.001)
    assert run.results == [0, 1, 4]


# -- WorkerPool shutdown hardening --------------------------------------------

def test_worker_pool_close_does_not_hang_on_stuck_worker():
    pool = WorkerPool(2, close_timeout_s=0.5)
    mp_pool = pool.acquire()
    if mp_pool is None:
        pytest.skip("platform cannot create worker pools")
    assert pool.mode != "serial"
    mp_pool.apply_async(time.sleep, (60,))
    time.sleep(0.2)  # let the task start on a worker
    started = time.monotonic()
    pool.close()
    assert time.monotonic() - started < 30  # terminate fallback kicked in
    assert pool.mode == "serial"  # stale mode reset (the satellite fix)
    # the pool object is reusable: fresh workers on next use
    run = run_sharded([Shard(_square, args=(i,)) for i in range(4)],
                      workers=2, pool=pool)
    assert run.results == [0, 1, 4, 9]
    pool.close()
    assert pool.mode == "serial"


def test_worker_pool_pids_and_rebuild():
    pool = WorkerPool(2)
    if pool.acquire() is None:
        pytest.skip("platform cannot create worker pools")
    pids = pool.worker_pids()
    assert len(pids) == 2
    pool.rebuild()
    assert pool.mode == "serial" and pool.worker_pids() == ()
    assert pool.acquire() is not None
    assert set(pool.worker_pids()).isdisjoint(pids)
    pool.close()


# -- progress callback isolation (satellite 3) ---------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_raising_progress_cannot_corrupt_results(workers):
    def bad_progress(message):
        raise RuntimeError("telemetry crash")

    shards = [Shard(_square, args=(i,)) for i in range(6)]
    with pytest.warns(RuntimeWarning, match="progress callback"):
        run = run_sharded(shards, workers=workers, progress=bad_progress)
    assert run.results == [0, 1, 4, 9, 16, 25]
    assert len(run.reports) == 6


# -- policy threading through the sweep/figure layer ---------------------------

def test_sweep_collect_drops_failed_point():
    """A load point that raises (offered load <= 0) is dropped from the
    curve instead of aborting the sweep."""
    pattern = UniformTraffic(CFG.layout, seed=1)
    points = sweep("point_to_point", CFG, pattern, [0.05, -1.0],
                   window_ns=WINDOW_NS, seed=SEED, workers=1,
                   on_error="collect")
    assert len(points) == 1
    assert points[0].offered_fraction == 0.05
    with pytest.raises(ValueError, match="positive"):
        sweep("point_to_point", CFG, pattern, [0.05, -1.0],
              window_ns=WINDOW_NS, seed=SEED, workers=1)


def test_figure6_collect_records_failures():
    from repro.experiments.figure6 import figure6_text, run_figure6

    result = run_figure6(config=CFG, window_ns=WINDOW_NS,
                         patterns=["uniform"], networks=["point_to_point"],
                         load_grids={"uniform": [0.02, -1.0]},
                         on_error="collect")
    assert len(result.failures) == 1
    assert result.failures[0].error_type == "ValueError"
    assert len(result.curves["uniform"]["point_to_point"]) == 1
    rows = result.saturation_table()  # must not crash on partial curves
    assert rows and rows[0][0] == "uniform"
    assert "failed" in figure6_text(result)


def test_campaign_never_caches_failures(tmp_path, monkeypatch):
    """A failed replay must not be written to the suite cache: the next
    run_suite over the same cache_dir retries exactly that pair."""
    import repro.experiments.evaluation as evaluation

    real = evaluation.replay

    def flaky(trace, network, config):
        if network == "token_ring" and not hasattr(flaky, "healed"):
            raise RuntimeError("injected replay failure")
        return real(trace, network, config)

    monkeypatch.setattr(evaluation, "replay", flaky)
    results_dir = tmp_path / "c" / "results"
    kwargs = dict(config=CFG, networks=["point_to_point", "token_ring"],
                  workloads=["Radix"], cache_dir=str(tmp_path / "c"),
                  on_error="collect")
    suite = evaluation.run_suite("smoke", **kwargs)
    assert "token_ring" not in suite.results["Radix"]
    assert len(suite.failures) == 1
    assert suite.failures[0].error_type == "RuntimeError"
    assert sorted(os.listdir(results_dir)) == ["Radix__point_to_point.json"]
    flaky.healed = True  # second run: the injected fault is gone
    suite = evaluation.run_suite("smoke", **kwargs)
    assert suite.results["Radix"]["token_ring"].runtime_ps > 0
    assert len(os.listdir(results_dir)) == 2
    assert suite.failures == []
