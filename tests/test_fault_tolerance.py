"""Failure tests for ``run_sharded``'s serial and pool loops.

A *raising* shard follows the error policy on both loops: ``'raise'``
propagates it, ``'collect'`` turns it into a :class:`ShardError` result
slot while every other result survives.  A worker *killed* mid-flight
(OOM/segfault, injected here via ``os.kill(..., SIGKILL)``) fails the
run loudly with ``BrokenProcessPool`` naming the shard, and the next
run starts fresh workers.  Every pool run shuts its workers down before
it returns or raises.  A pool run is bit-identical to the serial run on
every photonic network, and the retired retry/timeout options are
rejected at every layer.
"""

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.parallel import (
    Shard,
    ShardError,
    ShardExecutionError,
    run_sharded,
)
from repro.core.sweep import run_load_point
from repro.macrochip.config import small_test_config
from repro.workloads.synthetic import UniformTraffic

CFG = small_test_config(2, 2)
WINDOW_NS = 60.0
SEED = 7

#: all five photonic architectures of the paper's Figure 6
NETWORKS = [
    "point_to_point",
    "limited_point_to_point",
    "token_ring",
    "two_phase",
    "circuit_switched",
]


def _pool_available():
    return run_sharded([Shard(_square, args=(i,)) for i in range(2)],
                       workers=2).mode != "serial"


# -- shard bodies (module-level, picklable) -----------------------------------

def _square(x):
    return x * x


def _boom(x):
    raise ValueError("boom %d" % x)


class UnpicklableError(Exception):
    """An exception that cannot cross the pickle boundary (carries a
    lock), forcing the traceback-text transport fallback."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def _raise_unpicklable(x):
    raise UnpicklableError("untransportable %d" % x)


def _kill_own_worker(x):
    """SIGKILL the hosting worker mid-shard (simulating an OOM kill)."""
    os.kill(os.getpid(), signal.SIGKILL)
    return x


# -- error policy validation ---------------------------------------------------

def test_error_policy_validation():
    with pytest.raises(ValueError, match="on_error"):
        run_sharded([Shard(_square, args=(1,))], on_error="bogus")


def test_retired_fault_options_rejected(capsys):
    """Retry and per-shard timeouts are gone from every layer: the
    library calls reject them by name, the CLI flags are usage errors."""
    from repro.experiments.evaluation import run_suite
    from repro.experiments.figure6 import run_figure6
    from repro.experiments.run import main

    with pytest.raises(ValueError, match="'raise' or 'collect'"):
        run_sharded([Shard(_square, args=(1,))], on_error="retry")
    pattern = UniformTraffic(CFG.layout, seed=1)
    calls = [
        lambda **kw: run_sharded([Shard(_square, args=(1,))], **kw),
        lambda **kw: run_figure6(config=CFG, window_ns=WINDOW_NS,
                                 patterns=["uniform"],
                                 networks=["point_to_point"],
                                 load_grids={"uniform": [0.05]}, **kw),
        lambda **kw: run_suite("smoke", config=CFG,
                               networks=["point_to_point"],
                               workloads=["Radix"], **kw),
    ]
    for call in calls:
        for retired in (dict(max_retries=2), dict(timeout_s=5.0)):
            with pytest.raises(TypeError, match=next(iter(retired))):
                call(**retired)
    for flags in (["--max-retries", "2"], ["--timeout-s", "5"],
                  ["--on-error", "retry"]):
        with pytest.raises(SystemExit) as exc:
            main(["--artifact", "tables"] + flags)
        assert exc.value.code == 2, flags
        assert "error:" in capsys.readouterr().err


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
    assert err.error_type == "ValueError"
    assert "boom 7" in err.message
    assert "ValueError" in err.traceback
    assert err.index == 7 and err.label == "boom7"
    good = [r for i, r in enumerate(run.results) if i != 7]
    assert good == [i * i for i in range(20) if i != 7]
    assert run.failed == 1 and not run.ok
    assert run.errors == [err]
    assert ", 1 failed" in run.summary()
    assert multiprocessing.active_children() == []  # no worker outlives it


@pytest.mark.parametrize("workers", [1, 2])
def test_raise_policy_still_propagates(workers):
    with pytest.raises(ValueError, match="boom"):
        run_sharded([Shard(_square, args=(1,)), Shard(_boom, args=(2,))],
                    workers=workers, on_error="raise")
    assert multiprocessing.active_children() == []


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


# -- pool determinism and killed workers -------------------------------------

@pytest.mark.parametrize("network", NETWORKS)
def test_pool_bit_identical_to_serial(network):
    """The per-network determinism lock: a 2-worker pool run equals the
    serial run, field for field and byte for byte."""
    if not _pool_available():
        pytest.skip("platform cannot create worker pools")
    pattern = UniformTraffic(CFG.layout, seed=1)
    fractions = [0.02, 0.05, 0.10, 0.20]
    kwargs = dict(window_ns=WINDOW_NS, seed=SEED)
    shards = [Shard(run_load_point, args=(network, CFG, pattern, f),
                    kwargs=kwargs, label="@%.2f" % f) for f in fractions]
    serial = run_sharded(shards, workers=1)
    pooled = run_sharded(shards, workers=2, cost_key=lambda s: s.args[3])
    assert pooled.mode != "serial"
    assert pooled.results == serial.results  # dataclass field equality
    for got, want in zip(pooled.results, serial.results):
        assert repr(got) == repr(want)  # byte-identical rendering


@pytest.mark.parametrize("on_error", ["raise", "collect"])
def test_killed_worker_fails_loudly(on_error):
    """A SIGKILLed worker fails the run at once, under either policy,
    naming the shard it held, and leaves no worker process behind; the
    next call runs a fresh shard list on new workers."""
    if not _pool_available():
        pytest.skip("platform cannot create worker pools")
    shards = [Shard(_square, args=(i,), label="sq%d" % i) for i in range(4)]
    shards[1] = Shard(_kill_own_worker, args=(1,), label="killed-shard")
    started = time.monotonic()
    with pytest.raises(BrokenProcessPool, match="killed-shard"):
        run_sharded(shards, workers=2, on_error=on_error)
    assert time.monotonic() - started < 10
    assert multiprocessing.active_children() == []
    fresh = [Shard(_square, args=(i,), label="sq%d" % i) for i in range(6)]
    run = run_sharded(fresh, workers=2, on_error=on_error)
    assert run.mode != "serial"
    assert run.results == [i * i for i in range(6)] and run.ok


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
    curve instead of aborting the figure; under the default policy it
    aborts it."""
    from repro.experiments.figure6 import run_figure6

    kwargs = dict(config=CFG, window_ns=WINDOW_NS, patterns=["uniform"],
                  networks=["point_to_point"],
                  load_grids={"uniform": [0.05, -1.0]})
    result = run_figure6(on_error="collect", **kwargs)
    points = result.curves["uniform"]["point_to_point"]
    assert len(points) == 1
    assert points[0].offered_fraction == 0.05
    with pytest.raises(ValueError, match="positive"):
        run_figure6(**kwargs)


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
