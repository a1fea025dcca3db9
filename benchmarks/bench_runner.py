"""Benchmarks for the parallel experiment runner.

Measures the same multi-point Figure 6 sweep executed serially and
sharded across 4 worker processes, asserts the two produce bit-identical
results, and reports the observed speedup.  On multi-core hosts the
parallel run should approach ``min(4, cores)``x; on constrained CI boxes
(1 CPU) the equality contract still holds and the speedup is simply
reported.
"""

from __future__ import annotations

from repro.core.parallel import Shard, available_cpus, run_sharded
from repro.core.sweep import run_load_point
from repro.macrochip.config import scaled_config
from repro.workloads.synthetic import UniformTraffic

CFG = scaled_config()
WINDOW_NS = 120.0
FRACTIONS = [0.02, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 0.95]


def _shards():
    pattern = UniformTraffic(CFG.layout)
    return [Shard(run_load_point,
                  args=("point_to_point", CFG, pattern, f),
                  kwargs=dict(window_ns=WINDOW_NS),
                  label="@%.2f" % f)
            for f in FRACTIONS]


def _cpus() -> int:
    # affinity-aware, >= 1 on every platform (incl. hosts without
    # os.sched_getaffinity), and the same answer resolve_workers uses
    return available_cpus()


def test_sweep_serial(benchmark):
    run = benchmark.pedantic(run_sharded, args=(_shards(),),
                             kwargs={"workers": 1},
                             rounds=1, iterations=1)
    assert len(run.results) == len(FRACTIONS)
    assert run.mode == "serial"
    print()
    print(run.summary())


def test_sweep_parallel_4_workers(benchmark):
    shards = _shards()
    serial = run_sharded(shards, workers=1)
    run = benchmark.pedantic(run_sharded, args=(shards,),
                             kwargs={"workers": 4},
                             rounds=1, iterations=1)
    # the determinism contract: byte-identical results on any worker count
    assert run.results == serial.results
    print()
    print("serial  :", serial.summary())
    print("parallel:", run.summary())
    if _cpus() >= 4 and run.mode != "serial":
        # acceptance target on real multi-core hosts: >=2x on 4 workers
        assert run.wall_clock_s < serial.wall_clock_s / 2.0, (
            "expected >=2x speedup on 4 workers, got %.2fx"
            % (serial.wall_clock_s / run.wall_clock_s))


def test_sweep_fault_tolerant_overhead(benchmark):
    """The fault-tolerant pool loop on a clean run: the health-checked
    sliding-window path must return the same bit-identical results with
    zero failures — its polling/health-check overhead is what this
    benchmark tracks relative to test_sweep_parallel_4_workers."""
    shards = _shards()
    serial = run_sharded(shards, workers=1)
    run = benchmark.pedantic(run_sharded, args=(shards,),
                             kwargs={"workers": 4, "on_error": "retry",
                                     "max_retries": 2, "timeout_s": 600.0},
                             rounds=1, iterations=1)
    assert run.results == serial.results
    assert run.ok and run.failed == 0
    assert all(r.attempts == 1 for r in run.reports)
    print()
    print("serial        :", serial.summary())
    print("fault-tolerant:", run.summary())
