"""Tests for the Figures 7-10 suite runner, ``run_suite``.

One call builds a trace per requested workload and replays each trace on
every requested network; a pool run returns the same grid as a serial
one, and under ``on_error='collect'`` a failure drops only the work that
depended on it.
"""

import pytest

import repro.experiments.evaluation as evaluation
from repro.experiments.evaluation import run_suite
from repro.experiments.figures7_10 import all_figures_text
from repro.macrochip.config import small_test_config


CFG = small_test_config(2, 2)
NETS = ["point_to_point", "circuit_switched"]
LOADS = ["Radix", "All-to-all"]


def _run(networks=NETS, workloads=LOADS, **kwargs):
    return run_suite("smoke", config=CFG, networks=networks,
                     workloads=workloads, **kwargs)


@pytest.fixture
def builds(monkeypatch):
    """Record every trace build run_suite starts."""
    calls = []
    real_kernel = evaluation._kernel_trace_task
    real_synthetic = evaluation._synthetic_trace_task

    def kernel(kernel_cls, *args):
        calls.append(kernel_cls.name)
        return real_kernel(kernel_cls, *args)

    def synthetic(name, *args):
        calls.append(name)
        return real_synthetic(name, *args)

    monkeypatch.setattr(evaluation, "_kernel_trace_task", kernel)
    monkeypatch.setattr(evaluation, "_synthetic_trace_task", synthetic)
    return calls


def test_run_produces_full_grid():
    suite = _run()
    assert set(suite.results) == set(LOADS)
    for workload in LOADS:
        assert set(suite.results[workload]) == set(NETS)
        for result in suite.results[workload].values():
            assert result.runtime_ps > 0
            assert result.ops_completed > 0


def test_run_builds_traces_only_for_requested_workloads(builds):
    """workloads=W must not CPU-simulate traces outside W."""
    suite = _run(networks=["point_to_point"], workloads=["Radix"])
    assert builds == ["Radix"]
    assert list(suite.traces) == ["Radix"]


def test_failed_trace_build_drops_its_row(monkeypatch):
    def broken(kernel_cls, refs_per_core, config):
        raise RuntimeError("injected trace failure")

    monkeypatch.setattr(evaluation, "_kernel_trace_task", broken)
    suite = _run(on_error="collect")
    assert list(suite.results) == ["All-to-all"]
    assert list(suite.traces) == ["All-to-all"]
    assert [f.error_type for f in suite.failures] == ["RuntimeError"]


def test_failed_replay_drops_one_cell(monkeypatch):
    real = evaluation.replay

    def flaky(trace, network, config):
        if network == "circuit_switched":
            raise RuntimeError("injected replay failure")
        return real(trace, network, config)

    monkeypatch.setattr(evaluation, "replay", flaky)
    suite = _run(workloads=["Radix"], on_error="collect")
    assert list(suite.results["Radix"]) == ["point_to_point"]
    assert [f.label for f in suite.failures] == [
        "replay Radix on circuit_switched"]
    assert suite.failures[0].error_type == "RuntimeError"


def test_parallel_run_matches_serial():
    serial = _run()
    parallel = _run(workers=2)
    assert serial.results == parallel.results
    assert all_figures_text(serial) == all_figures_text(parallel)
