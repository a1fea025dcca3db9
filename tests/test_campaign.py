"""Tests for the resumable Figures 7-10 suite: ``run_suite(cache_dir=...)``.

A cached run keeps traces and replay results on disk; rerunning over the
same directory simulates only what is missing and returns a grid equal
to an uncached run.
"""

import json
import os
from dataclasses import asdict

import pytest

import repro.experiments.evaluation as evaluation
from repro.experiments.evaluation import PRESETS, run_suite
from repro.experiments.figures7_10 import all_figures_text
from repro.macrochip.config import small_test_config
from repro.networks.factory import FIGURE7_NETWORKS


CFG = small_test_config(2, 2)
NETS = ["point_to_point", "circuit_switched"]
LOADS = ["Radix", "All-to-all"]


@pytest.fixture
def cache(tmp_path):
    return str(tmp_path / "c")


def _run(cache_dir, networks=NETS, workloads=LOADS, config=CFG,
         preset="smoke", **kwargs):
    return run_suite(preset, config=config, networks=networks,
                     workloads=workloads, cache_dir=cache_dir, **kwargs)


def _files(cache_dir, sub):
    return sorted(os.listdir(os.path.join(cache_dir, sub)))


def _stamp(path):
    """Identity of a file's current contents: a rewrite (always through
    a temporary file) changes the inode."""
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns


@pytest.fixture
def spies(monkeypatch):
    """Record every replay and every trace build run_suite starts."""
    calls = {"replay": [], "build": []}
    real_replay = evaluation.replay
    real_kernel = evaluation._kernel_trace_task
    real_synthetic = evaluation._synthetic_trace_task

    def replay(trace, network, config):
        calls["replay"].append((trace.workload, network))
        return real_replay(trace, network, config)

    def kernel(kernel_cls, *args):
        calls["build"].append(kernel_cls.name)
        return real_kernel(kernel_cls, *args)

    def synthetic(name, *args):
        calls["build"].append(name)
        return real_synthetic(name, *args)

    monkeypatch.setattr(evaluation, "replay", replay)
    monkeypatch.setattr(evaluation, "_kernel_trace_task", kernel)
    monkeypatch.setattr(evaluation, "_synthetic_trace_task", synthetic)
    return calls


def test_run_produces_full_grid(cache):
    suite = _run(cache)
    assert set(suite.results) == set(LOADS)
    for workload in LOADS:
        assert set(suite.results[workload]) == set(NETS)
        for result in suite.results[workload].values():
            assert result.runtime_ps > 0
            assert result.ops_completed > 0
    assert len(_files(cache, "results")) == len(LOADS) * len(NETS)


def test_traces_cached_on_disk(cache):
    _run(cache, networks=["point_to_point"], workloads=["Radix"])
    assert os.path.exists(os.path.join(cache, "traces", "Radix.json"))


def test_run_builds_traces_only_for_requested_workloads(cache):
    """workloads=W must not CPU-simulate traces outside W."""
    _run(cache, networks=["point_to_point"], workloads=["Radix"])
    assert _files(cache, "traces") == ["Radix.json"]


def test_results_cached_and_reused(cache, spies):
    first = _run(cache, workloads=["Radix"])
    files = _files(cache, "results")
    spies["replay"].clear()
    second = _run(cache, workloads=["Radix"])
    assert spies["replay"] == []
    assert _files(cache, "results") == files
    assert second.results == first.results


def test_incremental_network_addition(cache, spies):
    _run(cache, networks=["point_to_point"], workloads=["Radix"])
    spies["replay"].clear()
    suite = _run(cache, workloads=["Radix"])
    assert spies["replay"] == [("Radix", "circuit_switched")]
    assert set(suite.results["Radix"]) == set(NETS)
    assert len(_files(cache, "results")) == 2


# -- partial-cache resume -----------------------------------------------------

def test_missing_trace_rebuilds_only_missing(cache, spies):
    _run(cache, networks=["point_to_point"])
    os.remove(os.path.join(cache, "traces", "Radix.json"))
    spies["build"].clear()
    suite = _run(cache, networks=["point_to_point"])
    assert spies["build"] == ["Radix"]  # only the deleted workload
    assert list(suite.traces) == LOADS
    assert os.path.exists(os.path.join(cache, "traces", "Radix.json"))


def test_untouched_traces_not_rewritten(cache):
    _run(cache, networks=["point_to_point"])
    kept = os.path.join(cache, "traces", "All-to-all.json")
    before = _stamp(kept)
    os.remove(os.path.join(cache, "traces", "Radix.json"))
    _run(cache, networks=["point_to_point"])
    assert _stamp(kept) == before


def test_missing_result_resimulates_only_missing(cache, spies):
    first = _run(cache)
    victim = os.path.join(cache, "results", "Radix__point_to_point.json")
    kept = os.path.join(cache, "results", "Radix__circuit_switched.json")
    os.remove(victim)
    before = _stamp(kept)
    spies["replay"].clear()
    second = _run(cache)
    assert spies["replay"] == [("Radix", "point_to_point")]
    assert os.path.exists(victim)
    assert _stamp(kept) == before
    # the pair replayed from the cached trace equals the first replay
    assert second.results == first.results


def test_contradictory_cached_histogram_raises(cache):
    _run(cache, networks=["point_to_point"], workloads=["Radix"])
    path = os.path.join(cache, "results", "Radix__point_to_point.json")
    with open(path) as fh:
        doc = json.load(fh)
    value = doc["op_latency"][0][0]
    doc["op_latency"][0][1] = 0
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match=r"\[%d, 0\]" % value):
        _run(cache, networks=["point_to_point"], workloads=["Radix"])


# -- manifest fingerprinting --------------------------------------------------

def test_manifest_written_on_creation(cache):
    _run(cache, networks=["point_to_point"], workloads=["Radix"])
    with open(os.path.join(cache, "manifest.json")) as fh:
        doc = json.load(fh)
    assert doc["preset"] == asdict(PRESETS["smoke"])
    assert doc["config"] == asdict(CFG)
    # replay runs on the scalar engine only: no backend to record
    assert "backend" not in doc


def test_stale_config_raises(cache, spies):
    _run(cache, networks=["point_to_point"], workloads=["Radix"])
    spies["replay"].clear()
    spies["build"].clear()
    with pytest.raises(ValueError, match="manifest mismatch") as exc:
        _run(cache, networks=["point_to_point"], workloads=["Radix"],
             config=CFG.with_overrides(mshrs_per_site=4))
    assert cache in str(exc.value)
    assert "delete it" in str(exc.value)
    assert spies == {"replay": [], "build": []}


def test_stale_preset_raises(cache):
    _run(cache, networks=["point_to_point"], workloads=["Radix"])
    with pytest.raises(ValueError, match="manifest mismatch"):
        _run(cache, networks=["point_to_point"], workloads=["Radix"],
             preset="quick")


def test_matching_reopen_keeps_cache(cache, spies):
    _run(cache, networks=["point_to_point"], workloads=["Radix"])
    spies["replay"].clear()
    _run(cache, networks=["point_to_point"], workloads=["Radix"],
         config=small_test_config(2, 2))  # equal config, new object
    assert spies["replay"] == []
    assert _files(cache, "results") == ["Radix__point_to_point.json"]


def test_premanifest_cache_rejected(cache):
    _run(cache, networks=["point_to_point"], workloads=["Radix"])
    os.remove(os.path.join(cache, "manifest.json"))
    with pytest.raises(ValueError, match="no manifest") as exc:
        _run(cache, networks=["point_to_point"], workloads=["Radix"])
    assert cache in str(exc.value)


# -- failures and parallel runs -----------------------------------------------

def test_failed_trace_build_not_cached(cache, monkeypatch):
    real = evaluation._kernel_trace_task

    def flaky(kernel_cls, refs_per_core, config):
        if not hasattr(flaky, "healed"):
            raise RuntimeError("injected trace failure")
        return real(kernel_cls, refs_per_core, config)

    monkeypatch.setattr(evaluation, "_kernel_trace_task", flaky)
    suite = _run(cache, on_error="collect")
    assert list(suite.results) == ["All-to-all"]
    assert [f.error_type for f in suite.failures] == ["RuntimeError"]
    assert _files(cache, "traces") == ["All-to-all.json"]
    flaky.healed = True
    suite = _run(cache, on_error="collect")
    assert list(suite.results) == LOADS
    assert suite.failures == []


def test_parallel_run_matches_serial(tmp_path):
    serial_dir, parallel_dir = str(tmp_path / "s"), str(tmp_path / "p")
    serial = _run(serial_dir)
    parallel = _run(parallel_dir, workers=2)
    assert serial.results == parallel.results
    for sub in ("traces", "results"):
        names = _files(serial_dir, sub)
        assert names == _files(parallel_dir, sub)
        for name in names:
            with open(os.path.join(serial_dir, sub, name)) as a, \
                    open(os.path.join(parallel_dir, sub, name)) as b:
                assert a.read() == b.read(), name


def test_cache_cold_and_warm_equal_uncached(tmp_path, spies):
    """Uncached, cold-into-cache and warm-from-cache runs of 2 workloads
    on all six Figure 7 networks return equal grids; the warm run
    simulates nothing."""
    kwargs = dict(networks=list(FIGURE7_NETWORKS), workloads=LOADS)
    uncached = _run(None, **kwargs)
    cold = _run(str(tmp_path / "c"), **kwargs)
    spies["replay"].clear()
    spies["build"].clear()
    warm = _run(str(tmp_path / "c"), **kwargs)
    assert spies == {"replay": [], "build": []}
    assert uncached.results == cold.results == warm.results
    assert (all_figures_text(uncached) == all_figures_text(cold)
            == all_figures_text(warm))
