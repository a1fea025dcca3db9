"""Tests for the disk-backed campaign runner."""

import json
import os

import pytest

import repro.experiments.campaign as campaign_mod
from repro.experiments.campaign import Campaign, CampaignStateError
from repro.macrochip.config import small_test_config


NETS = ["point_to_point", "circuit_switched"]
LOADS = ["Radix", "All-to-all"]


@pytest.fixture
def campaign(tmp_path):
    return Campaign(str(tmp_path / "c"), preset_name="smoke",
                    config=small_test_config(2, 2))


def test_run_produces_full_grid(campaign):
    grid = campaign.run(networks=NETS, workloads=LOADS)
    assert set(grid) == set(LOADS)
    for workload in LOADS:
        assert set(grid[workload]) == set(NETS)
        for entry in grid[workload].values():
            assert entry.runtime_ps > 0
            assert entry.ops_completed > 0


def test_traces_cached_on_disk(campaign):
    campaign.run(networks=["point_to_point"], workloads=["Radix"])
    assert os.path.exists(os.path.join(campaign.traces_dir, "Radix.json"))


def test_run_builds_traces_only_for_requested_workloads(campaign):
    """run(workloads=W) must not CPU-simulate traces outside W."""
    campaign.run(networks=["point_to_point"], workloads=["Radix"])
    assert os.listdir(campaign.traces_dir) == ["Radix.json"]


def test_results_cached_and_reused(campaign):
    first = campaign.run(networks=NETS, workloads=["Radix"])
    count = campaign.completed_pairs()
    # second run must reuse everything (identical values, no new files)
    second = campaign.run(networks=NETS, workloads=["Radix"])
    assert campaign.completed_pairs() == count
    for net in NETS:
        assert (first["Radix"][net].runtime_ps
                == second["Radix"][net].runtime_ps)


def test_incremental_network_addition(campaign):
    campaign.run(networks=["point_to_point"], workloads=["Radix"])
    before = campaign.completed_pairs()
    grid = campaign.run(networks=NETS, workloads=["Radix"])
    assert campaign.completed_pairs() == before + 1
    assert set(grid["Radix"]) == set(NETS)


def test_speedup_table(campaign):
    grid = campaign.run(networks=NETS, workloads=LOADS)
    speedups = campaign.speedup_table(grid)
    for workload in LOADS:
        assert speedups[workload]["circuit_switched"] == 1.0
        assert speedups[workload]["point_to_point"] > 1.0


# -- partial-cache resume (regression: ensure_traces over-rebuild) -----------

def test_missing_trace_rebuilds_only_missing(campaign, monkeypatch):
    campaign.run(networks=["point_to_point"], workloads=LOADS)
    os.remove(os.path.join(campaign.traces_dir, "Radix.json"))

    requested = []
    real_build = campaign_mod.build_traces

    def spy(preset, config, progress=None, workloads=None, workers=1,
            pool=None, **kwargs):
        requested.append(workloads)
        return real_build(preset, config, progress,
                          workloads=workloads, workers=workers, pool=pool,
                          **kwargs)

    monkeypatch.setattr(campaign_mod, "build_traces", spy)
    traces = campaign.ensure_traces(workloads=LOADS)
    assert requested == [["Radix"]]  # only the deleted workload rebuilt
    assert "Radix" in traces
    assert os.path.exists(os.path.join(campaign.traces_dir, "Radix.json"))


def test_untouched_traces_not_rewritten(campaign):
    campaign.run(networks=["point_to_point"], workloads=LOADS)
    kept = os.path.join(campaign.traces_dir, "All-to-all.json")
    before = os.stat(kept).st_mtime_ns
    os.remove(os.path.join(campaign.traces_dir, "Radix.json"))
    campaign.ensure_traces(workloads=LOADS)
    assert os.stat(kept).st_mtime_ns == before


def test_missing_result_resimulates_only_missing(campaign):
    campaign.run(networks=NETS, workloads=LOADS)
    victim = os.path.join(campaign.results_dir,
                          "Radix__point_to_point.json")
    kept = os.path.join(campaign.results_dir,
                        "Radix__circuit_switched.json")
    os.remove(victim)
    before = os.stat(kept).st_mtime_ns
    grid = campaign.run(networks=NETS, workloads=LOADS)
    assert os.path.exists(victim)  # re-simulated
    assert os.stat(kept).st_mtime_ns == before  # reused untouched
    assert grid["Radix"]["point_to_point"].runtime_ps > 0


# -- manifest fingerprinting (regression: silently stale caches) -------------

def test_manifest_written_on_creation(campaign):
    assert os.path.exists(campaign.manifest_path)
    with open(campaign.manifest_path) as fh:
        doc = json.load(fh)
    assert doc == campaign.fingerprint()
    assert doc["preset"]["name"] == "smoke"


def test_stale_config_raises(tmp_path):
    path = str(tmp_path / "c")
    Campaign(path, preset_name="smoke",
             config=small_test_config(2, 2)).run(
        networks=["point_to_point"], workloads=["Radix"])
    with pytest.raises(CampaignStateError):
        Campaign(path, preset_name="smoke",
                 config=small_test_config(2, 2).with_overrides(
                     mshrs_per_site=4))


def test_stale_preset_raises(tmp_path):
    path = str(tmp_path / "c")
    Campaign(path, preset_name="smoke", config=small_test_config(2, 2))
    with pytest.raises(CampaignStateError):
        Campaign(path, preset_name="quick",
                 config=small_test_config(2, 2))


def test_stale_rebuild_wipes_cache(tmp_path):
    path = str(tmp_path / "c")
    Campaign(path, preset_name="smoke",
             config=small_test_config(2, 2)).run(
        networks=["point_to_point"], workloads=["Radix"])
    fresh = Campaign(path, preset_name="smoke",
                     config=small_test_config(2, 2).with_overrides(
                         mshrs_per_site=4),
                     on_stale="rebuild")
    assert fresh.completed_pairs() == 0
    assert os.listdir(fresh.traces_dir) == []
    with open(fresh.manifest_path) as fh:
        assert json.load(fh) == fresh.fingerprint()


def test_matching_reopen_keeps_cache(tmp_path):
    path = str(tmp_path / "c")
    Campaign(path, preset_name="smoke",
             config=small_test_config(2, 2)).run(
        networks=["point_to_point"], workloads=["Radix"])
    again = Campaign(path, preset_name="smoke",
                     config=small_test_config(2, 2))
    assert again.completed_pairs() == 1


def test_premanifest_cache_rejected(tmp_path):
    path = str(tmp_path / "c")
    c = Campaign(path, preset_name="smoke", config=small_test_config(2, 2))
    c.run(networks=["point_to_point"], workloads=["Radix"])
    os.remove(c.manifest_path)  # simulate a cache from before manifests
    with pytest.raises(CampaignStateError):
        Campaign(path, preset_name="smoke", config=small_test_config(2, 2))


def test_bad_on_stale_rejected(tmp_path):
    with pytest.raises(ValueError):
        Campaign(str(tmp_path / "c"), preset_name="smoke",
                 config=small_test_config(2, 2), on_stale="ignore")


# -- parallel campaign runs ---------------------------------------------------

def test_parallel_run_matches_serial(tmp_path):
    serial = Campaign(str(tmp_path / "s"), preset_name="smoke",
                      config=small_test_config(2, 2)).run(
        networks=NETS, workloads=LOADS)
    parallel = Campaign(str(tmp_path / "p"), preset_name="smoke",
                        config=small_test_config(2, 2), workers=2).run(
        networks=NETS, workloads=LOADS)
    for workload in LOADS:
        for net in NETS:
            assert serial[workload][net] == parallel[workload][net]
