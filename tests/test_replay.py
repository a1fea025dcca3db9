"""Tests for the closed-loop coherence trace replay."""

import gc

import pytest

from repro.core.invariants import InvariantMonitor
from repro.cpu.coherence import CoherenceOp, OpKind
from repro.cpu.trace import CoherenceTrace
from repro.macrochip.config import small_test_config
from repro.workloads.replay import TraceReplayer, replay

from .test_golden_replay import NETWORKS, TRACES, all_to_all


@pytest.fixture
def cfg():
    return small_test_config(2, 2)


def make_trace(cfg, ops_by_core):
    trace = CoherenceTrace("unit", cfg.num_cores)
    for core, ops in ops_by_core.items():
        trace.ops_by_core[core] = ops
    return trace


def gets(core, requester, home, gap=10, owner=None):
    return CoherenceOp(core=core, gap_cycles=gap, kind=OpKind.GET_S,
                       requester=requester, home=home, owner=owner)


def getm(core, requester, home, sharers=(), gap=10):
    return CoherenceOp(core=core, gap_cycles=gap, kind=OpKind.GET_M,
                       requester=requester, home=home, sharers=sharers)


def test_single_gets_latency(cfg):
    """One GetS: request + directory + memory + data response."""
    trace = make_trace(cfg, {0: [gets(0, 0, 1)]})
    result = replay(trace, "point_to_point", cfg)
    assert result.ops_completed == 1
    assert result.messages_sent == 2
    # lower bound: the directory + memory processing alone
    min_ns = (cfg.directory_latency_cycles
              + cfg.memory_latency_cycles) * 0.2
    assert result.mean_op_latency_ns >= min_ns


def test_cache_to_cache_has_three_messages(cfg):
    trace = make_trace(cfg, {0: [gets(0, 0, 1, owner=2)]})
    result = replay(trace, "point_to_point", cfg)
    assert result.messages_sent == 3


def test_getm_with_sharers_counts_messages(cfg):
    trace = make_trace(cfg, {0: [getm(0, 0, 1, sharers=(2, 3))]})
    result = replay(trace, "point_to_point", cfg)
    # req + 2 inv + 2 ack + data
    assert result.messages_sent == 6


def test_ops_issue_in_order_with_gaps(cfg):
    """The second op waits for the first to complete plus its gap."""
    trace = make_trace(cfg, {0: [gets(0, 0, 1, gap=10),
                                 gets(0, 0, 1, gap=1000)]})
    result = replay(trace, "point_to_point", cfg)
    assert result.ops_completed == 2
    # runtime at least gap1 + lat1 + gap2 + lat2
    assert result.runtime_ps >= 1000 * cfg.cycle_ps


def test_writeback_does_not_stall(cfg):
    wb = CoherenceOp(core=0, gap_cycles=0, kind=OpKind.WRITEBACK,
                     requester=0, home=1)
    trace = make_trace(cfg, {0: [wb, gets(0, 0, 1, gap=0)]})
    result = replay(trace, "point_to_point", cfg)
    # the writeback is excluded from op latency but its message is sent
    assert result.ops_completed == 1
    assert result.messages_sent == 3


def test_cores_run_concurrently(cfg):
    ops = {core: [gets(core, core // cfg.cores_per_site, 1)]
           for core in range(cfg.num_cores)}
    trace = make_trace(cfg, ops)
    result = replay(trace, "point_to_point", cfg)
    assert result.ops_completed == cfg.num_cores
    # concurrent execution: far faster than serial sum of latencies
    assert result.runtime_ns < cfg.num_cores * result.mean_op_latency_ns


def test_mshr_limit_serializes_site(cfg):
    limited = cfg.with_overrides(mshrs_per_site=1)
    ops = {core: [gets(core, 0, 1)] for core in range(cfg.cores_per_site)}
    trace_l = make_trace(limited, ops)
    r_limited = replay(trace_l, "point_to_point", limited)
    trace_u = make_trace(cfg, ops)
    r_unlimited = replay(trace_u, "point_to_point", cfg)
    assert r_limited.runtime_ps > r_unlimited.runtime_ps


def test_energy_accounted(cfg):
    trace = make_trace(cfg, {0: [gets(0, 0, 1)]})
    result = replay(trace, "limited_point_to_point", cfg)
    assert result.energy_by_category.get("optical", 0) > 0


def test_all_networks_replay_the_same_trace(cfg):
    from repro.networks.factory import FIGURE7_NETWORKS

    ops = {core: [getm(core, core // cfg.cores_per_site,
                       (core + 1) % cfg.num_sites)]
           for core in range(cfg.num_cores)}
    for net in FIGURE7_NETWORKS:
        trace = make_trace(cfg, ops)
        result = replay(trace, net, cfg)
        assert result.ops_completed == cfg.num_cores, net


def test_intra_site_op_uses_loopback(cfg):
    trace = make_trace(cfg, {0: [gets(0, 0, 0)]})  # home == requester
    result = replay(trace, "point_to_point", cfg)
    # directory + memory + two loopback hops, well under a microsecond
    assert result.mean_op_latency_ns < 50.0


def test_finished_replay_leaves_no_cyclic_garbage():
    """Nothing per op refers back to itself: a dropped replay is freed
    by reference counting alone, with nothing left for the cyclic GC."""
    trace, cfg = all_to_all()
    gc.collect()
    gc.disable()
    try:
        result = replay(trace, "point_to_point", cfg)
        assert result.ops_completed > 0
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("trace_name", list(TRACES))
@pytest.mark.parametrize("network", NETWORKS)
def test_replay_holds_every_invariant(trace_name, network):
    """Conservation, causality, channel non-overlap and grant
    exclusivity hold on a closed-loop replay, as on a load point."""
    trace, cfg = TRACES[trace_name]()
    replayer = TraceReplayer(trace, network, cfg)
    monitor = InvariantMonitor(replayer.network)
    result = replayer.run()
    monitor.verify()
    assert result.messages_sent == replayer.network.stats.delivered_packets
