"""Tests for the closed-loop coherence trace replay."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.invariants import InvariantMonitor
from repro.cpu.coherence import CoherenceOp, OpKind, message_plan
from repro.cpu.trace import CoherenceTrace
from repro.macrochip.config import scaled_config, small_test_config
from repro.workloads.replay import (TraceReplayer, compiled_plan,
                                    plan_memo, replay)

from repro.workloads.sharing import mix_by_name
from repro.workloads.synthetic import make_pattern
from repro.workloads.synthetic_coherence import (SyntheticCoherenceSpec,
                                                 generate_synthetic_trace)

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


@pytest.mark.parametrize("network", NETWORKS)
def test_finished_replay_leaves_no_cyclic_garbage(network):
    """Nothing per op or per network refers back to itself: a dropped
    replay is freed by reference counting alone, with nothing left for
    the cyclic GC."""
    trace, cfg = all_to_all()
    gc.collect()
    gc.disable()
    try:
        result = replay(trace, network, cfg)
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


@pytest.mark.parametrize("network", NETWORKS)
def test_replay_books_no_per_delivery_record(network):
    """A replay reads only the network's injection count and energy, so
    its deliveries stay out of the network's latency histogram and
    throughput meter while their count and energy are still booked."""
    trace, cfg = all_to_all()
    replayer = TraceReplayer(trace, network, cfg)
    result = replayer.run()
    stats = replayer.network.stats
    assert stats.delivered_packets == result.messages_sent > 0
    assert len(stats.latency) == 0
    assert stats.throughput.packets == 0 and stats.throughput.bytes == 0
    assert result.energy_by_category
    assert sum(result.energy_by_category.values()) > 0


@pytest.mark.parametrize("built_for, replayed_on", [
    (small_test_config(4, 4), scaled_config()),
    (scaled_config(), small_test_config(4, 4)),
], ids=["4x4-on-8x8", "8x8-on-4x4"])
def test_trace_for_another_machine_is_rejected(built_for, replayed_on):
    """A trace's cores are the config's cores: one built for a different
    core count is refused up front, naming both counts."""
    trace = make_trace(built_for, {0: [gets(0, 0, 1)]})
    with pytest.raises(ValueError) as info:
        TraceReplayer(trace, "point_to_point", replayed_on)
    message = str(info.value)
    assert str(built_for.num_cores) in message
    assert str(replayed_on.num_cores) in message


@pytest.mark.parametrize("built_for, replayed_on", [
    (small_test_config(4, 4),
     small_test_config(8, 4).with_overrides(cores_per_site=4)),
    (small_test_config(8, 4).with_overrides(cores_per_site=4),
     small_test_config(4, 4)),
], ids=["16x8-on-32x4", "32x4-on-16x8"])
def test_trace_for_another_site_count_is_rejected(built_for, replayed_on):
    """Same core count, different sites: each core's first op names the
    site the trace put it on, so the mismatch is refused up front (it
    used to replay silently one way and raise IndexError the other)."""
    assert built_for.num_cores == replayed_on.num_cores
    spec = SyntheticCoherenceSpec("All-to-all", ops_per_core=5)
    trace = generate_synthetic_trace(
        spec, make_pattern("uniform", built_for.layout), mix_by_name("LS"),
        built_for)
    with pytest.raises(ValueError, match="trace 'All-to-all-LS' was built "
                       "for another site count"):
        TraceReplayer(trace, "point_to_point", replayed_on)


def test_trace_with_a_wrong_core_list_count_is_rejected(cfg):
    trace = make_trace(cfg, {0: [gets(0, 0, 1)]})
    trace.ops_by_core.append([])
    with pytest.raises(ValueError, match="%d core op lists" % (
            cfg.num_cores + 1)):
        TraceReplayer(trace, "point_to_point", cfg)


def _bind(step, sites):
    """A template step with its roles replaced by ``sites``."""
    src, dst, size, kind, completes, children = step
    return (sites[src], sites[dst], size, kind, completes,
            tuple((delay, _bind(child, sites)) for delay, child in children))


def _reference_plan(op, cfg):
    """``message_plan(op)`` as a ``(completions, roots)`` tree of
    ``(src, dst, size, kind, completes, ((delay_ps, child), ...))``."""
    steps = message_plan(op, cfg.control_message_bytes,
                         cfg.data_message_bytes,
                         cfg.directory_latency_cycles,
                         cfg.memory_latency_cycles)
    stalls = op.kind is not OpKind.WRITEBACK

    def node(i):
        step = steps[i]
        return (step.src, step.dst, step.size_bytes, step.kind,
                stalls and step.completes,
                tuple((steps[c].extra_delay_cycles * cfg.cycle_ps, node(c))
                      for c in range(len(steps))
                      if steps[c].depends_on == i))

    completions = sum(stalls and step.completes for step in steps)
    return completions, tuple(node(i) for i, step in enumerate(steps)
                              if step.depends_on is None)


@st.composite
def coherence_ops(draw, sites=16):
    """An op of any kind: home at the requester or not, no owner or a
    remote one, and for a write 0-6 distinct sharers other than the
    requester (the home and the owner among them or not)."""
    kind = draw(st.sampled_from(list(OpKind)), label="kind")
    requester = draw(st.integers(0, sites - 1), label="requester")
    others = [s for s in range(sites) if s != requester]
    home = draw(st.one_of(st.just(requester), st.sampled_from(others)),
                label="home")
    owner = draw(st.one_of(st.none(), st.sampled_from(others)),
                 label="owner")
    sharers = () if kind is OpKind.GET_S else tuple(draw(
        st.lists(st.sampled_from(others), max_size=6, unique=True),
        label="sharers"))
    return CoherenceOp(core=0, gap_cycles=0, kind=kind,
                       requester=requester, home=home, owner=owner,
                       sharers=sharers)


@settings(max_examples=200, deadline=None)
@given(op=coherence_ops())
def test_template_bound_to_sites_is_the_ops_message_plan(op):
    """A shape's plan, its roles bound to one op's sites, is exactly
    that op's ``message_plan``: every step's ends, size, kind and
    completion flag, the dependency tree, the delays and the child
    order.  A protocol that branched on a site would fail here."""
    cfg = small_test_config(4, 4)
    completions, roots = compiled_plan(op, cfg)
    sites = (op.requester, op.home, op.owner) + op.sharers
    bound = (completions, tuple(_bind(step, sites) for step in roots))
    assert bound == _reference_plan(op, cfg)


@pytest.mark.parametrize("trace_name", list(TRACES))
def test_memo_holds_one_plan_per_shape(trace_name):
    trace, cfg = TRACES[trace_name]()
    memo = plan_memo(cfg)
    memo.clear()  # a lazily filled cache: emptying it changes no result
    replay(trace, "point_to_point", cfg)
    shapes = {(op.kind.value, op.owner is None, len(op.sharers))
              for ops in trace.ops_by_core for op in ops}
    assert len(shapes) > 1
    assert set(memo) == shapes
