"""Differential tests locking the hot-path optimizations down.

The optimized simulation core must be *observationally identical* to the
reference behavior it replaced:

* an engine run with a trace hook installed vs one without — the one
  dispatch loop calls the hook without reordering anything, proven by
  byte-identical canonical traces;
* the sweep harness's injection schedules (``_draw_schedules`` over
  a private or an interned draw bank) vs the one-draw-per-packet
  reference in :mod:`tests.conftest` — equal lists for every traffic
  pattern at every bank extension step, byte-identical canonical traces
  when the reference drives a run, and
  :class:`~repro.core.sweep.LoadPointResult` records (including
  ``events_dispatched``) independent of ``rng_block``;
* the per-network precomputed routing/latency tables vs the original
  per-packet arithmetic — covered transitively: both comparisons above
  run the table-driven networks, and the golden Figure 6 pins
  (:mod:`tests.test_golden_figure6`) freeze their absolute numbers;
* the vectorized backend's kernels vs the scalar engine — exact
  ``LoadPointResult`` equality (lockstep injections that tie every
  site at every instant, and random grids for every kernel,
  included), per-packet deliveries where an injection and a protocol
  event tie on one channel, and byte-identical canonical traces
  through the fallback seam.

Every network architecture is exercised at two load points: one well
below saturation and one near or past the knee, where queues are deep
and arbitration actually bites.
"""

import dataclasses
import functools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.core.sweep as sweep_mod
from repro.core import tracing, vectorized
from repro.core.engine import Simulator
from repro.core.sweep import (_DrawBank, _draw_schedules, _get_draw_bank,
                              clear_draw_banks, run_load_point)
from repro.core.tracing import TraceRecorder
from repro.core.vectorized import have_numpy, vectorized_networks
from repro.macrochip.config import scaled_config, small_test_config
from repro.networks.base import Packet
from repro.networks.factory import build_network
from repro.workloads.synthetic import (BurstyTraffic, HotspotTraffic,
                                      UniformTraffic, make_pattern,
                                      pattern_names)

from .conftest import random_traffic, reference_schedules


CFG = small_test_config(4, 4)

#: (network key, low load, high load) — the high points sit near each
#: architecture's Figure 6 knee so contention paths are exercised
NETWORK_LOADS = [
    ("point_to_point", 0.05, 0.60),
    ("limited_point_to_point", 0.05, 0.40),
    ("token_ring", 0.05, 0.30),
    ("two_phase", 0.02, 0.08),
    ("circuit_switched", 0.01, 0.03),
    ("hermes", 0.05, 0.30),
]

NETWORKS = [key for key, _, _ in NETWORK_LOADS]

LOAD_POINTS = [(key, load)
               for key, low, high in NETWORK_LOADS
               for load in (low, high)]


def _canonical_trace(network: str, load: float, **kwargs) -> bytes:
    rec = TraceRecorder()
    run_load_point(network, CFG, UniformTraffic(CFG.layout), load,
                   window_ns=80.0, seed=7, tracer=rec, **kwargs)
    return b"\n".join(line.encode() for line in rec.canonical_lines())


#: bank extension step sizes the schedule test sweeps, and the
#: ``rng_block`` values the result test passes to ``run_load_point``
BLOCK_SIZES = (1, 7, 64, 1024)

#: (mean gap ps, packets per site) load points drawn in this order: the
#: second extends the bank, the third reads a prefix of it
SCHEDULE_POINTS = ((1300, 40), (400, 90), (900, 60))

#: every registered pattern at its defaults, plus a second bursty
#: parametrization and a non-default hotspot mix
DRAW_PATTERNS = {name: functools.partial(make_pattern, name, CFG.layout,
                                         seed=11)
                 for name in pattern_names()}
DRAW_PATTERNS["bursty-8x3"] = functools.partial(
    BurstyTraffic, CFG.layout, seed=11, burstiness=8.0, burst_length=3)
DRAW_PATTERNS["hotspot-0.6"] = functools.partial(
    HotspotTraffic, CFG.layout, seed=11, hotspot_fraction=0.6,
    hotspots=[0, 5])


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("pattern_key", list(DRAW_PATTERNS))
def test_draw_schedules_match_per_packet_reference(pattern_key, warm,
                                                   block):
    """Both backends inject exactly what ``_draw_schedules`` returns, so
    it must equal the one-draw-per-packet reference list for list, for
    every pattern, whether the bank is a run's private one (cold) or the
    interned one a sweep shares (warm), and whatever steps of ``block``
    draws the bank was extended in beforehand."""
    pattern = DRAW_PATTERNS[pattern_key]()
    clear_draw_banks()
    try:
        private = _DrawBank(pattern, 7, CFG.num_sites)
        for mean_gap_ps, packets in SCHEDULE_POINTS:
            bank = (_get_draw_bank(pattern, 7, CFG.num_sites) if warm
                    else private)
            for count in range(block, packets, block):
                bank.extend(count)
            gaps, dsts = _draw_schedules(bank, mean_gap_ps, packets)
            ref_gaps, ref_dsts = reference_schedules(bank, mean_gap_ps,
                                                     packets)
            assert gaps == ref_gaps
            # a bank's destination lists may run past this point's
            # packet count; injectors only index the first ``packets``
            assert [d[:packets] for d in dsts] == ref_dsts
    finally:
        clear_draw_banks()


@pytest.mark.parametrize("network,load", LOAD_POINTS)
def test_canonical_trace_identical_batched_vs_reference(network, load,
                                                        monkeypatch):
    """A run driven by the banked draws and one driven by the
    per-packet reference schedule must emit byte-identical canonical
    traces: every injection, enqueue, grant, transmission and delivery
    at the same picosecond in the same order."""
    fast = _canonical_trace(network, load)
    monkeypatch.setattr(sweep_mod, "_draw_schedules", reference_schedules)
    reference = _canonical_trace(network, load)
    assert len(fast) > 0
    assert fast == reference


@pytest.mark.parametrize("network,load", LOAD_POINTS)
def test_run_load_point_bit_identical_across_block_sizes(network, load):
    """LoadPointResult is a pure function of its arguments; ``rng_block``
    must not leak into a single field — latencies are compared exactly,
    not approximately."""
    results = [run_load_point(network, CFG, UniformTraffic(CFG.layout),
                              load, window_ns=80.0, seed=7,
                              rng_block=block)
               for block in BLOCK_SIZES]
    baseline = results[0]
    assert baseline.events_dispatched > 0
    for other in results[1:]:
        assert other == baseline


@pytest.mark.parametrize("network", NETWORKS)
def test_traced_engine_loop_matches_fast_loop(network):
    """Attaching an engine-level trace hook must not change dispatch:
    the network-level trace of a hooked run is byte-identical to the
    unhooked run's."""

    def one_run(engine_hook: bool) -> bytes:
        sim = Simulator()
        net = build_network(network, CFG, sim)
        rec = TraceRecorder()
        net.set_tracer(rec)
        if engine_hook:
            sim.trace = lambda t, fn, args: None
        for delay, src, dst, size in random_traffic(31, CFG.num_sites,
                                                    n_packets=150):
            sim.at(delay, net.inject, Packet(src, dst, size))
        sim.run()
        return b"\n".join(line.encode() for line in rec.canonical_lines())

    fast = one_run(engine_hook=False)
    traced = one_run(engine_hook=True)
    assert len(fast) > 0
    assert fast == traced


# -- vectorized numpy backend -------------------------------------------------
#
# The vectorized backend is opt-in (``backend="vectorized"``) and must be
# *observationally identical* to the scalar engine: bit-identical
# LoadPointResult records and byte-identical canonical traces.  Without
# numpy every load point silently falls back to the scalar path, so the
# equality assertions below stay meaningful (if vacuously true) on a
# numpy-less interpreter; the registry test and the skip-marked kernel
# tests document which runs actually exercised the fast path.

needs_numpy = pytest.mark.skipif(
    not have_numpy(), reason="numpy not installed (pip install repro[fast])")

#: traffic patterns for the differential matrix — uniform is the random
#: draw-heavy case, transpose the deterministic worst-case permutation
VEC_PATTERNS = ("uniform", "transpose")


def test_vectorized_registry_covers_all_networks():
    """Every network the sweeps drive — HERMES's snoopy broadcast
    included — has a registered kernel: any future gap is a test
    failure, not a silent slow path."""
    registered = vectorized_networks()
    for key in ("point_to_point", "limited_point_to_point", "token_ring",
                "two_phase", "two_phase_alt", "circuit_switched",
                "electrical_baseline", "hermes"):
        assert key in registered


@needs_numpy
@pytest.mark.parametrize("pattern_name", VEC_PATTERNS)
@pytest.mark.parametrize("network,load", LOAD_POINTS)
def test_vectorized_backend_bit_identical(network, load, pattern_name):
    """backend="vectorized" must reproduce every LoadPointResult field
    exactly — latency floats compared bit-for-bit, event counts, stop
    reason, final clock — across all six networks, both sides of the
    knee, and both traffic patterns."""
    pattern = make_pattern(pattern_name, CFG.layout, seed=11)
    scalar = run_load_point(network, CFG, pattern, load,
                            window_ns=80.0, seed=7)
    fast = run_load_point(network, CFG, pattern, load,
                          window_ns=80.0, seed=7, backend="vectorized")
    assert scalar.delivered_packets > 0
    assert fast == scalar


class Lockstep(UniformTraffic):
    """Uniform destinations, but every gap is exactly the mean gap: all
    sites inject at the same instants, so every dispatch-order tie
    between sites (and between an injection and a protocol event landing
    on the same picosecond) actually occurs."""

    name = "Lockstep"

    def unit_gaps(self, rng, count):
        return [1.0] * count


@needs_numpy
@pytest.mark.parametrize("load", [0.02, 0.3])
@pytest.mark.parametrize("config", [small_test_config(4, 4),
                                    scaled_config()],
                         ids=["4x4", "8x8"])
@pytest.mark.parametrize("network", vectorized_networks())
def test_vectorized_backend_bit_identical_under_ties(network, config,
                                                     load):
    """Every kernel must break dispatch ties exactly as the engine's
    ``(time, seq)`` order does: with lockstep injections the tie-breaks
    decide who gets each grant, slot and channel."""
    pattern = Lockstep(config.layout, seed=5)
    scalar = run_load_point(network, config, pattern, load,
                            window_ns=120.0, seed=3)
    fast = run_load_point(network, config, pattern, load,
                          window_ns=120.0, seed=3, backend="vectorized")
    # NaN != NaN: the comparison below must compare real latencies
    assert not math.isnan(scalar.mean_latency_ns)
    assert fast == scalar


def _nan_free(result):
    """A result's fields with NaN as None, so two results that both
    delivered nothing inside the window still compare equal."""
    return tuple(None if isinstance(v, float) and math.isnan(v) else v
                 for v in dataclasses.astuple(result))


def _shape_patterns(layout):
    """Every registered pattern defined on ``layout``, plus lockstep."""
    names = ["lockstep"]
    for name in pattern_names():
        try:
            make_pattern(name, layout)
        except ValueError:  # transpose: square only; butterfly: 2^k sites
            continue
        names.append(name)
    return names


def _draw_network_kwargs(data, network):
    """Random constructor knobs for ``network``'s model ({} for a
    network without any the kernels read)."""
    if network == "hermes":
        return dict(cluster_rows=data.draw(st.integers(1, 4),
                                           label="cluster_rows"),
                    cluster_cols=data.draw(st.integers(1, 4),
                                           label="cluster_cols"))
    if network in ("two_phase", "two_phase_alt"):
        return dict(trees_per_column=data.draw(st.integers(1, 4),
                                               label="trees_per_column"),
                    tree_reconfig_ps=data.draw(st.integers(0, 60000),
                                               label="tree_reconfig_ps"))
    if network == "circuit_switched":
        return dict(engines_per_site=data.draw(st.integers(1, 8),
                                               label="engines_per_site"))
    if network == "token_ring":
        return dict(grant_overhead_ps=data.draw(st.integers(0, 400),
                                                label="grant_overhead_ps"))
    return {}


def _draw_pattern(data, name, layout, seed):
    """``(pattern, repro text)``: the named pattern, with random
    parameters for the bursty and hotspot ones."""
    if name == "lockstep":
        return Lockstep(layout, seed=seed), "Lockstep(layout, seed=%d)" % seed
    if name == "bursty":
        burstiness = data.draw(st.floats(1.0, 16.0), label="burstiness")
        burst_length = data.draw(st.integers(1, 64), label="burst_length")
        return (BurstyTraffic(layout, seed=seed, burstiness=burstiness,
                              burst_length=burst_length),
                "BurstyTraffic(layout, seed=%d, burstiness=%r, "
                "burst_length=%d)" % (seed, burstiness, burst_length))
    if name == "hotspot":
        fraction = data.draw(st.floats(0.0, 1.0), label="hotspot_fraction")
        return (HotspotTraffic(layout, seed=seed, hotspot_fraction=fraction),
                "HotspotTraffic(layout, seed=%d, hotspot_fraction=%r)"
                % (seed, fraction))
    return (make_pattern(name, layout, seed=seed),
            "make_pattern(%r, layout, seed=%d)" % (name, seed))


@needs_numpy
@pytest.mark.parametrize("network", vectorized_networks())
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_matches_engine_on_random_shapes(network, data):
    """Every kernel against the engine on random grids, loads, windows,
    seeds, network knobs and patterns (bursty and hotspot parameters and
    lockstep ties included).  A result that delivered nothing inside the
    window (the electrical baseline on an 8x8 grid at a short window,
    say) has NaN latencies on both engines alike."""
    rows = data.draw(st.integers(2, 8), label="rows")
    cols = data.draw(st.integers(2, 8), label="cols")
    load = data.draw(st.floats(0.01, 0.8), label="load")
    window_ns = data.draw(st.floats(20.0, 200.0), label="window_ns")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    network_kwargs = _draw_network_kwargs(data, network)
    config = small_test_config(rows, cols)
    name = data.draw(st.sampled_from(_shape_patterns(config.layout)),
                     label="pattern")
    pattern, pattern_repro = _draw_pattern(data, name, config.layout, seed)
    repro = ("run_load_point(%r, small_test_config(%d, %d), %s, %r, "
             "window_ns=%r, seed=%d, network_kwargs=%r)"
             % (network, rows, cols, pattern_repro, load, window_ns, seed,
                network_kwargs))
    try:
        scalar = run_load_point(network, config, pattern, load,
                                window_ns=window_ns, seed=seed,
                                network_kwargs=network_kwargs)
    except ValueError:  # the window is shorter than every first gap
        assume(False)
    fast = run_load_point(network, config, pattern, load,
                          window_ns=window_ns, seed=seed,
                          network_kwargs=network_kwargs,
                          backend="vectorized")
    assert _nan_free(fast) == _nan_free(scalar), repro


def _traced_delivery_pairs(recorder):
    """Sorted ``(deliver, inject)`` times of a traced scalar run."""
    injected = {e.pid: e.time_ps for e in recorder.by_type(tracing.INJECT)}
    return sorted((e.time_ps, injected[e.pid])
                  for e in recorder.by_type(tracing.DELIVER))


def _tie_scenario(network, config):
    """``(src, dst, site, lead_ps)``: a packet from ``src`` to ``dst``
    whose last hop leaves on ``site``'s channel toward ``dst``, an event
    pushed ``lead_ps`` earlier by the hop before."""
    net = build_network(network, config, Simulator())
    if network == "hermes":  # rebroadcast on the far gateway's ring
        gateway = net._gateway[1]
        dst = next(s for s in range(config.num_sites)
                   if net._cluster_of[s] == 1 and s != gateway)
        return net._gateway[0], dst, gateway, net.gateway_latency_ps
    # forwarded through the lower-id candidate (both first legs idle)
    src, dst = 0, config.layout.site_at(1, 1)
    return (src, dst, min(net.forwarder_candidates(src, dst)),
            net.router_latency_ps)


@needs_numpy
@pytest.mark.parametrize("stamped_before_push", [True, False],
                         ids=["injection-first", "event-first"])
@pytest.mark.parametrize("network", ["hermes", "limited_point_to_point"])
def test_kernel_breaks_injection_event_ties_like_the_engine(
        monkeypatch, network, stamped_before_push):
    """A site injects onto its channel at the picosecond a packet's last
    hop (a HERMES rebroadcast, a limited point-to-point forward) takes
    the same channel.  The engine dispatches whichever was pushed
    first: the injection when its site's previous injection dispatched
    before the event that pushed the hop, else the hop.  The kernel must
    hand the channel to the same packet, so every packet's ``(deliver,
    inject)`` pair matches the traced engine run."""
    config = small_test_config(4, 4)
    src, dst, site, lead = _tie_scenario(network, config)
    far = 10 ** 12  # past every horizon: the injection never happens
    t0 = 30000  # after the 20 ns warmup, so the latencies count
    site_times = [far]

    def schedules(bank, mean_gap_ps, packets_per_site):
        gaps = [[far] * packets_per_site for _ in range(config.num_sites)]
        dsts = [[s] * packets_per_site for s in range(config.num_sites)]
        gaps[src][0] = t0
        dsts[src][0] = dst
        gaps[site][:len(site_times)] = [b - a for a, b in
                                        zip([0] + site_times, site_times)]
        dsts[site][1] = dst  # the second injection takes the channel
        return gaps, dsts

    monkeypatch.setattr(sweep_mod, "_draw_schedules", schedules)
    pattern = UniformTraffic(config.layout)
    kwargs = dict(window_ns=80.0, seed=7)

    def traced():
        recorder = TraceRecorder()
        result = run_load_point(network, config, pattern, 0.3,
                                tracer=recorder, **kwargs)
        return result, recorder

    _, probe = traced()
    hop = max(e.time_ps for e in probe.by_type(tracing.ENQUEUE))
    previous = t0 if stamped_before_push else hop - lead + 1
    site_times[:] = [previous, hop]

    scalar, recorder = traced()
    tied = [e for e in recorder.by_type(tracing.ENQUEUE) if e.time_ps == hop]
    assert len(tied) == 2 and tied[0].resource == tied[1].resource
    hop_first = tied[0].pid == probe.by_type(tracing.INJECT)[0].pid
    assert hop_first is not stamped_before_push  # the engine's tie order

    captured = []
    assemble = vectorized._assemble_result

    def capture(*args):
        captured.append(args)
        return assemble(*args)

    monkeypatch.setattr(vectorized, "_assemble_result", capture)
    fast = run_load_point(network, config, pattern, 0.3,
                          backend="vectorized", **kwargs)
    (*_, plan, out), = captured
    pairs = sorted((int(t), int(i))
                   for t, i in zip(out.deliver_t, out.deliver_inject)
                   if t <= plan.horizon_ps)
    assert pairs == _traced_delivery_pairs(recorder)
    assert not math.isnan(scalar.mean_latency_ns)
    assert fast == scalar


@needs_numpy
@pytest.mark.parametrize("network", vectorized_networks())
def test_assembled_result_ignores_delivery_order(network, monkeypatch):
    """``KernelOutput`` promises nothing about the order of its
    delivery pairs (the token-ring kernel emits them per destination):
    any shuffle of the pairs assembles the identical result."""
    captured = []
    assemble = vectorized._assemble_result

    def capture(*args):
        captured.append(args)
        return assemble(*args)

    monkeypatch.setattr(vectorized, "_assemble_result", capture)
    result = run_load_point(network, CFG, UniformTraffic(CFG.layout), 0.3,
                            window_ns=80.0, seed=7, backend="vectorized")
    assert not math.isnan(result.mean_latency_ns)
    (*head, out), = captured
    pairs = list(zip(list(out.deliver_t), list(out.deliver_inject)))
    rng = random.Random(1)
    for _ in range(3):
        rng.shuffle(pairs)
        shuffled = out._replace(deliver_t=[t for t, _ in pairs],
                                deliver_inject=[i for _, i in pairs])
        assert assemble(*head, shuffled) == result


@pytest.mark.parametrize("network,load", LOAD_POINTS)
def test_vectorized_backend_traces_byte_identical(network, load):
    """Tracing under backend="vectorized" must emit byte-identical
    canonical traces.  An attached tracer forces the scalar engine (the
    trace IS the scalar dispatch order), so this locks down the fallback
    seam: requesting the fast backend never perturbs a traced run."""
    scalar = _canonical_trace(network, load)
    fast = _canonical_trace(network, load, backend="vectorized")
    assert len(fast) > 0
    assert fast == scalar


@needs_numpy
@pytest.mark.parametrize("network", NETWORKS)
def test_vectorized_warm_context_reuse_cycle(network):
    """Vectorized runs on the interned draw bank, alternating load
    points (low, high, low again), must each be bit-identical to a
    scalar run on a private bank: nothing one point leaves behind in
    the process reaches the next."""
    _, low, high = next(r for r in NETWORK_LOADS if r[0] == network)
    pattern = UniformTraffic(CFG.layout)

    def cold_scalar(load):
        return run_load_point(network, CFG, pattern, load,
                              window_ns=80.0, seed=7, warm=False)

    for load in (low, high, low):
        warm_fast = run_load_point(network, CFG, pattern, load,
                                   window_ns=80.0, seed=7,
                                   warm=True, backend="vectorized")
        assert warm_fast == cold_scalar(load)


def test_unknown_backend_rejected_with_choices():
    """A bad backend name fails fast, and the message lists the valid
    choices so the caller can self-correct."""
    with pytest.raises(ValueError) as exc:
        run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.05, window_ns=80.0, seed=7, backend="numpy")
    message = str(exc.value)
    assert "numpy" in message
    assert "python" in message and "vectorized" in message
