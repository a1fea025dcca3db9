"""Tests for the open-loop load-sweep harness (Figure 6 machinery)."""

import math

import pytest

import repro.core.sweep as sweep_mod
from repro.core.sweep import BACKENDS, run_load_point
from repro.experiments.figure6 import run_figure6
from repro.macrochip.config import small_test_config
from repro.workloads.synthetic import UniformTraffic


CFG = small_test_config(4, 4)


def test_low_load_point_is_unsaturated():
    r = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       offered_fraction=0.05, window_ns=200)
    assert not r.saturated
    assert r.delivered_packets == r.injected_packets
    assert r.mean_latency_ns > 0
    assert r.throughput_gb_per_s > 0


def test_overload_saturates_circuit_switched():
    r = run_load_point("circuit_switched", CFG, UniformTraffic(CFG.layout),
                       offered_fraction=0.5, window_ns=200)
    assert r.saturated
    assert r.delivered_packets < r.injected_packets


def test_throughput_tracks_offered_load_when_unsaturated():
    lo = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                        0.02, window_ns=400, seed=7)
    hi = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                        0.08, window_ns=400, seed=7)
    assert hi.throughput_gb_per_s > 2 * lo.throughput_gb_per_s


def test_latency_grows_with_load():
    lo = run_load_point("token_ring", CFG, UniformTraffic(CFG.layout),
                        0.05, window_ns=400)
    hi = run_load_point("token_ring", CFG, UniformTraffic(CFG.layout),
                        0.6, window_ns=400)
    assert hi.mean_latency_ns > lo.mean_latency_ns


def test_invalid_load_rejected():
    with pytest.raises(ValueError):
        run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.0)


#: (argument, bad value) pairs run_load_point must reject.  Without the
#: check, an infinite load injected 640,000 packets into a 40 ns window,
#: a zero or negative window returned NaN latency marked unsaturated,
#: and a negative block size silently picked another draw path.
BAD_LOAD_POINT_ARGS = [
    ("offered_fraction", math.inf),
    ("offered_fraction", math.nan),
    ("offered_fraction", 1.5),
    ("offered_fraction", -0.1),
    ("window_ns", 0.0),
    ("window_ns", -10.0),
    ("window_ns", math.nan),
    ("window_ns", math.inf),
    ("rng_block", -3),
    ("rng_block", 0),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,value", BAD_LOAD_POINT_ARGS,
                         ids=["%s=%r" % arg for arg in BAD_LOAD_POINT_ARGS])
def test_run_load_point_rejects_bad_inputs(name, value, backend,
                                           monkeypatch):
    """Each bad argument raises ValueError naming it and its value, on
    both backends, before a single injection is drawn."""
    def no_draws(*args, **kwargs):
        raise AssertionError("drew injections before validating")

    monkeypatch.setattr(sweep_mod, "_draw_schedules", no_draws)
    kwargs = dict(offered_fraction=0.1, window_ns=40.0, backend=backend)
    kwargs[name] = value
    with pytest.raises(ValueError) as exc:
        run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       **kwargs)
    assert name in str(exc.value)
    assert repr(value) in str(exc.value)


@pytest.mark.parametrize("backend", BACKENDS)
def test_window_with_no_injection_rejected(backend):
    """A 10 ps window at 5% load (mean gap 4 ns) injects nothing: it
    used to return 0 injected, NaN latency and saturated=False.  It now
    raises, naming the minimum window for that load."""
    with pytest.raises(ValueError) as exc:
        run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.05, window_ns=0.01, backend=backend)
    message = str(exc.value)
    assert "window_ns=0.01" in message
    assert "4 ns" in message


def test_sweep_returns_points_in_order():
    result = run_figure6(CFG, window_ns=200, patterns=["uniform"],
                         networks=["point_to_point"],
                         load_grids={"uniform": [0.02, 0.05]})
    points = result.curves["uniform"]["point_to_point"]
    assert [p.offered_fraction for p in points] == [0.02, 0.05]
    for p in points:
        assert not math.isnan(p.mean_latency_ns)


def test_saturation_fraction():
    """The sustained fraction at the knee is the best delivered fraction
    among unsaturated points, or the best overall if every point
    saturated."""
    result = run_figure6(CFG, window_ns=200, patterns=["uniform"],
                         networks=["circuit_switched"],
                         load_grids={"uniform": [0.02, 0.05, 0.5]})
    points = result.curves["uniform"]["circuit_switched"]
    assert [p.saturated for p in points] == [False, False, True]
    assert result.saturation_table() == [
        ("uniform", "circuit_switched", points[1].delivered_fraction)]
    assert points[2].delivered_fraction > points[1].delivered_fraction
    result.curves["uniform"]["circuit_switched"] = points[2:]
    assert result.saturation_table() == [
        ("uniform", "circuit_switched", points[2].delivered_fraction)]


def test_saturation_threshold_default_is_pinned():
    """The paper-methodology verdict: saturated iff delivered <
    0.99 * injected after the bounded drain.  The 0.99 constant is
    pinned here so a silent change shows up as a test failure, not a
    drifted Figure 6 summary."""
    assert sweep_mod.SATURATION_THRESHOLD == 0.99


def test_saturation_threshold_changes_verdict(monkeypatch):
    """A near-knee point flips verdict as the threshold crosses its
    delivered/injected ratio — same simulation, different rule, on
    either engine."""
    pattern = UniformTraffic(CFG.layout)
    for backend in BACKENDS:
        monkeypatch.undo()
        base = run_load_point("circuit_switched", CFG, pattern, 0.5,
                              window_ns=200, backend=backend)
        assert base.saturated
        ratio = base.delivered_packets / base.injected_packets
        monkeypatch.setattr(sweep_mod, "SATURATION_THRESHOLD", ratio * 0.5)
        lenient = run_load_point("circuit_switched", CFG, pattern, 0.5,
                                 window_ns=200, backend=backend)
        assert not lenient.saturated
        # the simulation itself is untouched by the verdict rule
        assert lenient.delivered_packets == base.delivered_packets
        assert lenient.events_dispatched == base.events_dispatched


def test_deterministic_for_fixed_seed():
    a = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.05, window_ns=200, seed=99)
    b = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.05, window_ns=200, seed=99)
    assert a.mean_latency_ns == b.mean_latency_ns
    assert a.delivered_packets == b.delivered_packets


#: (network, load, expected stop_reason): a light load drains before the
#: horizon; a saturated circuit-switched load still has packets queued
#: when the bounded drain ends
STOP_FIELD_CASES = [
    ("point_to_point", 0.05, "drained"),
    ("circuit_switched", 0.5, "horizon"),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("network,load,reason", STOP_FIELD_CASES,
                         ids=[c[2] for c in STOP_FIELD_CASES])
@pytest.mark.parametrize("drain_factor", [1.0, 0.5])
def test_stop_fields_on_fixed_path(network, load, reason, drain_factor,
                                   backend, monkeypatch):
    """``stop_reason`` says whether the queue emptied within the run;
    ``stopped_at_ps`` is always the horizon (window plus the
    ``DRAIN_FACTOR`` drain), whichever way the run ended and on either
    engine."""
    window_ns = 200
    monkeypatch.setattr(sweep_mod, "DRAIN_FACTOR", drain_factor)
    r = run_load_point(network, CFG, UniformTraffic(CFG.layout), load,
                       window_ns=window_ns, backend=backend)
    assert r.stop_reason == reason
    assert r.stopped_at_ps == int(window_ns * 1000 * (1 + drain_factor))
    assert r.saturated == (reason == "horizon")
