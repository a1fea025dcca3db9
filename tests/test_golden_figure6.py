"""Golden-number regression pins for Figure 6 datapoints.

One low-load and one near-saturation load point per Figure 6 network,
uniform traffic, paper-scale (8x8) configuration, fixed seed.  The
values were recorded from the current model implementations and are
asserted *exactly* (simulations are deterministic — integer picosecond
times, per-site hashed RNG streams), so any refactor that silently
shifts results fails here rather than drifting the paper comparison.

If a model change is *intentional* (a calibration or bugfix that moves
the physics), regenerate the table:

    PYTHONPATH=src python - <<'EOF'
    from repro.core.sweep import run_load_point
    from repro.macrochip.config import scaled_config
    from repro.workloads.synthetic import UniformTraffic
    cfg = scaled_config()
    for net, load in [...]:
        r = run_load_point(net, cfg, UniformTraffic(cfg.layout), load,
                           window_ns=120.0)
        print(net, load, r.mean_latency_ns, r.throughput_gb_per_s,
              r.delivered_packets, r.injected_packets,
              r.events_dispatched)
    EOF

and update EXPERIMENTS.md if the Figure 6 knees moved.
"""

import pytest

from repro.core.sweep import run_load_point
from repro.macrochip.config import scaled_config
from repro.workloads.synthetic import UniformTraffic

#: (network, offered_fraction, mean_latency_ns, throughput_gb_per_s,
#:  delivered, injected, events_dispatched)
GOLDEN = [
    ("point_to_point", 0.02, 13.960798903107861, 389.72691952308327, 768, 768, 1536),
    ("point_to_point", 0.9, 25.39381501474257, 15676.444444444445, 34552, 34560, 69112),
    ("limited_point_to_point", 0.02, 15.949032727272728, 391.6812248940124, 768, 768, 2684),
    ("limited_point_to_point", 0.45, 22.32839707325049, 8699.471040583188, 17280, 17280, 61262),
    ("token_ring", 0.02, 9.23765, 385.45616774481374, 768, 768, 3428),
    ("token_ring", 0.38, 23.282385236706304, 6339.337504028091, 14588, 14592, 67805),
    ("two_phase", 0.02, 11.63930443159923, 369.9875245054358, 768, 768, 4322),
    ("two_phase", 0.08, 23.644990189666448, 1088.8011126564672, 3037, 3072, 52856),
    ("circuit_switched", 0.01, 47.86642528735632, 123.9426587124922, 371, 384, 1497),
    ("circuit_switched", 0.03, 51.94138253638254, 342.21935656001955, 1069, 1088, 4297),
]

#: Cross-scale pins: the same protocol on a 16x16 (256-site) macrochip
#: built with ``grid_config(16)`` — per-site resources held at the
#: Table 4 point.  Kept out of GOLDEN so the Figure 6 coverage check
#: stays paper-exact; these pin the *scaled* geometry paths (snake ring
#: four times longer, 256-way channel tables) against silent drift.
GOLDEN_16 = [
    ("point_to_point", 0.02, 27.813278256922377, 1568.7740614638271, 3069, 3072, 6141),
    ("point_to_point", 0.3, 29.222614188706217, 23876.79726216138, 45824, 45824, 91648),
    ("token_ring", 0.02, 30.188964487905302, 1381.9345661450925, 3061, 3072, 14753),
    ("token_ring", 0.2, 34.969033054030625, 12305.777777777777, 30591, 30720, 148137),
]

#: Scaling-study breakpoint pins (see ``repro.experiments.scaling``):
#: the first grid dimension at which each network goes infeasible (None
#: = survives through 32x32) and the axes that broke there.  These are
#: *analytical* pins — they move only if the loss/power model moves.
GOLDEN_BREAKPOINTS = {
    "token_ring": (16, ("pd_budget", "laser_power")),
    "circuit_switched": (16, ("pd_budget", "laser_power")),
    "point_to_point": (16, ("wavelengths",)),
    "limited_point_to_point": (32, ("pd_budget", "laser_power")),
    "two_phase": (16, ("pd_budget", "laser_power")),
}

#: NRZ-vs-PAM4 pin pair for the point-to-point network at the same low
#: load: PAM4 doubles the per-wavelength data rate, so at the same
#: offered *fraction* the absolute offered (and delivered) bandwidth
#: doubles and serialization latency drops.  The NRZ row is identical
#: to the GOLDEN baseline — the signaling knob is bit-invisible at its
#: default.
GOLDEN_SIGNALING = [
    ("nrz", 13.960798903107861, 389.72691952308327, 768, 768, 1536),
    ("pam4", 7.527003724394786, 765.221263568049, 1536, 1536, 3072),
]


@pytest.fixture(scope="module")
def cfg():
    return scaled_config()


@pytest.mark.parametrize(
    "network,load,mean_latency_ns,throughput,delivered,injected,events",
    GOLDEN, ids=["%s@%.2f" % (g[0], g[1]) for g in GOLDEN])
def test_figure6_datapoint_is_pinned(cfg, network, load, mean_latency_ns,
                                     throughput, delivered, injected,
                                     events):
    result = run_load_point(network, cfg, UniformTraffic(cfg.layout), load,
                            window_ns=120.0)
    assert result.delivered_packets == delivered
    assert result.injected_packets == injected
    assert result.events_dispatched == events
    # floats are deterministic too; approx() only tolerates platform
    # libm jitter in expovariate, not model drift
    assert result.mean_latency_ns == pytest.approx(mean_latency_ns,
                                                   rel=1e-12)
    assert result.throughput_gb_per_s == pytest.approx(throughput,
                                                       rel=1e-12)


@pytest.mark.parametrize(
    "signaling,mean_latency_ns,throughput,delivered,injected,events",
    GOLDEN_SIGNALING, ids=[g[0] for g in GOLDEN_SIGNALING])
def test_point_to_point_signaling_pin(cfg, signaling, mean_latency_ns,
                                      throughput, delivered, injected,
                                      events):
    config = cfg.with_overrides(
        tech=cfg.tech.with_overrides(signaling=signaling))
    result = run_load_point("point_to_point", config,
                            UniformTraffic(config.layout), 0.02,
                            window_ns=120.0)
    assert result.delivered_packets == delivered
    assert result.injected_packets == injected
    assert result.events_dispatched == events
    assert result.mean_latency_ns == pytest.approx(mean_latency_ns,
                                                   rel=1e-12)
    assert result.throughput_gb_per_s == pytest.approx(throughput,
                                                       rel=1e-12)


def test_pam4_moves_in_the_pinned_direction():
    """More bandwidth per wavelength -> more absolute offered load and
    lower serialization latency at the same offered fraction."""
    nrz, pam4 = GOLDEN_SIGNALING
    assert pam4[2] > nrz[2]  # throughput up
    assert pam4[4] > nrz[4]  # more packets injected in the window
    assert pam4[1] < nrz[1]  # mean latency down
    # the NRZ row is the exact GOLDEN point_to_point low-load row: the
    # signaling default cannot move the paper baseline
    baseline = next(g for g in GOLDEN
                    if g[0] == "point_to_point" and g[1] == 0.02)
    assert ("nrz",) + baseline[2:] == nrz


@pytest.mark.parametrize(
    "network,load,mean_latency_ns,throughput,delivered,injected,events",
    GOLDEN_16, ids=["16x16-%s@%.2f" % (g[0], g[1]) for g in GOLDEN_16])
def test_16x16_datapoint_is_pinned(network, load, mean_latency_ns,
                                   throughput, delivered, injected,
                                   events):
    from repro.macrochip.config import grid_config

    config = grid_config(16)
    result = run_load_point(network, config, UniformTraffic(config.layout),
                            load, window_ns=120.0)
    assert result.delivered_packets == delivered
    assert result.injected_packets == injected
    assert result.events_dispatched == events
    assert result.mean_latency_ns == pytest.approx(mean_latency_ns,
                                                   rel=1e-12)
    assert result.throughput_gb_per_s == pytest.approx(throughput,
                                                       rel=1e-12)


def test_scaling_breakpoints_are_pinned():
    """The Table-4-style breakpoint table: first infeasible grid size
    and failing axes per network, exactly as recorded."""
    from repro.experiments.scaling import scaling_sweep

    results = {r.network: r for r in scaling_sweep(max_dim=32)}
    assert set(results) == set(GOLDEN_BREAKPOINTS)
    for net, (dim, axes) in GOLDEN_BREAKPOINTS.items():
        assert results[net].breakpoint_dim == dim, net
        assert results[net].breakpoint_axes == axes, net


def test_scaling_breakpoints_move_in_the_physical_direction():
    """Direction asserts behind the pins: the lossy shared-medium
    networks collapse before the point-to-point plants,
    everything is feasible at the paper's own 8x8, and infeasibility is
    monotone (once broken, a network stays broken as the grid grows)."""
    from repro.experiments.scaling import scaling_sweep

    results = {r.network: r for r in scaling_sweep(max_dim=32)}
    # the paper's own scale is feasible for every network
    for res in results.values():
        for p in res.points:
            if p.dim <= 8:
                assert p.feasible, (res.network, p.dim)
        # monotone: feasibility never comes back at a larger grid
        broken = False
        for p in res.points:
            if broken:
                assert not p.feasible, (res.network, p.dim)
            broken = broken or not p.feasible
        # laser power grows strictly with scale for every network
        powers = [p.laser_power_w for p in res.points]
        assert powers == sorted(powers) and powers[0] < powers[-1]
    # electronic routing buys scale: limited p2p outlasts the full
    # crossbar's wavelength wall
    assert (results["limited_point_to_point"].breakpoint_dim
            > results["point_to_point"].breakpoint_dim)


def test_golden_table_covers_all_figure6_networks():
    from repro.networks.factory import FIGURE6_NETWORKS

    pinned = {net for net, *_ in GOLDEN}
    assert pinned == set(FIGURE6_NETWORKS)
    # one low-load and one near-saturation point per network
    for net in FIGURE6_NETWORKS:
        loads = sorted(load for n, load, *_ in GOLDEN if n == net)
        assert len(loads) == 2 and loads[0] < loads[1]
