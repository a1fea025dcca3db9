"""Cross-scale property matrix: every contract, every network, three grids.

The determinism and invariant contracts the
repo already enforces at the paper's 8x8 scale are properties of the
*machinery*, not of one grid size — so they must hold verbatim at 4x4 and
16x16 too.  The matrix below parameterizes three contracts over
{4x4, 8x8, 16x16} x the five Figure 6 networks:

* **invariants** — a load point runs clean under
  ``run_load_point(check_invariants=True)`` (causality, conservation,
  no-overlap checks);
* **determinism** — two fresh runs of the same arguments produce
  byte-identical canonical traces and equal results;
* **fastpath equivalence** — a run on the batched RNG draws matches one
  driven by the one-draw-per-packet reference schedule exactly.

Plus closed-form geometry sanity at every scale (snake ring length,
torus distances, limited-p2p peer provisioning) and the analytical scaling study's own unit surface.

Loads are small and windows short: the matrix is 3 x 5 x 3 contracts and
must stay tier-1 fast; the *values* at scale are pinned separately in
``test_golden_figure6.GOLDEN_16``.
"""


import pytest

import repro.core.sweep as sweep_mod
from repro.core.sweep import run_load_point
from repro.core.tracing import TraceRecorder
from repro.experiments.scaling import (
    AXES, LASER_BUDGET_W, MAX_LAUNCH_DBM, SCALING_DIMS, ScalePoint,
    analyze_network, breakpoint_table_text, scaling_sweep,
    wavelength_demand)
from repro.macrochip.config import grid_config
from repro.networks.factory import FIGURE6_NETWORKS, build_network
from repro.photonics.layout import MacrochipLayout
from repro.workloads.synthetic import UniformTraffic

from .conftest import reference_schedules


DIMS = (4, 8, 16)
WINDOW_NS = 30.0
SEED = 42

#: modest per-network loads: enough traffic to exercise arbitration
#: state without saturating the slow shared media at 16x16
LOADS = {
    "point_to_point": 0.20,
    "limited_point_to_point": 0.15,
    "token_ring": 0.10,
    "two_phase": 0.04,
    "circuit_switched": 0.01,
}

MATRIX = [(dim, net) for dim in DIMS for net in FIGURE6_NETWORKS]
MATRIX_IDS = ["%dx%d-%s" % (d, d, n) for d, n in MATRIX]


def _run(network, dim, tracer=None):
    cfg = grid_config(dim)
    return run_load_point(network, cfg, UniformTraffic(cfg.layout),
                          LOADS[network], window_ns=WINDOW_NS, seed=SEED,
                          tracer=tracer, check_invariants=True)


def _result_tuple(r):
    return (r.injected_packets, r.delivered_packets, r.events_dispatched,
            r.mean_latency_ns, r.throughput_gb_per_s)


# -- the three contracts, over the full matrix -------------------------------


@pytest.mark.parametrize("dim,network", MATRIX, ids=MATRIX_IDS)
def test_invariants_hold_at_scale(dim, network):
    result = _run(network, dim)
    assert result.injected_packets > 0
    assert result.delivered_packets > 0
    assert result.delivered_packets <= result.injected_packets


@pytest.mark.parametrize("dim,network", MATRIX, ids=MATRIX_IDS)
def test_repeated_runs_are_byte_identical(dim, network):
    traces = []
    results = []
    for _ in range(2):
        tracer = TraceRecorder()
        results.append(_result_tuple(_run(network, dim, tracer=tracer)))
        traces.append("\n".join(tracer.canonical_lines()).encode())
    assert traces[0] == traces[1]
    assert results[0] == results[1]


@pytest.mark.parametrize("dim,network", MATRIX, ids=MATRIX_IDS)
def test_rng_fastpath_equivalent_at_scale(dim, network, monkeypatch):
    blocked = _result_tuple(_run(network, dim))
    monkeypatch.setattr(sweep_mod, "_draw_schedules", reference_schedules)
    per_packet = _result_tuple(_run(network, dim))
    assert blocked == per_packet


# -- closed-form geometry sanity ---------------------------------------------


@pytest.mark.parametrize("dim", DIMS)
def test_snake_ring_length_closed_form(dim):
    layout = MacrochipLayout(rows=dim, cols=dim)
    pitch = layout.site_pitch_cm
    expected = (dim * (dim - 1) * pitch      # horizontal runs
                + (dim - 1) * pitch          # vertical column span
                + 2 * (dim - 1) * pitch)     # perimeter return leg
    assert layout.snake_ring_length_cm() == pytest.approx(expected)


@pytest.mark.parametrize("dim", DIMS)
def test_torus_distances_closed_form(dim):
    layout = MacrochipLayout(rows=dim, cols=dim)
    # wraparound: the site one step "before" site 0 is a single hop away
    far_col = layout.site_at(0, dim - 1)
    assert layout.torus_hop_counts(0, far_col) == (0, 1)
    # antipode: the maximal torus distance is dim//2 + dim//2 hops
    anti = layout.site_at(dim // 2, dim // 2)
    assert layout.torus_hop_counts(0, anti) == (dim // 2, dim // 2)
    assert layout.torus_distance_cm(0, anti) == pytest.approx(
        (dim // 2 + dim // 2) * layout.site_pitch_cm)


@pytest.mark.parametrize("dim", DIMS)
def test_limited_p2p_channel_provisioning_closed_form(dim):
    from repro.core.engine import Simulator
    from repro.core.stats import NetworkStats

    cfg = grid_config(dim)
    net = build_network("limited_point_to_point", cfg, Simulator(),
                        NetworkStats())
    peers = (dim - 1) + (dim - 1)
    expected = max(1, cfg.transmitters_per_site // (peers + 2))
    assert net.channel_wavelengths == expected


# -- the analytical scaling study itself -------------------------------------


def test_scaling_sweep_covers_all_networks_and_dims():
    results = scaling_sweep(max_dim=32)
    assert [r.network for r in results] == list(FIGURE6_NETWORKS)
    for res in results:
        assert tuple(p.dim for p in res.points) == SCALING_DIMS
        for p in res.points:
            assert isinstance(p, ScalePoint)
            assert set(p.failed_axes) <= set(AXES)


def test_analyze_network_is_exact_at_the_paper_point():
    """At 8x8 the study must reproduce Table 5 exactly: no waveguide
    scaling penalty, no signaling penalty, so total extra dB equals the
    component count's own extra loss."""
    from repro.analysis.power import network_power
    from repro.networks.complexity import ALL_COUNTS

    for net in FIGURE6_NETWORKS:
        point = analyze_network(net, 8)
        count = ALL_COUNTS[net](grid_config(8))
        assert point.total_extra_db == pytest.approx(count.extra_loss_db)
        table5 = network_power(count, grid_config(8).tech)
        assert point.laser_power_w == pytest.approx(table5.laser_power_w)
        assert point.feasible


def test_wavelength_demand_closed_forms():
    cfg = grid_config(16)
    assert wavelength_demand("point_to_point", cfg) == (256, 128)
    assert wavelength_demand("limited_point_to_point", cfg) == (32, 128)
    for shared in ("token_ring", "circuit_switched", "two_phase"):
        needed, avail = wavelength_demand(shared, cfg)
        assert needed == 1 and avail == 128


def test_feasibility_thresholds_bind():
    """The axis predicates compare against the documented ceilings."""
    p16 = analyze_network("two_phase", 16)
    assert p16.required_launch_dbm > MAX_LAUNCH_DBM
    assert not p16.pd_budget_ok
    p8 = analyze_network("two_phase", 8)
    assert p8.required_launch_dbm <= MAX_LAUNCH_DBM
    assert p8.laser_power_w <= LASER_BUDGET_W
    assert p8.feasible


def test_analyze_network_rejects_unknown_key():
    with pytest.raises(KeyError, match="unknown network"):
        analyze_network("warp_drive", 8)


def test_breakpoint_table_mentions_every_network():
    text = breakpoint_table_text(max_dim=32)
    for net in FIGURE6_NETWORKS:
        assert net in text
    assert "OVERSUBSCRIBED" in text  # the 32x32 edge-fiber note
