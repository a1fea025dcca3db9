"""Integration tests: the paper's headline claims, at reduced scale.

These run the real experiment pipeline with small workloads on the full
8x8 configuration (the network mechanisms under test are scale-
sensitive), asserting the *orderings and ratios* section 6 reports —
the reproduction contract spelled out in DESIGN.md.
"""

import pytest

from repro.core.parallel import Shard, run_sharded
from repro.core.sweep import run_load_point
from repro.experiments.evaluation import run_suite
from repro.experiments.figure6 import run_figure6
from repro.experiments.figures7_10 import (
    figure7_speedups,
    figure8_latencies,
    figure9_router_fractions,
    figure10_edp,
)
from repro.macrochip.config import scaled_config
from repro.workloads.replay import replay
from repro.workloads.sharing import mix_by_name
from repro.workloads.synthetic import make_pattern
from repro.workloads.synthetic_coherence import (
    SyntheticCoherenceSpec,
    generate_synthetic_trace,
)

CFG = scaled_config()
PEAK = CFG.num_sites * CFG.site_bandwidth_gb_per_s


#: every (network, pattern, offered load, window_ns) point that
#: TestFigure6Claims reads, each simulated once
FIGURE6_CLAIM_POINTS = [
    ("point_to_point", "uniform", 0.90, 600),
    ("limited_point_to_point", "uniform", 0.42, 600),
    ("limited_point_to_point", "uniform", 0.70, 600),
    ("token_ring", "uniform", 0.35, 600),
    ("token_ring", "uniform", 0.80, 600),
    ("two_phase", "uniform", 0.30, 600),
    ("circuit_switched", "uniform", 0.06, 600),
    ("point_to_point", "uniform", 0.95, 500),
    ("limited_point_to_point", "uniform", 0.70, 500),
    ("token_ring", "uniform", 0.70, 500),
    ("two_phase", "uniform", 0.30, 500),
    ("circuit_switched", "uniform", 0.30, 500),
    ("point_to_point", "transpose", 0.05, 600),
    ("token_ring", "transpose", 0.05, 600),
    ("limited_point_to_point", "neighbor", 0.24, 600),
    ("point_to_point", "neighbor", 0.24, 600),
]


@pytest.fixture(scope="module")
def claim_points():
    """LoadPointResult per FIGURE6_CLAIM_POINTS entry.  Two workers only
    save time: results are bit-identical to serial runs."""
    shards = [Shard(run_load_point,
                    args=(net, CFG, make_pattern(pattern_key, CFG.layout),
                          load),
                    kwargs=dict(window_ns=window_ns),
                    label="%s/%s @%.2f, %d ns"
                          % (net, pattern_key, load, window_ns))
              for net, pattern_key, load, window_ns in FIGURE6_CLAIM_POINTS]
    run = run_sharded(shards, workers=2,
                      cost_key=lambda s: s.args[3] * s.kwargs["window_ns"])
    return dict(zip(FIGURE6_CLAIM_POINTS, run.results))


class TestFigure6Claims:
    """Section 6.1 saturation behaviour."""

    def test_p2p_sustains_most_of_peak_on_uniform(self, claim_points):
        r = claim_points["point_to_point", "uniform", 0.90, 600]
        assert r.throughput_gb_per_s / PEAK > 0.80

    def test_limited_p2p_saturates_near_half(self, claim_points):
        ok = claim_points["limited_point_to_point", "uniform", 0.42, 600]
        assert not ok.saturated
        over = claim_points["limited_point_to_point", "uniform", 0.70, 600]
        assert over.throughput_gb_per_s / PEAK < 0.60

    def test_token_ring_saturates_near_40_percent(self, claim_points):
        ok = claim_points["token_ring", "uniform", 0.35, 600]
        assert not ok.saturated
        over = claim_points["token_ring", "uniform", 0.80, 600]
        assert over.throughput_gb_per_s / PEAK < 0.50

    def test_two_phase_saturates_below_15_percent(self, claim_points):
        over = claim_points["two_phase", "uniform", 0.30, 600]
        assert over.throughput_gb_per_s / PEAK < 0.20

    def test_circuit_switched_saturates_lowest(self, claim_points):
        over = claim_points["circuit_switched", "uniform", 0.06, 600]
        assert over.throughput_gb_per_s / PEAK < 0.04

    def test_uniform_saturation_ordering(self, claim_points):
        """P2P > limited P2P ~ token ring > two-phase > circuit-switched."""
        loads = {"point_to_point": 0.95, "limited_point_to_point": 0.70,
                 "token_ring": 0.70, "two_phase": 0.30,
                 "circuit_switched": 0.30}
        sust = {net: claim_points[net, "uniform", f, 500]
                .throughput_gb_per_s / PEAK
                for net, f in loads.items()}
        assert sust["point_to_point"] > sust["limited_point_to_point"]
        assert sust["limited_point_to_point"] > sust["two_phase"]
        assert sust["token_ring"] > sust["two_phase"]
        assert sust["two_phase"] > sust["circuit_switched"]

    def test_p2p_transpose_capped_at_one_channel(self, claim_points):
        """Transpose uses one 5 GB/s link per site: ~1.56% of peak."""
        r = claim_points["point_to_point", "transpose", 0.05, 600]
        frac = r.throughput_gb_per_s / PEAK
        assert frac < 0.020
        assert r.saturated

    def test_token_ring_transpose_below_p2p(self, claim_points):
        """Token reacquisition caps one-to-one patterns below ~1.3%."""
        tr = claim_points["token_ring", "transpose", 0.05, 600]
        p2p = claim_points["point_to_point", "transpose", 0.05, 600]
        assert tr.throughput_gb_per_s < p2p.throughput_gb_per_s

    def test_limited_p2p_best_on_neighbor(self, claim_points):
        """Nearest-neighbor maps onto direct row/column links: the
        limited point-to-point network sustains ~25% of peak."""
        r = claim_points["limited_point_to_point", "neighbor", 0.24, 600]
        assert not r.saturated
        p2p = claim_points["point_to_point", "neighbor", 0.24, 600]
        assert (r.throughput_gb_per_s > p2p.throughput_gb_per_s
                or p2p.saturated)


#: thinned Figure 6 load grids, three loads per panel
FIGURE6_GRIDS = {
    "uniform": [0.05, 0.40, 0.90],
    "transpose": [0.005, 0.015, 0.05],
    "neighbor": [0.04, 0.12, 0.24],
    "butterfly": [0.005, 0.015, 0.05],
}


@pytest.fixture(scope="module")
def figure6_sustained():
    """Sustained fraction of peak per panel and network: the whole
    Figure 6 pipeline (all four panels, five networks) at a 150 ns
    window on the thinned grids.  Two workers only save time: results
    are bit-identical to a serial run."""
    result = run_figure6(CFG, window_ns=150.0, load_grids=FIGURE6_GRIDS,
                         workers=2)
    return {pattern: {net: max(p.delivered_fraction for p in points)
                      for net, points in curves.items()}
            for pattern, curves in result.curves.items()}


class TestFigure6Panels:
    """Each Figure 6 panel's headline property from section 6.1, read
    off one run_figure6 pass."""

    def test_uniform(self, figure6_sustained):
        sust = figure6_sustained["uniform"]
        assert sust["point_to_point"] > sust["limited_point_to_point"]
        assert sust["point_to_point"] > 0.6
        assert sust["two_phase"] < sust["token_ring"]
        assert sust["circuit_switched"] < 0.05

    def test_transpose(self, figure6_sustained):
        sust = figure6_sustained["transpose"]
        # the P2P channel caps at 5 GB/s per site (~1.56% of peak) and
        # the token ring falls below it
        assert sust["point_to_point"] < 0.02
        assert sust["token_ring"] < sust["point_to_point"]

    def test_neighbor(self, figure6_sustained):
        sust = figure6_sustained["neighbor"]
        # nearest-neighbor maps onto the limited P2P's direct links
        assert sust["limited_point_to_point"] == max(sust.values())

    def test_butterfly(self, figure6_sustained):
        sust = figure6_sustained["butterfly"]
        # half the butterfly traffic is intra-site loopback; the optical
        # networks only carry the moving half
        assert sust["token_ring"] < sust["point_to_point"]


def _make_trace(pattern_key, mix="LS", ops=15, name="t"):
    spec = SyntheticCoherenceSpec(name, ops_per_core=ops)
    return generate_synthetic_trace(
        spec, make_pattern(pattern_key, CFG.layout), mix_by_name(mix), CFG)


class TestBenchmarkClaims:
    """Section 6.2 coherence-benchmark behaviour."""

    @pytest.fixture(scope="class")
    def all_to_all_results(self):
        trace = _make_trace("uniform")
        return {net: replay(trace, net, CFG)
                for net in ["circuit_switched", "point_to_point",
                            "token_ring", "two_phase", "two_phase_alt"]}

    def test_p2p_fastest_on_all_to_all(self, all_to_all_results):
        res = all_to_all_results
        assert res["point_to_point"].runtime_ps < res["token_ring"].runtime_ps
        assert res["point_to_point"].runtime_ps < res["two_phase"].runtime_ps
        assert (res["point_to_point"].runtime_ps
                < res["circuit_switched"].runtime_ps)

    def test_circuit_switched_slowest(self, all_to_all_results):
        res = all_to_all_results
        cs = res["circuit_switched"].runtime_ps
        for net, r in res.items():
            if net != "circuit_switched":
                assert r.runtime_ps < cs, net

    def test_alt_beats_base_two_phase(self, all_to_all_results):
        res = all_to_all_results
        assert (res["two_phase_alt"].runtime_ps
                < res["two_phase"].runtime_ps)

    def test_ms_mix_punishes_arbitrated_networks(self):
        """Section 6.2: P2P is at least ~4.5x better than the arbitrated
        networks on the MS mix (invalidation-heavy small messages); at
        this reduced workload scale we assert the weaker >1.7x ordering
        (EXPERIMENTS.md records the full-scale ratio)."""
        trace = _make_trace("transpose", mix="MS", ops=30,
                            name="transpose-ms")
        p2p = replay(trace, "point_to_point", CFG)
        tr = replay(trace, "token_ring", CFG)
        assert tr.runtime_ps > 1.7 * p2p.runtime_ps

    def test_p2p_op_latency_bounded(self):
        """P2P latency per coherence op stays low (paper: <= ~100 ns on
        synthetic benchmarks)."""
        trace = _make_trace("uniform")
        r = replay(trace, "point_to_point", CFG)
        assert r.mean_op_latency_ns < 100.0


@pytest.fixture(scope="module")
def smoke_suite():
    """One smoke-preset closed-loop campaign on the 8x8 configuration:
    an application kernel (CPU-simulated trace) and two synthetics, on
    every Figure 7 network (two workers, bit-identical to serial)."""
    return run_suite("smoke", config=CFG,
                     workloads=["Radix", "All-to-all", "Neighbor"],
                     workers=2)


class TestFigures7To10Claims:
    """Each figure's headline claim from section 6.2, derived from one
    campaign the way Figures 7-10 share one in the paper."""

    def test_figure7_p2p_beats_circuit_switched(self, smoke_suite):
        for workload, by_net in figure7_speedups(smoke_suite).items():
            assert by_net["circuit_switched"] == 1.0
            assert by_net["point_to_point"] > 1.0, workload

    def test_figure8_latency_per_op(self, smoke_suite):
        latencies = figure8_latencies(smoke_suite)["All-to-all"]
        # paper: P2P latency per coherence op <= ~100 ns on synthetics
        assert latencies["point_to_point"] < 100.0
        # the circuit-switched torus pays its multi-hop path setup
        assert latencies["circuit_switched"] > 2 * latencies["point_to_point"]

    def test_figure9_router_energy(self, smoke_suite):
        fractions = figure9_router_fractions(smoke_suite)
        # forwarding-free neighbor traffic uses almost no router energy;
        # all-to-all forwards ~75% of packets and pays the most
        assert fractions["Neighbor"] < fractions["All-to-all"]

    def test_figure10_edp(self, smoke_suite):
        for workload, by_net in figure10_edp(smoke_suite).items():
            assert by_net["point_to_point"] == 1.0
            # paper: arbitrated/circuit-switched networks are 10-100x worse
            assert by_net["token_ring"] > 5.0, workload
            assert by_net["circuit_switched"] > 5.0, workload
