"""Tests for the power/EDP analysis layer (Tables 5, Figures 9-10)."""

import pytest

from repro.analysis.edp import (
    EnergyBreakdown,
    energy_breakdown,
    normalized_edp,
    speedups,
)
from repro.analysis.power import (
    electrical_static_w,
    network_power,
    router_energy_fraction,
    static_power_w,
    table5_rows,
)
from repro.analysis.tables import format_count, render_series, render_table
from repro.core.stats import LatencySample
from repro.macrochip.config import scaled_config
from repro.networks.complexity import p2p_count
from repro.workloads.replay import ReplayResult


class TestTable5:
    def test_rows_in_paper_order(self):
        names = [r.network for r in table5_rows()]
        assert names[0] == "Token-Ring"
        assert names[1] == "Point-to-Point"
        assert len(names) == 7

    def test_paper_laser_powers(self):
        rows = {r.network: r for r in table5_rows()}
        # Table 5 values (Circuit-Switched differs slightly: we use the
        # honest 31 x 0.5 dB = 15.5 dB where the paper rounds to ~30x)
        assert rows["Point-to-Point"].laser_power_w == pytest.approx(8.2, abs=0.1)
        assert round(rows["Point-to-Point"].laser_power_w, 1) == 8.2
        assert rows["Token-Ring"].laser_power_w == pytest.approx(155, abs=2)
        assert rows["Two-Phase Data"].laser_power_w == pytest.approx(41, abs=1)
        assert rows["Two-Phase Data (ALT)"].laser_power_w == pytest.approx(65.5, abs=1)
        assert rows["Two-Phase Arbitration"].laser_power_w == pytest.approx(1.0, abs=0.1)
        assert rows["Circuit-Switched"].laser_power_w == pytest.approx(290, abs=5)

    def test_loss_factors(self):
        rows = {r.network: r for r in table5_rows()}
        assert rows["Token-Ring"].loss_factor == pytest.approx(19.05, abs=0.1)
        assert rows["Point-to-Point"].loss_factor == 1.0
        assert rows["Two-Phase Data"].loss_factor == pytest.approx(5.0, abs=0.1)
        assert rows["Two-Phase Arbitration"].loss_factor == pytest.approx(8.0)

    def test_p2p_is_most_power_efficient(self):
        rows = table5_rows()
        p2p = next(r for r in rows if r.network == "Point-to-Point")
        for r in rows:
            if r.network in ("Point-to-Point", "Limited Point-to-Point",
                             "Two-Phase Arbitration"):
                continue
            # "over 10x more power-efficient than the other networks"
            assert r.laser_power_w >= 5 * p2p.laser_power_w


class TestStaticPower:
    def test_electrical_static_positive(self):
        w = electrical_static_w(p2p_count(), scaled_config().tech)
        assert w > 0

    def test_network_power_total(self):
        p = network_power(p2p_count(), scaled_config().tech)
        assert p.total_static_w == pytest.approx(
            p.laser_power_w + p.electrical_static_w)

    def test_static_power_by_key(self):
        p2p = static_power_w("point_to_point")
        tr = static_power_w("token_ring")
        assert tr > p2p  # token ring burns far more power

    def test_two_phase_includes_arbitration_overlay(self):
        base = static_power_w("two_phase", include_electrical=False)
        assert base == pytest.approx(41.1 + 1.0, abs=0.3)

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            static_power_w("bogus")


class TestRouterFraction:
    def test_fraction_formula(self):
        frac = router_energy_fraction({"router": 50.0, "optical": 30.0},
                                      static_w=0.0, runtime_ps=100)
        assert frac == pytest.approx(50.0 / 80.0)

    def test_zero_total(self):
        assert router_energy_fraction({}, 0.0, 0) == 0.0


def _result(network, runtime_ps, optical=100.0, router=0.0):
    lat = LatencySample()
    lat.add(1000)
    return ReplayResult(network=network, workload="w", runtime_ps=runtime_ps,
                        ops_completed=1, messages_sent=2, op_latency=lat,
                        energy_by_category={"optical": optical,
                                            "router": router})


class TestEdp:
    def test_breakdown_includes_static(self):
        b = energy_breakdown(_result("Point-to-Point", 10_000),
                             "point_to_point")
        assert b.static_pj > 0
        assert b.total_pj == pytest.approx(
            b.static_pj + b.optical_pj + b.router_pj)
        assert b.edp == pytest.approx(b.total_pj * 10_000)

    def test_router_fraction_property(self):
        b = EnergyBreakdown("n", "w", 100, static_pj=50.0, optical_pj=25.0,
                            router_pj=25.0)
        assert b.router_fraction == 0.25

    def test_normalized_edp_baseline_is_one(self):
        breakdowns = {
            "point_to_point": energy_breakdown(
                _result("P2P", 10_000), "point_to_point"),
            "token_ring": energy_breakdown(
                _result("TR", 30_000), "token_ring"),
        }
        norm = normalized_edp(breakdowns)
        assert norm["point_to_point"] == 1.0
        assert norm["token_ring"] > 10.0  # more power and slower

    def test_normalized_edp_missing_baseline(self):
        with pytest.raises(KeyError):
            normalized_edp({}, "point_to_point")

    def test_speedups(self):
        out = speedups({"circuit_switched": 1000, "point_to_point": 250})
        assert out["circuit_switched"] == 1.0
        assert out["point_to_point"] == 4.0


class TestTables:
    def test_render_table_aligns(self):
        text = render_table(["A", "B"], [["x", 1], ["yy", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("A")
        assert len(lines) == 4

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["A"], [["x", "y"]])

    def test_format_count(self):
        assert format_count(16384) == "16K"
        assert format_count(15360) == "15K"
        assert format_count(8192) == "8192"
        assert format_count(24) == "24"
        assert format_count(524288) == "512K"

    def test_render_series(self):
        text = render_series("t", "x", "y",
                             {"a": [(1, 2.0), (2, 3.0)], "b": [(1, 5.0)]})
        assert "t" in text and "a" in text and "b" in text
        assert "-" in text  # missing point placeholder
