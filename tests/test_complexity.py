"""Tests that Table 6 component counts come out exactly for the paper's
8x8 scaled configuration."""

import pytest

from repro.macrochip.config import scaled_config
from repro.networks.complexity import (
    circuit_switched_count,
    limited_p2p_count,
    p2p_count,
    table6_rows,
    token_ring_count,
    two_phase_arbitration_count,
    two_phase_count,
)


class TestTable6PaperValues:
    def test_point_to_point(self):
        c = p2p_count()
        assert c.transmitters == 8192
        assert c.receivers == 8192
        assert c.waveguides == 3072
        assert c.switches == 0
        assert c.laser_feeds == 8192
        assert c.extra_loss_db == 0.0

    def test_token_ring(self):
        c = token_ring_count()
        assert c.transmitters == 512 * 1024
        assert c.receivers == 8192
        assert c.waveguides == 32 * 1024
        assert c.switches == 0
        assert c.laser_feeds == 8192
        assert c.extra_loss_db == pytest.approx(12.8)

    def test_circuit_switched(self):
        c = circuit_switched_count()
        assert c.transmitters == 8192
        assert c.receivers == 8192
        assert c.waveguides == 2048
        assert c.switches == 1024
        assert "4x4" in c.switch_kind
        assert c.extra_loss_db == pytest.approx(15.5)

    def test_limited_point_to_point(self):
        c = limited_p2p_count()
        assert c.transmitters == 8192
        assert c.receivers == 8192
        assert c.waveguides == 3072
        assert c.switches == 128
        assert "electronic" in c.switch_kind

    def test_two_phase_data(self):
        c = two_phase_count()
        assert c.transmitters == 8192
        assert c.receivers == 8192
        assert c.waveguides == 4096
        assert c.switches == 16 * 1024
        assert c.extra_loss_db == pytest.approx(7.0)

    def test_two_phase_alt(self):
        c = two_phase_count(alt=True)
        assert c.transmitters == 16384
        assert c.switches == 15 * 1024
        assert c.laser_feeds == 16384
        assert c.extra_loss_db == pytest.approx(6.0)

    def test_two_phase_arbitration(self):
        c = two_phase_arbitration_count()
        assert c.transmitters == 128
        assert c.receivers == 1024
        assert c.waveguides == 24
        assert c.laser_feeds == 128


def test_table6_row_order_matches_paper():
    names = [c.network for c in table6_rows()]
    assert names == [
        "Token-Ring",
        "Point-to-Point",
        "Circuit-Switched",
        "Limited Point-to-Point",
        "Two-Phase Data",
        "Two-Phase Data (ALT)",
        "Two-Phase Arbitration",
    ]


def test_p2p_has_lowest_active_component_count():
    """Section 6.4's complexity conclusion: the point-to-point network is
    the least complex optical network (fewest active optical parts among
    full-connectivity networks)."""
    rows = {c.network: c for c in table6_rows()}
    p2p = rows["Point-to-Point"].total_active_components
    for name in ["Token-Ring", "Circuit-Switched", "Two-Phase Data",
                 "Two-Phase Data (ALT)"]:
        assert p2p < rows[name].total_active_components


def test_counts_scale_with_configuration():
    small = scaled_config().with_overrides(
        layout=scaled_config().layout.__class__(rows=4, cols=4))
    c = p2p_count(small)
    assert c.transmitters == 16 * 128
    assert c.waveguides == 16 * 16 * 3


class TestGeneralizedWorstHops:
    """PR 8 regression: worst-hop counts were hard-coded 8x8 constants
    (31 / 7 / 6); they are now layout-derived, with the 8x8 values
    provably unchanged."""

    def test_8x8_values_match_the_pinned_constants(self):
        from repro.networks.complexity import (
            CIRCUIT_SWITCHED_WORST_HOPS, TWO_PHASE_ALT_WORST_HOPS,
            TWO_PHASE_WORST_HOPS, circuit_switched_worst_hops,
            two_phase_worst_hops)

        layout = scaled_config().layout
        assert (circuit_switched_worst_hops(layout)
                == CIRCUIT_SWITCHED_WORST_HOPS == 31)
        assert two_phase_worst_hops(layout) == TWO_PHASE_WORST_HOPS == 7
        assert (two_phase_worst_hops(layout, alt=True)
                == TWO_PHASE_ALT_WORST_HOPS == 6)

    def test_scaled_grids_follow_the_closed_forms(self):
        from repro.macrochip.config import grid_config
        from repro.networks.complexity import (
            circuit_switched_worst_hops, two_phase_worst_hops)

        for dim, circuit, two_phase in [(4, 15, 3), (16, 63, 15),
                                        (32, 127, 31)]:
            layout = grid_config(dim).layout
            assert circuit_switched_worst_hops(layout) == circuit
            assert two_phase_worst_hops(layout) == two_phase
            assert two_phase_worst_hops(layout, alt=True) == two_phase - 1

    def test_non_square_uses_both_dimensions(self):
        from repro.macrochip.config import grid_config
        from repro.networks.complexity import (
            circuit_switched_worst_hops, limited_p2p_count)

        cfg = grid_config(4, 8)
        # diameter = 4//2 + 8//2 = 6 -> 4*6 - 1 = 23 switch hops
        assert circuit_switched_worst_hops(cfg.layout) == 23
        # regression: the router label used cols-1 for both dimensions
        assert "3x7" in limited_p2p_count(cfg).switch_kind

    def test_tiny_grids_never_go_below_one_hop(self):
        from repro.macrochip.config import grid_config
        from repro.networks.complexity import (
            circuit_switched_worst_hops, two_phase_worst_hops)

        layout = grid_config(1, 2).layout
        assert circuit_switched_worst_hops(layout) >= 1
        assert two_phase_worst_hops(layout, alt=True) >= 1

    def test_loss_grows_with_the_grid(self):
        from repro.macrochip.config import grid_config
        from repro.networks.complexity import (circuit_switched_count,
                                               two_phase_count)

        small = circuit_switched_count(grid_config(4))
        big = circuit_switched_count(grid_config(16))
        assert big.extra_loss_db > small.extra_loss_db
        assert (two_phase_count(grid_config(16)).extra_loss_db
                > two_phase_count(grid_config(4)).extra_loss_db)
