"""Tests for the synthetic traffic patterns (Table 3)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.parallel import derive_seed
from repro.photonics.layout import MacrochipLayout
from repro.experiments.figure6 import LOAD_GRIDS
from repro.workloads.synthetic import (
    ButterflyTraffic,
    NeighborTraffic,
    TransposeTraffic,
    UniformTraffic,
    make_pattern,
    pattern_names,
)

LAYOUT = MacrochipLayout()  # 8x8

#: block sizes the batched-vs-unbatched equivalence tests sweep
BATCH_SIZES = [1, 7, 64, 1024]


def _blocked(total, block):
    """Block sizes covering ``total`` draws, last one partial."""
    out = []
    remaining = total
    while remaining > 0:
        take = min(block, remaining)
        out.append(take)
        remaining -= take
    return out


class TestUniform:
    def test_never_self(self):
        pat = UniformTraffic(LAYOUT, seed=7)
        for src in range(64):
            for _ in range(20):
                assert pat.destination(src) != src

    def test_covers_many_destinations(self):
        pat = UniformTraffic(LAYOUT, seed=7)
        dests = {pat.destination(0) for _ in range(500)}
        assert len(dests) > 50

    def test_reseed_reproduces(self):
        pat = UniformTraffic(LAYOUT)
        pat.reseed(123)
        a = [pat.destination(0) for _ in range(10)]
        pat.reseed(123)
        b = [pat.destination(0) for _ in range(10)]
        assert a == b


class TestTranspose:
    def test_rejects_non_square_layout(self):
        """Regression: site_at() wraps modulo the grid, so a 4x8
        'transpose' used to silently fold (c, r) back onto the die —
        a wrong answer, not a pattern."""
        with pytest.raises(ValueError, match="square"):
            TransposeTraffic(MacrochipLayout(rows=4, cols=8))

    def test_swaps_row_and_column(self):
        pat = TransposeTraffic(LAYOUT)
        # site (1, 3) = 11 -> (3, 1) = 25
        assert pat.destination(11) == 25

    def test_is_involution(self):
        pat = TransposeTraffic(LAYOUT)
        for src in range(64):
            assert pat.destination(pat.destination(src)) == src

    def test_diagonal_maps_to_self(self):
        pat = TransposeTraffic(LAYOUT)
        for i in range(8):
            assert pat.destination(i * 9) == i * 9

    def test_deterministic_single_destination(self):
        pat = TransposeTraffic(LAYOUT)
        assert len({pat.destination(11) for _ in range(10)}) == 1


class TestButterfly:
    def test_swaps_lsb_and_msb(self):
        pat = ButterflyTraffic(LAYOUT)
        # site 1 = 000001 -> 100000 = 32
        assert pat.destination(1) == 32
        assert pat.destination(32) == 1

    def test_half_map_to_self(self):
        """LSB == MSB means no movement — the 50% intra-node traffic the
        paper notes for butterfly (section 6.2)."""
        pat = ButterflyTraffic(LAYOUT)
        self_count = sum(1 for s in range(64) if pat.destination(s) == s)
        assert self_count == 32

    def test_is_involution(self):
        pat = ButterflyTraffic(LAYOUT)
        for src in range(64):
            assert pat.destination(pat.destination(src)) == src

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            ButterflyTraffic(MacrochipLayout(rows=3, cols=4))

    def test_rejects_single_site(self):
        """Regression: 1 passes the power-of-two check but has no MSB
        to swap — the shift used to go negative and crash at the first
        destination() call instead of failing at construction."""
        with pytest.raises(ValueError, match="at least 2"):
            ButterflyTraffic(MacrochipLayout(rows=1, cols=1))


@pytest.mark.parametrize("name", pattern_names())
def test_every_pattern_rejects_single_site(name):
    """A 1-site layout has no other site to send to: every pattern
    rejects it at construction instead of failing inside a draw loop
    (uniform used to raise 'empty range for randrange()' mid-sweep)."""
    with pytest.raises(ValueError, match="at least 2 sites"):
        make_pattern(name, MacrochipLayout(rows=1, cols=1))


class TestNeighbor:
    def test_destination_is_grid_neighbor(self):
        pat = NeighborTraffic(LAYOUT, seed=3)
        for src in range(64):
            r, c = LAYOUT.coords(src)
            for _ in range(10):
                dst = pat.destination(src)
                dr, dc = LAYOUT.coords(dst)
                row_delta = min((r - dr) % 8, (dr - r) % 8)
                col_delta = min((c - dc) % 8, (dc - c) % 8)
                assert row_delta + col_delta == 1

    def test_all_four_neighbors_reachable(self):
        pat = NeighborTraffic(LAYOUT, seed=3)
        dests = {pat.destination(27) for _ in range(200)}
        assert len(dests) == 4


def test_make_pattern_factory():
    for name in pattern_names():
        assert make_pattern(name).name
    with pytest.raises(KeyError):
        make_pattern("bogus")


def test_sweep_ranges_match_paper_axes():
    """Figure 6's x-axes stop at different loads per pattern (uniform's
    last point sits just short of its full-load axis end)."""
    assert {name: grid[-1] for name, grid in LOAD_GRIDS.items()} == {
        "uniform": 0.95, "transpose": 0.06, "neighbor": 0.25,
        "butterfly": 0.06}


@given(st.integers(min_value=0, max_value=63))
def test_all_patterns_produce_valid_sites(src):
    for name in pattern_names():
        pat = make_pattern(name, LAYOUT, seed=1)
        dst = pat.destination(src)
        assert 0 <= dst < 64


# -- batched draws must consume the RNG streams exactly like unbatched --------
# The sweep harness prefetches per-site gap/destination draws in blocks;
# bit-identical load points require block-size-independent sequences.


@pytest.mark.parametrize("name", pattern_names())
@pytest.mark.parametrize("block", BATCH_SIZES)
def test_batched_destinations_match_unbatched(name, block):
    total = 1500
    for src in (0, 13, 63):
        seed = derive_seed(42, "dst", src)
        unbatched_pat = make_pattern(name, LAYOUT, seed=seed)
        batched_pat = make_pattern(name, LAYOUT, seed=seed)
        unbatched = [unbatched_pat.destination(src) for _ in range(total)]
        batched = []
        for take in _blocked(total, block):
            batched.extend(batched_pat.destinations(src, take))
        assert batched == unbatched


@given(st.integers(min_value=0, max_value=2 ** 63 - 1),
       st.integers(min_value=0, max_value=63),
       st.sampled_from(pattern_names()),
       st.sampled_from(BATCH_SIZES))
def test_batched_destinations_match_unbatched_any_seed(seed, src, name,
                                                       block):
    total = 200
    a = make_pattern(name, LAYOUT, seed=seed)
    b = make_pattern(name, LAYOUT, seed=seed)
    unbatched = [a.destination(src) for _ in range(total)]
    batched = []
    for take in _blocked(total, block):
        batched.extend(b.destinations(src, take))
    assert batched == unbatched


@pytest.mark.parametrize("block", BATCH_SIZES)
def test_batched_unit_gaps_match_expovariate(block):
    """The default hooks, drawn in blocks, reproduce the historical
    one-at-a-time ``max(1, int(rng.expovariate(1 / mean)))`` stream."""
    pat = UniformTraffic(LAYOUT)
    total = 1500
    for site in range(4):
        for mean_gap_ps in (3, 222, 12_800):
            seed = derive_seed(42, "gap", site)
            rng_a = random.Random(seed)
            unbatched = [max(1, int(rng_a.expovariate(1.0 / mean_gap_ps)))
                         for _ in range(total)]
            rng_b = random.Random(seed)
            units = []
            for take in _blocked(total, block):
                units.extend(pat.unit_gaps(rng_b, take))
            assert pat.scale_gaps(units, mean_gap_ps) == unbatched


@given(st.integers(min_value=0, max_value=2 ** 63 - 1),
       st.integers(min_value=1, max_value=10 ** 6),
       st.sampled_from(BATCH_SIZES))
def test_unit_gaps_property(seed, mean_gap_ps, block):
    pat = UniformTraffic(LAYOUT)
    total = 120
    rng_a = random.Random(seed)
    unbatched = [max(1, int(rng_a.expovariate(1.0 / mean_gap_ps)))
                 for _ in range(total)]
    rng_b = random.Random(seed)
    units = []
    for take in _blocked(total, block):
        units.extend(pat.unit_gaps(rng_b, take))
    batched = pat.scale_gaps(units, mean_gap_ps)
    assert batched == unbatched
    assert all(g >= 1 for g in batched)
