"""Tests for the synthetic traffic patterns (Table 3)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.parallel import derive_seed
from repro.photonics.layout import MacrochipLayout
from repro.workloads.synthetic import (
    AdversarialTraffic,
    BurstyTraffic,
    ButterflyTraffic,
    HotspotTraffic,
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


def _gaps(pat, rng, mean_gap_ps, count):
    """``count`` gaps at ``mean_gap_ps`` through the pattern's two hooks."""
    return pat.scale_gaps(pat.unit_gaps(rng, count), mean_gap_ps)


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
    assert UniformTraffic.sweep_max_fraction == 1.0
    assert TransposeTraffic.sweep_max_fraction == 0.06
    assert NeighborTraffic.sweep_max_fraction == 0.25
    assert ButterflyTraffic.sweep_max_fraction == 0.06


# -- heavy-traffic patterns (PR 8) -------------------------------------------


class TestBursty:
    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            BurstyTraffic(LAYOUT, burstiness=0.5)
        with pytest.raises(ValueError):
            BurstyTraffic(LAYOUT, burst_length=0)

    def test_unit_gaps_deterministic_under_reseed(self):
        pat = BurstyTraffic(LAYOUT, seed=9)
        a = _gaps(pat, random.Random(5), 1000, 200)
        b = _gaps(pat, random.Random(5), 1000, 200)
        assert a == b and all(g >= 1 for g in a)

    def test_split_streams_depend_only_on_seed(self):
        """A split clone's gaps are a pure function of its seed — not of
        how much the parent (or a sibling) has drawn."""
        parent = BurstyTraffic(LAYOUT, seed=1)
        fresh = _gaps(parent.split(77), random.Random(77), 500, 50)
        _gaps(parent, random.Random(3), 500, 500)  # unrelated draws
        again = _gaps(parent.split(77), random.Random(77), 500, 50)
        assert fresh == again

    @pytest.mark.parametrize("block", BATCH_SIZES)
    def test_unit_gaps_block_size_independent(self, block):
        """The renewal process is memoryless across draws, so blocked
        and one-at-a-time draws consume the RNG identically — the
        property the sweep's draw bank relies on when it extends a
        stream in uneven chunks."""
        total = 1500
        pat = BurstyTraffic(LAYOUT, seed=0)
        rng_a = random.Random(11)
        unbatched = []
        for _ in range(total):
            unbatched.extend(pat.unit_gaps(rng_a, 1))
        rng_b = random.Random(11)
        batched = []
        for take in _blocked(total, block):
            batched.extend(pat.unit_gaps(rng_b, take))
        assert batched == unbatched
        assert pat.scale_gaps(batched, 800) == pat.scale_gaps(unbatched, 800)

    def test_long_run_mean_matches_offered_load(self):
        """The ON/OFF means are balanced so the long-run mean gap is the
        offered one: same average load as Poisson, delivered in clumps."""
        pat = BurstyTraffic(LAYOUT, seed=0)
        mean_gap = 10_000
        gaps = _gaps(pat, random.Random(123), mean_gap, 200_000)
        observed = sum(gaps) / len(gaps)
        assert observed == pytest.approx(mean_gap, rel=0.05)

    def test_is_actually_burstier_than_poisson(self):
        """Squared coefficient of variation well above the exponential's
        1.0 — the clumping the pattern exists to produce."""
        pat = BurstyTraffic(LAYOUT, seed=0)
        gaps = _gaps(pat, random.Random(123), 10_000, 100_000)
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert var / mean ** 2 > 2.0

    def test_draw_signature_carries_the_knobs(self):
        assert (BurstyTraffic(LAYOUT, burstiness=8.0).draw_signature()
                != BurstyTraffic(LAYOUT, burstiness=4.0).draw_signature())


class TestHotspot:
    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            HotspotTraffic(LAYOUT, hotspot_fraction=1.5)
        with pytest.raises(ValueError):
            HotspotTraffic(LAYOUT, hotspots=[64])  # off the 8x8 die

    def test_never_self(self):
        pat = HotspotTraffic(LAYOUT, seed=7, hotspot_fraction=0.9)
        for src in range(64):
            for _ in range(30):
                assert pat.destination(src) != src

    def test_concentration_matches_configured_fraction(self):
        """The hot site receives ~(fraction + uniform residue) of the
        traffic from a non-hot source, within sampling tolerance."""
        fraction = 0.2
        pat = HotspotTraffic(LAYOUT, seed=3, hotspot_fraction=fraction)
        n = 40_000
        hits = sum(1 for _ in range(n) if pat.destination(13) == 0)
        expected = fraction + (1 - fraction) / 63  # uniform leg can hit 0 too
        assert hits / n == pytest.approx(expected, rel=0.08)

    def test_zero_fraction_degenerates_to_uniform_rate(self):
        pat = HotspotTraffic(LAYOUT, seed=3, hotspot_fraction=0.0)
        n = 40_000
        hits = sum(1 for _ in range(n) if pat.destination(13) == 0)
        assert hits / n == pytest.approx(1 / 63, rel=0.15)

    def test_multiple_hotspots_share_the_hot_traffic(self):
        pat = HotspotTraffic(LAYOUT, seed=3, hotspot_fraction=0.5,
                             hotspots=[0, 63])
        n = 20_000
        dests = [pat.destination(13) for _ in range(n)]
        hot0 = dests.count(0) / n
        hot63 = dests.count(63) / n
        assert hot0 == pytest.approx(hot63, rel=0.15)
        # the uniform leg can land on either hot site too
        assert hot0 + hot63 == pytest.approx(0.5 + 2 * 0.5 / 63, rel=0.10)

    def test_draw_signature_separates_configurations(self):
        a = HotspotTraffic(LAYOUT, hotspot_fraction=0.2)
        b = HotspotTraffic(LAYOUT, hotspot_fraction=0.8)
        c = HotspotTraffic(LAYOUT, hotspot_fraction=0.2, hotspots=[5])
        assert len({a.draw_signature(), b.draw_signature(),
                    c.draw_signature()}) == 3


class TestAdversarial:
    def test_is_torus_antipode(self):
        pat = AdversarialTraffic(LAYOUT)
        for src in range(64):
            dst = pat.destination(src)
            assert dst != src
            # maximal torus distance: rows//2 + cols//2 hops
            assert LAYOUT.torus_hop_counts(src, dst) == (4, 4)

    def test_is_involution(self):
        pat = AdversarialTraffic(LAYOUT)
        for src in range(64):
            assert pat.destination(pat.destination(src)) == src

    def test_each_destination_has_one_sender(self):
        pat = AdversarialTraffic(LAYOUT)
        dests = [pat.destination(s) for s in range(64)]
        assert len(set(dests)) == 64

    def test_consumes_no_rng(self):
        pat = AdversarialTraffic(LAYOUT, seed=5)
        state = pat.rng.getstate()
        pat.destinations(7, 100)
        assert pat.rng.getstate() == state


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
