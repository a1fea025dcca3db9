"""Tests for unit conversions."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import units


def test_ns_conversion():
    assert units.ns(1.0) == 1000
    assert units.ns(0.4) == 400
    assert units.ns(12.8) == 12800


def test_us_conversion():
    assert units.us(1.0) == 1_000_000


def test_serialization_64B_at_wavelength_rate():
    # one wavelength: 2.5 GB/s -> 64 B takes 25.6 ns
    assert units.serialization_ps(64, 2.5) == 25600


def test_serialization_cache_line_p2p_channel():
    # the paper's 5 GB/s point-to-point channel: 64 B in 12.8 ns
    assert units.serialization_ps(64, 5.0) == 12800


def test_serialization_never_zero():
    assert units.serialization_ps(1, 1e9) == 1


def test_serialization_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        units.serialization_ps(64, 0.0)


def test_propagation_follows_paper_constant():
    # 0.1 ns/cm (section 2)
    assert units.propagation_ps(1.0) == 100
    assert units.propagation_ps(28.0) == 2800


def test_cycles_at_5ghz():
    assert units.cycles_to_ps(1, 5.0) == 200
    assert units.cycles_to_ps(80, 5.0) == 16000  # the token round trip


def test_cycles_rejects_nonpositive_clock():
    with pytest.raises(ValueError):
        units.cycles_to_ps(1, 0.0)


def test_db_factor_examples():
    assert units.db_to_factor(0.0) == pytest.approx(1.0)
    assert units.db_to_factor(10.0) == pytest.approx(10.0)
    # token ring: 12.8 dB ring-pass loss -> ~19x (Table 5)
    assert units.db_to_factor(12.8) == pytest.approx(19.05, abs=0.01)


def test_factor_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        units.factor_to_db(0.0)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_db_factor_roundtrip(db):
    assert units.factor_to_db(units.db_to_factor(db)) == pytest.approx(
        db, abs=1e-9)


@given(st.integers(min_value=1, max_value=10**6),
       st.floats(min_value=0.1, max_value=1000.0))
def test_serialization_scales_linearly(size, bw):
    one = units.serialization_ps(size, bw)
    two = units.serialization_ps(2 * size, bw)
    assert abs(two - 2 * one) <= 1  # rounding tolerance


@given(st.floats(min_value=0.0, max_value=1000.0))
def test_propagation_monotonic(cm):
    assert units.propagation_ps(cm) <= units.propagation_ps(cm + 1.0)
