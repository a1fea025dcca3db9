"""Tests for the calibration ablations."""

from repro.experiments.extensions import (
    circuit_engine_ablation,
    conversion_overhead_ablation,
    two_phase_reconfig_ablation,
)
from repro.macrochip.config import scaled_config


def test_two_phase_reconfig_ablation_is_monotone():
    """Slower switch retuning must not increase sustained bandwidth."""
    points = two_phase_reconfig_ablation(
        scaled_config(), reconfig_ns=[1.0, 30.0], window_ns=150.0)
    assert points[0][1] >= points[1][1]
    # the calibrated 30 ns retuning is what pins saturation near the
    # paper's 7.5%; near-zero retuning lets the network run much hotter
    assert points[0][1] > 2 * points[1][1]


def test_conversion_overhead_ablation_raises_latency():
    points = conversion_overhead_ablation(
        scaled_config(), overhead_cycles=[0, 60, 120], window_ns=150.0)
    assert points[1][1] > points[0][1]
    assert points[2][1] > points[0][1]


def test_circuit_engine_ablation_improves_with_engines():
    points = circuit_engine_ablation(
        scaled_config(), engines=[1, 8], window_ns=150.0)
    assert points[1][1] > points[0][1]
