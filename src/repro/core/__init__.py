"""Core simulation infrastructure: event engine, units, statistics,
structured tracing, and invariant checking."""

from .engine import SimulationError, Simulator
from .invariants import InvariantMonitor, InvariantViolation, Violation, check_trace
from .stats import EnergyAccount, LatencySample, NetworkStats, ThroughputMeter
from .sweep import LoadPointResult, SweepPoint, run_load_point
from .tracing import TraceEvent, TraceRecorder

__all__ = [
    "Simulator",
    "SimulationError",
    "NetworkStats",
    "LatencySample",
    "ThroughputMeter",
    "EnergyAccount",
    "run_load_point",
    "LoadPointResult",
    "SweepPoint",
    "TraceEvent",
    "TraceRecorder",
    "InvariantMonitor",
    "InvariantViolation",
    "Violation",
    "check_trace",
]
