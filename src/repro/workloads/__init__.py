"""Workloads: synthetic traffic, coherence mixes, application kernels,
and the closed-loop trace replay."""

from .replay import ReplayResult, TraceReplayer
from .sharing import LESS_SHARING, MORE_SHARING, SharingMix, mix_by_name
from .synthetic import (
    ButterflyTraffic,
    NeighborTraffic,
    TrafficPattern,
    TransposeTraffic,
    UniformTraffic,
    make_pattern,
)

__all__ = [
    "TrafficPattern",
    "UniformTraffic",
    "TransposeTraffic",
    "ButterflyTraffic",
    "NeighborTraffic",
    "make_pattern",
    "SharingMix",
    "LESS_SHARING",
    "MORE_SHARING",
    "mix_by_name",
    "TraceReplayer",
    "ReplayResult",
]
