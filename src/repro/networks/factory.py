"""Construction of the networks by name.

The evaluation compares the five architectures in six configurations
(the two-phase network is evaluated in base and ALT forms).  The table
lists every key the factory builds, as used throughout the experiments
and benchmarks:

==========================  ==========================================
key                         architecture
==========================  ==========================================
``point_to_point``          static WDM point-to-point (section 4.2)
``limited_point_to_point``  limited P2P + electronic routing (4.6)
``two_phase``               two-phase arbitrated network (4.3)
``two_phase_alt``           ALT variant with doubled switch trees
``token_ring``              token-ring crossbar, Corona adaptation (4.4)
``circuit_switched``        circuit-switched torus adaptation (4.5)
==========================  ==========================================
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from .base import InterSiteNetwork
from .circuit_switched import CircuitSwitchedTorus
from .limited_point_to_point import LimitedPointToPointNetwork
from .point_to_point import PointToPointNetwork
from .token_ring import TokenRingCrossbar
from .two_phase import TwoPhaseAltNetwork, TwoPhaseArbitratedNetwork
from ..core.engine import Simulator
from ..macrochip.config import MacrochipConfig


NETWORK_CLASSES: Dict[str, Callable[..., InterSiteNetwork]] = {
    "point_to_point": PointToPointNetwork,
    "limited_point_to_point": LimitedPointToPointNetwork,
    "two_phase": TwoPhaseArbitratedNetwork,
    "two_phase_alt": TwoPhaseAltNetwork,
    "token_ring": TokenRingCrossbar,
    "circuit_switched": CircuitSwitchedTorus,
}

#: the five architectures of Figure 6 (ALT excluded, as in the paper)
FIGURE6_NETWORKS: List[str] = [
    "token_ring",
    "circuit_switched",
    "point_to_point",
    "limited_point_to_point",
    "two_phase",
]

#: the six configurations of Figures 7, 8, and 10
FIGURE7_NETWORKS: List[str] = [
    "token_ring",
    "circuit_switched",
    "point_to_point",
    "limited_point_to_point",
    "two_phase",
    "two_phase_alt",
]


def available_networks() -> List[str]:
    return sorted(NETWORK_CLASSES)


def check_network_keys(names: Iterable[str]) -> None:
    """Raise ``ValueError`` naming every unknown key in ``names`` and
    listing the valid ones."""
    unknown = [n for n in names if n not in NETWORK_CLASSES]
    if unknown:
        raise ValueError("unknown network(s) %s; choose from %s"
                         % (", ".join(map(repr, unknown)),
                            ", ".join(available_networks())))


def build_network(name: str, config: MacrochipConfig, sim: Simulator,
                  warmup_ps: int = 0, **kwargs) -> InterSiteNetwork:
    """Instantiate a network by key; raises ``KeyError`` with the list of
    valid keys on a typo."""
    try:
        cls = NETWORK_CLASSES[name]
    except KeyError:
        raise KeyError(
            "unknown network %r; choose one of %s"
            % (name, ", ".join(available_networks()))
        ) from None
    return cls(config, sim, warmup_ps=warmup_ps, **kwargs)
