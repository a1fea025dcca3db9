"""repro: reproduction of "Silicon-Photonic Network Architectures for
Scalable, Power-Efficient Multi-Chip Systems" (Koka et al., ISCA 2010).

A discrete-event simulator of the 64-site, 512-core "macrochip" and its
five candidate silicon-photonic inter-site networks, plus the photonic
technology models, MOESI cache-coherence substrate, workloads, and the
analysis code that regenerates every table and figure of the paper's
evaluation.

Quickstart::

    from repro import scaled_config
    from repro.core.sweep import run_load_point
    from repro.workloads.synthetic import UniformTraffic

    cfg = scaled_config()
    result = run_load_point("point_to_point", cfg,
                            UniformTraffic(cfg.layout, seed=1),
                            offered_fraction=0.10, window_ns=200.0)
    print(result.mean_latency_ns, result.throughput_gb_per_s)
"""

from .core.engine import Simulator
from .macrochip.config import MacrochipConfig, full_2015_config, scaled_config
from .networks.factory import available_networks, build_network

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "MacrochipConfig",
    "scaled_config",
    "full_2015_config",
    "build_network",
    "available_networks",
    "__version__",
]
