"""Shared fixtures for the test suite.

Most tests run on a 4x4 macrochip (16 sites) — every mechanism in the
networks and the coherence stack is exercised identically at that scale,
at a fraction of the simulation cost of the paper's 8x8 configuration.
Tests that check paper-exact numbers (Tables 5/6, link budgets) use the
full scaled configuration explicitly.

Also provides the shared harness for the invariant-checking tests
(`tests/test_invariants.py`, `tests/test_engine.py`): seeded random
traffic generation and a one-call "build network, attach invariant
monitor, inject, drain" runner that works uniformly across all network
architectures.

And the one-draw-per-packet reference injection schedule that the
sweep harness's banked draws are tested against.
"""

import random
from typing import List, Optional, Tuple

import pytest

from repro.core.engine import Simulator
from repro.core.invariants import InvariantMonitor
from repro.core.parallel import derive_seed
from repro.macrochip.config import MacrochipConfig, scaled_config, small_test_config
from repro.networks.base import Packet
from repro.networks.factory import build_network

#: (delay_ps, src, dst, size_bytes) injection plan entry
Traffic = List[Tuple[int, int, int, int]]


def random_traffic(seed: int, num_sites: int, n_packets: int = 120,
                   max_delay_ps: int = 40_000,
                   sizes: Tuple[int, ...] = (8, 64, 72)) -> Traffic:
    """A seeded random injection plan: arbitrary times, sources and
    destinations (self-traffic included — it must ride the loopback)."""
    rng = random.Random(seed)
    return [(rng.randrange(max_delay_ps), rng.randrange(num_sites),
             rng.randrange(num_sites), rng.choice(sizes))
            for _ in range(n_packets)]


def reference_gap(rng: random.Random, mean_gap_ps: int) -> int:
    """One inter-arrival gap drawn the historical per-packet way,
    ``max(1, int(rng.expovariate(1 / mean)))``: written out here,
    independent of the patterns' ``unit_gaps``/``scale_gaps`` hooks."""
    return max(1, int(rng.expovariate(1.0 / mean_gap_ps)))


def reference_schedules(bank, mean_gap_ps: int, packets_per_site: int):
    """Per-site (gaps, destinations) drawn one packet at a time.

    The reference for ``repro.core.sweep._draw_schedules``, with the
    same signature so it can stand in for it inside ``run_load_point``:
    one :func:`reference_gap` and one ``destination(site)`` call per
    packet, on the ``derive_seed`` streams of the bank's (pattern,
    seed, sites).  It reads only those three fields off the bank.
    """
    pattern, seed = bank.pattern, bank.seed
    site_gaps = []
    site_dsts = []
    for site in range(bank.num_sites):
        rng = random.Random(derive_seed(seed, "gap", site))
        pat = pattern.split(derive_seed(seed, "dst", site))
        site_gaps.append([reference_gap(rng, mean_gap_ps)
                          for _ in range(packets_per_site)])
        site_dsts.append([pat.destination(site)
                          for _ in range(packets_per_site)])
    return site_gaps, site_dsts


def run_traced(network_key: str, config: MacrochipConfig, traffic: Traffic,
               network_kwargs: Optional[dict] = None,
               network_cls=None):
    """Build a network with an attached :class:`InvariantMonitor`, inject
    ``traffic``, run to full drain, and return ``(net, monitor, packets)``.

    ``network_cls`` overrides the factory lookup — the mutation smoke
    tests pass deliberately broken subclasses through the same harness.
    """
    sim = Simulator()
    if network_cls is not None:
        net = network_cls(config, sim, **(network_kwargs or {}))
    else:
        net = build_network(network_key, config, sim,
                            **(network_kwargs or {}))
    monitor = InvariantMonitor(net)
    packets = []
    for delay, src, dst, size in traffic:
        p = Packet(src, dst, size)
        packets.append(p)
        sim.at(delay, net.inject, p)
    sim.run()
    return net, monitor, packets


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def small_config() -> MacrochipConfig:
    return small_test_config(4, 4)


@pytest.fixture
def paper_config() -> MacrochipConfig:
    return scaled_config()
