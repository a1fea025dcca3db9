"""Shared infrastructure for the application-kernel workload models.

The paper drives its CPU simulator with instruction traces of compiled
SPLASH-2 and PARSEC kernels.  We cannot run those binaries (see DESIGN.md
section 4), so each kernel here is a *deterministic address-stream
generator* tuned to the published characteristics that matter to the
network comparison: L2 miss rate, read/write mix, sharing degree, and the
spatial communication pattern.  The streams run through the real cache +
MOESI directory model, so all sharer/owner information in the resulting
traces comes from actual protocol state.

Address-space convention: the home site of a line is
``(line_number mod num_sites)`` (see :class:`repro.cpu.directory.Directory`),
so :func:`line_addr` lets kernels place data on chosen home sites:
private data on the core's own site, halo cells on grid neighbors, shared
structures striped across the machine.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from ...cpu.trace import MemoryRef
from ...macrochip.config import MacrochipConfig


#: lines per home-interleave page (must match Directory.PAGE_LINES)
PAGE_LINES = 64


def line_addr(home_site: int, block: int, num_sites: int,
              line_bytes: int = 64) -> int:
    """Byte address of the ``block``-th line homed at ``home_site``.

    Homes interleave at page (64-line) granularity, so consecutive blocks
    of the same home fill a page before skipping to that home's next
    page; the resulting addresses spread evenly over cache sets.
    """
    if home_site < 0 or home_site >= num_sites:
        raise ValueError("home site %d out of range" % home_site)
    if block < 0:
        raise ValueError("block must be non-negative")
    page, offset = divmod(block, PAGE_LINES)
    line_number = (page * num_sites + home_site) * PAGE_LINES + offset
    return line_number * line_bytes


class KernelBase:
    """Base class: names, sizing, and the per-core stream interface."""

    #: display name used in Figures 7-10
    name = "abstract"
    #: short description of what the real benchmark does
    description = ""
    #: per-core reference budget (scaled 'simlarge'-equivalent)
    refs_per_core = 2000
    #: deterministic base seed; per-core seeds derive from it
    seed = 42

    def __init__(self, refs_per_core: int = None, seed: int = None) -> None:
        if refs_per_core is not None:
            if refs_per_core < 1:
                raise ValueError("refs_per_core must be positive")
            self.refs_per_core = refs_per_core
        if seed is not None:
            self.seed = seed

    # -- WorkloadKernel protocol -------------------------------------------

    def core_streams(self, config: MacrochipConfig) -> List[Iterator[MemoryRef]]:
        return [self._stream(core, config)
                for core in range(config.num_cores)]

    # -- subclass hook -------------------------------------------------------

    def _stream(self, core: int, config: MacrochipConfig) -> Iterator[MemoryRef]:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------------

    def _rng(self, core: int) -> random.Random:
        return random.Random((self.seed << 20) ^ core)

    @staticmethod
    def _site_of(core: int, config: MacrochipConfig) -> int:
        return core // config.cores_per_site
