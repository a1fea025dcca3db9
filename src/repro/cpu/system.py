"""The macrochip CPU simulator.

Runs a workload kernel's per-core memory reference streams through each
site's shared L2 and the site-interleaved MOESI directory, interleaving
cores by virtual time, and emits the coherence trace that drives the
network simulator (paper section 5).

Timing here is deliberately coarse — instructions cost one cycle (the
Niagara-like in-order cores of section 3), L2 hits a few cycles, and
misses a nominal penalty that only affects stream interleaving.  Real
miss timing is applied later by the closed-loop network replay.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Protocol, Sequence

from .cache import SetAssociativeCache
from .coherence import CoherenceOp, OpKind
from .directory import Directory
from .trace import CoherenceTrace, CoreStream, MemoryRef
from ..macrochip.config import MacrochipConfig


class WorkloadKernel(Protocol):
    """What a workload must provide to the CPU simulator."""

    name: str

    def core_streams(self, config: MacrochipConfig) -> Sequence[CoreStream]:
        """One memory-reference iterator per core."""


#: nominal L2 miss penalty used only to interleave core streams
_NOMINAL_MISS_CYCLES = 100


class CpuSimulator:
    """Trace-driven multiprocessor core/cache simulator with MOESI."""

    def __init__(self, config: MacrochipConfig) -> None:
        self.config = config
        self.directory = Directory(config.num_sites,
                                   config.cache_line_bytes)
        self.caches = [
            SetAssociativeCache(config.l2_cache_kb * 1024,
                                config.cache_line_bytes)
            for _ in range(config.num_sites)
        ]

    def run(self, kernel: WorkloadKernel) -> CoherenceTrace:
        """Execute the kernel and return its coherence trace."""
        cfg = self.config
        streams = list(kernel.core_streams(cfg))
        if len(streams) != cfg.num_cores:
            raise ValueError(
                "kernel produced %d streams for %d cores"
                % (len(streams), cfg.num_cores))
        trace = CoherenceTrace(kernel.name, cfg.num_cores)
        # (virtual_time, core) heap interleaves the streams; virtual time
        # advances by instruction count plus nominal memory latencies.
        heap = []
        vtime = [0] * cfg.num_cores
        last_op_vtime = [0] * cfg.num_cores
        for core, stream in enumerate(streams):
            ref = next(stream, None)
            if ref is not None:
                heapq.heappush(heap, (ref.gap_instructions, core, ref))
        while heap:
            t, core, ref = heapq.heappop(heap)
            vtime[core] = t
            self._process(core, ref, trace, vtime, last_op_vtime)
            nxt = next(streams[core], None)
            if nxt is not None:
                heapq.heappush(
                    heap, (vtime[core] + nxt.gap_instructions, core, nxt))
        return trace

    # -- one reference ------------------------------------------------------

    def _process(self, core: int, ref: MemoryRef, trace: CoherenceTrace,
                 vtime: List[int], last_op_vtime: List[int]) -> None:
        cfg = self.config
        site = core // cfg.cores_per_site
        cache = self.caches[site]
        line = cache.line_address(ref.addr)
        trace.total_references += 1
        trace.total_instructions += 1 + ref.gap_instructions

        result = cache.reference(line, ref.write)
        if result is None:  # L2 hit
            # a write to an E/M line upgrades silently, with no network
            # traffic; to a Shared/Owned line, it upgrades with
            # invalidations
            if ref.write and not self.directory.upgrade_silently(line, site):
                outcome = self.directory.write(line, site)
                self._emit(trace, core, site, line, OpKind.UPGRADE,
                           owner=None, sharers=outcome.invalidated,
                           vtime=vtime, last_op_vtime=last_op_vtime)
                return
            vtime[core] += cfg.l2_hit_latency_cycles
            return

        # L2 miss
        trace.l2_misses += 1
        if result.evicted_line is not None:
            self._evict(trace, core, site, result.evicted_line,
                        dirty=result.writeback_line is not None,
                        vtime=vtime, last_op_vtime=last_op_vtime)
        if ref.write:
            outcome = self.directory.write(line, site)
            kind = OpKind.GET_M
            sharers = outcome.invalidated
        else:
            outcome = self.directory.read(line, site)
            kind = OpKind.GET_S
            sharers = ()
        owner = outcome.owner if outcome.owner != site else None
        self._emit(trace, core, site, line, kind, owner=owner,
                   sharers=sharers, vtime=vtime,
                   last_op_vtime=last_op_vtime)
        vtime[core] += _NOMINAL_MISS_CYCLES

    def _evict(self, trace: CoherenceTrace, core: int, site: int,
               victim_line: int, dirty: bool, vtime: List[int],
               last_op_vtime: List[int]) -> None:
        self.directory.evict(victim_line, site)
        if dirty:
            self._emit(trace, core, site, victim_line, OpKind.WRITEBACK,
                       owner=None, sharers=(), vtime=vtime,
                       last_op_vtime=last_op_vtime, gap_zero=True)

    def _emit(self, trace: CoherenceTrace, core: int, site: int, line: int,
              kind: OpKind, owner: Optional[int], sharers: Iterable[int],
              vtime: List[int], last_op_vtime: List[int],
              gap_zero: bool = False) -> None:
        gap = 0 if gap_zero else max(0, vtime[core] - last_op_vtime[core])
        last_op_vtime[core] = vtime[core]
        trace.ops_by_core[core].append(CoherenceOp(
            core=core,
            gap_cycles=gap,
            kind=kind,
            requester=site,
            home=self.directory.home_site(line),
            owner=owner,
            sharers=tuple(sharers),
            line=line,
        ))


def generate_trace(kernel: WorkloadKernel,
                   config: MacrochipConfig) -> CoherenceTrace:
    """Convenience one-shot: run ``kernel`` through a fresh CPU simulator."""
    return CpuSimulator(config).run(kernel)
