"""Golden pins for every application kernel's coherence trace.

Each kernel runs through the CPU simulator (shared L2s and the MOESI
directory) on the Table 4 configuration, and the sha256 of the trace's
serialized JSON must match its pin.  The pin covers every op field: kind,
gap, requester, home, owner, line, and the sharers in the order the
directory reports them, which is the order of the replay's invalidation
messages.  LU's trace alone has 69 writes that invalidate more than one
sharer (up to 21), so a change of sharer order moves its pin.

The 256 KB L2 never fills a set at this size, so every trace above has
no writeback.  The second table reruns each kernel on a 16 KB L2, where
7 of the 8 kernels evict dirty lines: it pins the eviction path of the
caches and the directory (the victim's LRU choice, its dirtiness and
the directory's evict transition), and its writeback counts are
asserted too.

Regenerate a pin only when a model change is meant to move the traces.
"""

import dataclasses
import hashlib
import io

import pytest

from repro.cpu.coherence import OpKind
from repro.cpu.system import generate_trace
from repro.cpu.trace_io import dump_trace
from repro.macrochip.config import scaled_config
from repro.workloads.kernels import EXTENSION_KERNELS, FIGURE7_KERNELS

REFS_PER_CORE = 40

#: kernel class name -> first 16 hex digits of sha256(dump_trace JSON)
TRACE_PINS = {
    "RadixKernel": "f44810999b5358ca",
    "BarnesKernel": "f20429af3e2bbea5",
    "BlackscholesKernel": "949424dc6bc2c657",
    "FluidanimateDensitiesKernel": "8cb2db8107c0cd9a",
    "FluidanimateForcesKernel": "27e2db60c652d6c8",
    "SwaptionsKernel": "dd1eaf323fb21b62",
    "FftKernel": "4a7fb3775ab131e0",
    "LuKernel": "8d1d8b71fd81b719",
}

#: kernel class name -> (sha256 pin, writeback ops) on a 16 KB L2
SMALL_L2_KB = 16
SMALL_L2_PINS = {
    "RadixKernel": ("3dc86b076807288c", 86),
    "BarnesKernel": ("b5861b5b28d585be", 267),
    "BlackscholesKernel": ("949424dc6bc2c657", 0),
    "FluidanimateDensitiesKernel": ("e1d391da7133b318", 1238),
    "FluidanimateForcesKernel": ("d6fcb05ca97226df", 1740),
    "SwaptionsKernel": ("140ce3d0a3056116", 432),
    "FftKernel": ("d9f66bc2fecf1f58", 1648),
    "LuKernel": ("603a56e1e0cb35a0", 991),
}

KERNELS = FIGURE7_KERNELS + EXTENSION_KERNELS


def _digest(trace):
    buf = io.StringIO()
    dump_trace(trace, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]


def test_every_kernel_is_pinned():
    assert sorted(k.__name__ for k in KERNELS) == sorted(TRACE_PINS)
    assert sorted(k.__name__ for k in KERNELS) == sorted(SMALL_L2_PINS)


@pytest.mark.parametrize("kernel_cls", KERNELS, ids=lambda k: k.__name__)
def test_kernel_trace_matches_pin(kernel_cls):
    trace = generate_trace(kernel_cls(refs_per_core=REFS_PER_CORE),
                           scaled_config())
    assert _digest(trace) == TRACE_PINS[kernel_cls.__name__]


@pytest.mark.parametrize("kernel_cls", KERNELS, ids=lambda k: k.__name__)
def test_kernel_trace_on_small_l2_matches_pin(kernel_cls):
    config = dataclasses.replace(scaled_config(), l2_cache_kb=SMALL_L2_KB)
    trace = generate_trace(kernel_cls(refs_per_core=REFS_PER_CORE), config)
    writebacks = sum(op.kind is OpKind.WRITEBACK
                     for ops in trace.ops_by_core for op in ops)
    assert (_digest(trace), writebacks) == SMALL_L2_PINS[kernel_cls.__name__]
