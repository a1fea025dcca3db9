"""Golden pins for every application kernel's coherence trace.

Each kernel runs through the CPU simulator (shared L2s and the MOESI
directory) on the Table 4 configuration, and the sha256 of the trace's
serialized JSON must match its pin.  The pin covers every op field: kind,
gap, requester, home, owner, line, and the sharers in the order the
directory reports them, which is the order of the replay's invalidation
messages.  LU's trace alone has 69 writes that invalidate more than one
sharer (up to 21), so a change of sharer order moves its pin.

Regenerate a pin only when a model change is meant to move the traces.
"""

import hashlib
import io

import pytest

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

KERNELS = FIGURE7_KERNELS + EXTENSION_KERNELS


def test_every_kernel_is_pinned():
    assert sorted(k.__name__ for k in KERNELS) == sorted(TRACE_PINS)


@pytest.mark.parametrize("kernel_cls", KERNELS, ids=lambda k: k.__name__)
def test_kernel_trace_matches_pin(kernel_cls):
    trace = generate_trace(kernel_cls(refs_per_core=REFS_PER_CORE),
                           scaled_config())
    buf = io.StringIO()
    dump_trace(trace, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]
    assert digest == TRACE_PINS[kernel_cls.__name__]
