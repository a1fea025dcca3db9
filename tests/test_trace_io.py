"""Tests for the coherence-trace text that ``test_kernel_trace_pins``
pins."""

import io
import json

from repro.cpu.coherence import CoherenceOp, OpKind
from repro.cpu.trace import CoherenceTrace
from repro.cpu.trace_io import dump_trace


def sample_trace():
    trace = CoherenceTrace("sample", 4)
    trace.ops_by_core[0] = [
        CoherenceOp(core=0, gap_cycles=5, kind=OpKind.GET_S, requester=0,
                    home=1, owner=2, line=64),
        CoherenceOp(core=0, gap_cycles=9, kind=OpKind.GET_M, requester=0,
                    home=3, sharers=(1, 2), line=128),
    ]
    trace.ops_by_core[3] = [
        CoherenceOp(core=3, gap_cycles=0, kind=OpKind.WRITEBACK,
                    requester=1, home=2, line=192),
    ]
    trace.total_references = 10
    trace.total_instructions = 100
    trace.l2_misses = 3
    return trace


def test_dump_trace_document():
    """One fixed-shape row per op, one list per core; a missing owner is
    written as -1."""
    buf = io.StringIO()
    dump_trace(sample_trace(), buf)
    doc = json.loads(buf.getvalue())
    assert doc["version"] == 1
    assert (doc["workload"], doc["num_cores"]) == ("sample", 4)
    assert (doc["total_references"], doc["total_instructions"],
            doc["l2_misses"]) == (10, 100, 3)
    assert doc["ops"] == [
        [[5, OpKind.GET_S.value, 0, 1, 2, [], 64],
         [9, OpKind.GET_M.value, 0, 3, -1, [1, 2], 128]],
        [],
        [],
        [[0, OpKind.WRITEBACK.value, 1, 2, -1, [], 192]],
    ]
