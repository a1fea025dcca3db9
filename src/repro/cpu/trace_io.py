"""Coherence-trace text: the JSON form that pins a CPU-simulator trace.

:func:`dump_trace` writes a trace as a compact JSON document (one array
per core, each op a fixed-shape list) — portable, diffable, and
dependency-free.  ``tests/test_kernel_trace_pins.py`` pins the digest of
this text for every application kernel, so any change to the caches,
the directory or a kernel's address stream shows up as a pin mismatch.
"""

from __future__ import annotations

import json
from typing import IO

from .coherence import CoherenceOp, OpKind
from .trace import CoherenceTrace

_FORMAT_VERSION = 1

_KIND_CODES = {kind: kind.value for kind in OpKind}


def _op_to_row(op: CoherenceOp) -> list:
    return [op.gap_cycles, _KIND_CODES[op.kind], op.requester, op.home,
            -1 if op.owner is None else op.owner, list(op.sharers), op.line]


def dump_trace(trace: CoherenceTrace, fp: IO[str]) -> None:
    """Write a trace to an open text file."""
    doc = {
        "version": _FORMAT_VERSION,
        "workload": trace.workload,
        "num_cores": trace.num_cores,
        "total_references": trace.total_references,
        "total_instructions": trace.total_instructions,
        "l2_misses": trace.l2_misses,
        "ops": [[_op_to_row(op) for op in ops]
                for ops in trace.ops_by_core],
    }
    json.dump(doc, fp)
