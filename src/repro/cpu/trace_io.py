"""Coherence-trace serialization.

CPU simulation is the expensive stage of the pipeline (it runs the full
address streams through the caches and directory), while replays are
cheap and repeated — once per network, plus ablations.  Saving traces to
disk lets a cached suite run CPU-simulate each workload once and share
the trace across processes and sessions, the same split the paper's
two-simulator methodology implies.

The format is a compact JSON document (one array per core, each op a
fixed-shape list) — portable, diffable, and dependency-free.
"""

from __future__ import annotations

import json
from typing import IO, List, Union

from .coherence import CoherenceOp, OpKind
from .trace import CoherenceTrace

_FORMAT_VERSION = 1

_KIND_CODES = {kind: kind.value for kind in OpKind}
_CODE_KINDS = {kind.value: kind for kind in OpKind}


def _op_to_row(op: CoherenceOp) -> list:
    return [op.gap_cycles, _KIND_CODES[op.kind], op.requester, op.home,
            -1 if op.owner is None else op.owner, list(op.sharers), op.line]


def _row_to_op(core: int, row: list) -> CoherenceOp:
    gap, kind_code, requester, home, owner, sharers, line = row
    return CoherenceOp(
        core=core, gap_cycles=gap, kind=_CODE_KINDS[kind_code],
        requester=requester, home=home,
        owner=None if owner == -1 else owner,
        sharers=tuple(sharers), line=line)


def dump_trace(trace: CoherenceTrace, fp: Union[str, IO[str]]) -> None:
    """Write a trace to a path or open text file."""
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
    if isinstance(fp, str):
        with open(fp, "w") as fh:
            json.dump(doc, fh)
    else:
        json.dump(doc, fp)


def load_trace(fp: Union[str, IO[str]]) -> CoherenceTrace:
    """Read a trace written by :func:`dump_trace`."""
    if isinstance(fp, str):
        with open(fp) as fh:
            doc = json.load(fh)
    else:
        doc = json.load(fp)
    version = doc.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError("unsupported trace format version %r" % version)
    trace = CoherenceTrace(doc["workload"], doc["num_cores"])
    if len(doc["ops"]) != doc["num_cores"]:
        raise ValueError("trace is corrupt: %d op lists for %d cores"
                         % (len(doc["ops"]), doc["num_cores"]))
    trace.total_references = doc["total_references"]
    trace.total_instructions = doc["total_instructions"]
    trace.l2_misses = doc["l2_misses"]
    trace.ops_by_core = [
        [_row_to_op(core, row) for row in rows]
        for core, rows in enumerate(doc["ops"])
    ]
    return trace
