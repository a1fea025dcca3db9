"""Structured event tracing for network simulations.

Every network model emits a stream of :class:`TraceEvent` records through
an optional :class:`TraceRecorder` — packet lifecycle events (inject,
enqueue, tx-start, tx-end, deliver) plus resource-grant events for the
arbitrated resources (two-phase slots and switch trees, token-ring
tokens, circuit engines and receiver ports).  The trace is the substrate
for :mod:`repro.core.invariants`, which checks the physical contract all
five architectures must share for the paper's comparison to mean
anything.

Design constraints:

* **Zero cost when disabled.**  Networks hold ``tracer = None`` by
  default and guard every emission with ``if tracer is not None`` — an
  attribute test, no call, no allocation.  The acceptance bar is < 3%
  regression on the untraced load points of perfbench's ``fig6_python``
  workload.
* **Deterministic.**  Records are plain tuples of ints and interned
  strings; two identical runs produce identical streams.  Because packet
  ids come from a process-global counter, :meth:`TraceRecorder.
  canonical_lines` renumbers pids by first appearance so traces from
  separate runs in one process are byte-comparable.
* **Decision-time emission.**  A record is emitted when the model
  *decides* an occupancy, with the modeled interval in ``start_ps`` /
  ``end_ps`` (e.g. a slot reservation is recorded at request time, for a
  slot in the future).  ``time_ps`` is the modeled event time; per-packet
  streams are causally ordered, the global stream is ordered by ``seq``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

# -- event types --------------------------------------------------------------

#: packet accepted by the network at the current simulation time
INJECT = "inject"
#: packet queued on a resource (channel FIFO, engine queue, token queue)
ENQUEUE = "enqueue"
#: first bit starts serializing onto a channel
TX_START = "tx_start"
#: last bit has left the transmitter (arrival end, if known, in end_ps)
TX_END = "tx_end"
#: packet handed to the sink
DELIVER = "deliver"
#: exclusive resource granted for [start_ps, end_ps); end_ps == -1 means
#: the hold is open-ended and closed by a later RELEASE
GRANT = "grant"
#: open-ended GRANT on the same resource is released
RELEASE = "release"
#: a granted resource interval went unused (e.g. a wasted two-phase slot)
WASTE = "waste"

PACKET_LIFECYCLE = (INJECT, ENQUEUE, TX_START, TX_END, DELIVER)


class TraceEvent(NamedTuple):
    """One structured trace record.

    Unused integer fields are ``-1``; unused strings are ``""``.
    ``start_ps``/``end_ps`` carry the modeled occupancy interval for
    TX/GRANT/WASTE records (``end_ps`` of TX_START is the serialization
    end; of TX_END the far-end arrival).
    """

    seq: int
    time_ps: int
    etype: str
    pid: int = -1
    src: int = -1
    dst: int = -1
    size_bytes: int = -1
    resource: str = ""
    start_ps: int = -1
    end_ps: int = -1

    def to_line(self) -> str:
        """Stable tab-separated serialization (one record per line)."""
        return "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%s\t%d\t%d" % self


class TraceRecorder:
    """Append-only sink for :class:`TraceEvent` records."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, time_ps: int, etype: str, pid: int = -1, src: int = -1,
             dst: int = -1, size_bytes: int = -1, resource: str = "",
             start_ps: int = -1, end_ps: int = -1) -> None:
        self.events.append(TraceEvent(
            len(self.events), time_ps, etype, pid, src, dst, size_bytes,
            resource, start_ps, end_ps))

    def __len__(self) -> int:
        return len(self.events)

    def by_type(self, etype: str) -> List[TraceEvent]:
        return [e for e in self.events if e.etype == etype]

    def resources(self) -> List[str]:
        return sorted({e.resource for e in self.events if e.resource})

    def to_lines(self) -> List[str]:
        return [e.to_line() for e in self.events]

    def canonical_lines(self) -> List[str]:
        """Serialized records with pids renumbered by first appearance.

        Packet ids come from a process-global counter, so two otherwise
        identical runs in one process disagree on raw pids; canonical
        renumbering restores byte-identity (the determinism contract
        ``tests/test_engine.py`` pins).
        """
        remap: Dict[int, int] = {}
        out = []
        for e in self.events:
            if e.pid >= 0:
                pid = remap.setdefault(e.pid, len(remap))
                e = e._replace(pid=pid)
            out.append(e.to_line())
        return out


def attach(network, recorder: Optional[TraceRecorder] = None) -> TraceRecorder:
    """Attach a (new, unless given) recorder to a network; returns it."""
    rec = recorder if recorder is not None else TraceRecorder()
    network.set_tracer(rec)
    return rec
