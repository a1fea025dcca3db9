"""MOESI coherence protocol definitions.

The macrochip runs a directory-based MOESI protocol at site granularity
(the site's shared L2 is the coherence unit; Table 4).  This module
defines the stable states, the coherence operation records the CPU
simulator emits, and the *message plan* — the set of network messages a
coherence operation requires — that the closed-loop replay executes
against each network (section 5: "The network model simulates all
necessary network messages required by the coherence protocol to satisfy
a coherence request").

Message sizes follow the configuration: control messages are 8 B,
data messages are a 64 B line plus an 8 B header.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple


class LineState(enum.Enum):
    """Stable MOESI states of a line in a site's L2."""

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


#: states that hold the only up-to-date copy (must supply data on a fetch)
OWNER_STATES = (LineState.MODIFIED, LineState.OWNED, LineState.EXCLUSIVE)
#: states granting write permission without a directory round-trip
WRITABLE_STATES = (LineState.MODIFIED, LineState.EXCLUSIVE)


class OpKind(enum.Enum):
    """Coherence request classes the CPU simulator emits."""

    GET_S = "GetS"  # read miss
    GET_M = "GetM"  # write miss
    UPGRADE = "Upg"  # write hit on a Shared line (needs invalidations)
    WRITEBACK = "WB"  # dirty eviction (fire-and-forget)


@dataclass(frozen=True, slots=True)
class CoherenceOp:
    """One coherence operation as seen by the network replay.

    ``gap_cycles`` is the core's compute time since its previous
    operation; ``owner`` is the remote site holding the only valid copy
    (None when memory at the home supplies data); ``sharers`` are the
    remote sites whose copies a GetM/Upgrade invalidates.
    """

    core: int
    gap_cycles: int
    kind: OpKind
    requester: int  # site
    home: int  # site owning the directory/memory for the line
    owner: Optional[int] = None
    sharers: Tuple[int, ...] = ()
    line: int = 0

    def __post_init__(self) -> None:
        if self.kind is OpKind.GET_S and self.sharers:
            raise ValueError("GetS does not invalidate sharers")
        if self.owner is not None and self.owner == self.requester:
            raise ValueError("requester cannot be its own remote owner")

    def __reduce__(self):
        """Pickle as a constructor call on the 8 fields: smaller and
        faster than the slotted dataclass's state dict, and a shipped op
        passes ``__post_init__``'s checks again when it is loaded."""
        return (CoherenceOp, (self.core, self.gap_cycles, self.kind,
                              self.requester, self.home, self.owner,
                              self.sharers, self.line))


@dataclass(frozen=True)
class MessageStep:
    """One network message within an operation's plan.

    ``depends_on`` indexes an earlier step in the same plan that must be
    delivered first; ``extra_delay_cycles`` models fixed processing at the
    step's source (directory lookup, memory access) before the message is
    injected.
    """

    src: int
    dst: int
    size_bytes: int
    kind: str
    depends_on: Optional[int] = None
    extra_delay_cycles: int = 0
    completes: bool = False  # op finishes when all completing steps land


def message_plan(op: CoherenceOp, control_bytes: int, data_bytes: int,
                 directory_cycles: int, memory_cycles: int) -> List[MessageStep]:
    """Expand a coherence operation into its network message DAG.

    GetS with a remote owner is a 3-hop transaction (request, forward,
    cache-to-cache data); without one, the home's memory supplies data.
    GetM additionally broadcasts invalidations from the home, with
    acknowledgments collected at the requester.  Writebacks are a single
    uncompleted (fire-and-forget) data message.
    """
    steps: List[MessageStep] = []
    if op.kind is OpKind.WRITEBACK:
        steps.append(MessageStep(op.requester, op.home, data_bytes, "wb",
                                 completes=True))
        return steps

    # step 0: request to the home site's directory
    steps.append(MessageStep(op.requester, op.home, control_bytes, "req"))
    request = 0

    if op.kind is OpKind.GET_S:
        if op.owner is not None:
            steps.append(MessageStep(op.home, op.owner, control_bytes, "fwd",
                                     depends_on=request,
                                     extra_delay_cycles=directory_cycles))
            steps.append(MessageStep(op.owner, op.requester, data_bytes,
                                     "data", depends_on=len(steps) - 1,
                                     completes=True))
        else:
            steps.append(MessageStep(op.home, op.requester, data_bytes,
                                     "data", depends_on=request,
                                     extra_delay_cycles=(directory_cycles
                                                         + memory_cycles),
                                     completes=True))
        return steps

    # GetM / Upgrade: invalidations fan out from the home after the
    # directory lookup; each sharer acks straight to the requester.
    for sharer in op.sharers:
        inv = MessageStep(op.home, sharer, control_bytes, "inv",
                          depends_on=request,
                          extra_delay_cycles=directory_cycles)
        steps.append(inv)
        steps.append(MessageStep(sharer, op.requester, control_bytes, "ack",
                                 depends_on=len(steps) - 1, completes=True))

    if op.kind is OpKind.GET_M:
        if op.owner is not None:
            steps.append(MessageStep(op.home, op.owner, control_bytes, "fwd",
                                     depends_on=request,
                                     extra_delay_cycles=directory_cycles))
            steps.append(MessageStep(op.owner, op.requester, data_bytes,
                                     "data", depends_on=len(steps) - 1,
                                     completes=True))
        else:
            steps.append(MessageStep(op.home, op.requester, data_bytes,
                                     "data", depends_on=request,
                                     extra_delay_cycles=(directory_cycles
                                                         + memory_cycles),
                                     completes=True))
    else:
        # upgrade: permission only, granted by the home after the lookup
        steps.append(MessageStep(op.home, op.requester, control_bytes,
                                 "perm", depends_on=request,
                                 extra_delay_cycles=directory_cycles,
                                 completes=True))
    return steps
