"""Closed-loop replay of a coherence trace on a network.

Each core issues its coherence operations in order, separated by its
recorded compute gaps, and **stalls** until the operation's network
message plan completes (in-order cores, section 3).  Writebacks are
fire-and-forget.  A site's outstanding operations are bounded by its
MSHRs (section 5: "We model finite MSHRs").

The replay produces the three quantities Figures 7, 8, and 10 are built
from: execution time (speedups), mean latency per coherence operation,
and network energy (optical transceiver + electronic router dynamic
energy from the network's own accounting, plus static laser power applied
over the runtime by :mod:`repro.analysis.edp`).

How the replay runs:

* **Compiled plans.**  An operation's message plan depends only on
  ``(kind, requester, home, owner, sharers)`` and the config's message
  sizes and latencies, so :func:`compiled_plan` expands it through
  :func:`~repro.cpu.coherence.message_plan` once per key into nested
  tuples and stores it in a process-wide :func:`intern_memo`.  Every
  network and every trace replayed in the process shares these plans.
* **Integer core state.**  :meth:`TraceReplayer.run` turns each core's
  operations into ``(gap_ps, site, plan)`` rows.  A core's progress is
  three ints: the row it is on, when that row issued, and how many
  completing messages it still waits for.  MSHR waiters are core ids.
* **No per-op cycles.**  Events carry ``(core, step)``, and each packet
  is a :class:`ReplayPacket` holding the same pair, with the replayer's
  ``_delivered`` method as its callback.  No closure is built per op,
  nothing per op refers back to itself, and a finished replay leaves no
  garbage for the cyclic collector.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.engine import Simulator
from ..core.interning import intern_memo
from ..core.stats import LatencySample
from ..cpu.coherence import CoherenceOp, OpKind, message_plan
from ..cpu.trace import CoherenceTrace
from ..macrochip.config import MacrochipConfig
from ..networks.base import Packet, _packet_ids
from ..networks.factory import build_network

#: one message of a compiled plan: ``(src, dst, size_bytes, kind,
#: counts_toward_completion, children)``, where each child is
#: ``(extra_delay_ps, step)``, injected that long after this step lands
Step = Tuple[int, int, int, str, bool, tuple]
#: a compiled plan: ``(completions, root_steps)``; ``completions`` is how
#: many steps must land before the op completes, 0 for a writeback
#: (fire-and-forget: the core moves on as soon as it issues)
Plan = Tuple[int, Tuple[Step, ...]]


@dataclass
class ReplayResult:
    """Outcome of one (workload, network) closed-loop run."""

    network: str
    workload: str
    runtime_ps: int
    ops_completed: int
    messages_sent: int
    op_latency: LatencySample
    energy_by_category: Dict[str, float]
    #: simulator events dispatched (deterministic; used for telemetry)
    events_dispatched: int = 0

    @property
    def runtime_ns(self) -> float:
        return self.runtime_ps / 1000.0

    @property
    def mean_op_latency_ns(self) -> float:
        return self.op_latency.mean_ns

    @property
    def dynamic_energy_pj(self) -> float:
        return sum(self.energy_by_category.values())


def plan_memo(config: MacrochipConfig) -> Dict[tuple, Plan]:
    """The process-wide plan memo for ``config``'s cycle time, message
    sizes and protocol latencies (the only config fields a plan reads)."""
    return intern_memo(
        ("replay_plans", config.cycle_ps, config.control_message_bytes,
         config.data_message_bytes, config.directory_latency_cycles,
         config.memory_latency_cycles), dict)


def compiled_plan(op: CoherenceOp, config: MacrochipConfig) -> Plan:
    """``op``'s message plan as nested tuples (see :data:`Plan`)."""
    steps = message_plan(op, config.control_message_bytes,
                         config.data_message_bytes,
                         config.directory_latency_cycles,
                         config.memory_latency_cycles)
    stalls = op.kind is not OpKind.WRITEBACK
    children: List[List[int]] = [[] for _ in steps]
    for i, step in enumerate(steps):
        if step.depends_on is not None:
            children[step.depends_on].append(i)
    # a step depends only on earlier ones, so compiling back to front
    # finds every child already compiled
    compiled: List[Optional[Step]] = [None] * len(steps)
    for i in reversed(range(len(steps))):
        step = steps[i]
        compiled[i] = (
            step.src, step.dst, step.size_bytes, step.kind,
            stalls and step.completes,
            tuple((steps[c].extra_delay_cycles * config.cycle_ps,
                   compiled[c]) for c in children[i]))
    completions = sum(1 for step in compiled if step[4])
    roots = tuple(compiled[i] for i, step in enumerate(steps)
                  if step.depends_on is None)
    return completions, roots


class ReplayPacket(Packet):
    """A replay message: the core it belongs to and its plan step."""

    __slots__ = ("core", "step")

    def __init__(self, core: int, step: Step,
                 on_delivered: Callable[[Packet], None]) -> None:
        # Packet.__init__ with every field taken from the step
        self.pid = next(_packet_ids)
        self.src, self.dst, self.size_bytes, self.kind = step[:4]
        self.on_delivered = on_delivered
        self.t_inject = -1
        self.t_deliver = -1
        self.hops = 0
        self.core = core
        self.step = step


class TraceReplayer:
    """Drives a coherence trace through one network, closed-loop."""

    def __init__(self, trace: CoherenceTrace, network_name: str,
                 config: MacrochipConfig,
                 network_kwargs: Optional[dict] = None) -> None:
        self.trace = trace
        self.config = config
        self.sim = Simulator()
        self.network = build_network(network_name, config, self.sim,
                                     **(network_kwargs or {}))
        self._op_latency = LatencySample()
        self._mshrs_free = [config.mshrs_per_site] * config.num_sites
        self._mshr_waiters: List[Deque[int]] = [
            deque() for _ in range(config.num_sites)]
        cores = len(trace.ops_by_core)
        #: per core: its ``(gap_ps, site, plan)`` rows (built by run), the
        #: row it is on, when that row issued, and its completing
        #: messages still due
        self._rows: List[List[Tuple[int, int, Plan]]] = []
        self._index = [0] * cores
        self._issued_at = [0] * cores
        self._remaining = [0] * cores

    # -- public --------------------------------------------------------------

    def run(self) -> ReplayResult:
        config = self.config
        cycle = config.cycle_ps
        plans = plan_memo(config)
        rows = self._rows
        for ops in self.trace.ops_by_core:
            core_rows = []
            for op in ops:
                # the kind's value string: hashing the member itself
                # runs Enum.__hash__, a Python call per op
                key = (op.kind._value_, op.requester, op.home, op.owner,
                       op.sharers)
                plan = plans.get(key)
                if plan is None:
                    plan = plans[key] = compiled_plan(op, config)
                core_rows.append((op.gap_cycles * cycle, op.requester, plan))
            rows.append(core_rows)
        for core, core_rows in enumerate(rows):
            if core_rows:
                self.sim.at(core_rows[0][0], self._issue, core)
        events = self.sim.run()
        return ReplayResult(
            network=self.network.name,
            workload=self.trace.workload,
            runtime_ps=self.sim.now,
            ops_completed=len(self._op_latency),
            # every message is one network injection
            messages_sent=self.network.stats.injected_packets,
            op_latency=self._op_latency,
            energy_by_category=self.network.stats.energy.categories(),
            events_dispatched=events,
        )

    # -- core state machine ----------------------------------------------------

    def _issue(self, core: int) -> None:
        _, site, (completions, roots) = self._rows[core][self._index[core]]
        mshrs_free = self._mshrs_free
        if mshrs_free[site] == 0:
            self._mshr_waiters[site].append(core)
            return
        mshrs_free[site] -= 1
        sim = self.sim
        now = sim.now
        for step in roots:
            sim.at(now, self._inject, core, step)
        if completions:
            self._issued_at[core] = now
            self._remaining[core] = completions
        else:
            # a writeback is fire-and-forget: the core moves on now
            self._advance(core, site)

    def _advance(self, core: int, site: int) -> None:
        """Free the op's MSHR and schedule the core's next op."""
        self._mshrs_free[site] += 1
        waiters = self._mshr_waiters[site]
        if waiters:
            self.sim.schedule(0, self._issue, waiters.popleft())
        index = self._index[core] + 1
        self._index[core] = index
        core_rows = self._rows[core]
        if index < len(core_rows):
            self.sim.schedule(core_rows[index][0], self._issue, core)

    # -- message plan execution --------------------------------------------------

    def _inject(self, core: int, step: Step) -> None:
        # the event carries its step: a writeback's inject fires after
        # its core has already moved on to the next row
        self.network.inject(ReplayPacket(core, step, self._delivered))

    def _delivered(self, packet: ReplayPacket) -> None:
        core = packet.core
        step = packet.step
        if step[4]:
            remaining = self._remaining
            remaining[core] -= 1
            if remaining[core] == 0:
                # writebacks are fire-and-forget and excluded from the
                # latency-per-coherence-operation metric (Figure 8); the
                # network stamped t_deliver with the current time
                self._op_latency.add(packet.t_deliver
                                     - self._issued_at[core])
                self._advance(core, self._rows[core][self._index[core]][1])
        for delay, child in step[5]:
            self.sim.schedule(delay, self._inject, core, child)


def replay(trace: CoherenceTrace, network_name: str,
           config: MacrochipConfig,
           network_kwargs: Optional[dict] = None) -> ReplayResult:
    """Convenience one-shot replay."""
    return TraceReplayer(trace, network_name, config,
                         network_kwargs).run()
