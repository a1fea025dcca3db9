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

* **Compiled plans, one per shape.**  Which messages an operation needs
  depends only on its *shape* ``(kind, remote owner or not, sharer
  count)`` and the config's message sizes and latencies; its sites only
  fill in each message's ends.  :func:`compiled_plan` expands a
  canonical op of the shape through
  :func:`~repro.cpu.coherence.message_plan` once into nested tuples whose
  ends are *roles* (see :data:`Step`), and stores it in a process-wide
  :func:`intern_memo`.  Every network and every trace replayed in the
  process shares these few plans.
* **Sites bound at issue.**  When a core issues an op, it builds the
  op's ``(requester, home, owner, *sharers)`` tuple once and hands it to
  each message of the plan, which reads its ``src`` and ``dst`` from it.
* **Integer core state.**  The replayer reads each core's ops straight
  from the trace.  A core's progress is three ints: the op it is on,
  when that op issued, and how many completing messages it still waits
  for.  MSHR waiters are core ids.
* **Events carry the packet.**  A message is built as a
  :class:`ReplayPacket` holding ``(core, step, sites)`` when it is
  scheduled, and its event calls ``network.inject(packet)`` directly:
  no replayer frame sits between the engine and the network.  The
  packet's callback is the replayer's ``_delivered`` method, which
  schedules the step's children the same way.
* **No per-op cycles.**  No closure is built per op, nothing per op
  refers back to itself, and a finished replay leaves no garbage for
  the cyclic collector.
* **No per-delivery record.**  The network's measurement window closes
  before time 0, so a delivery books only its count and energy: the
  network's latency histogram, which would hold one bucket per distinct
  message latency, is never filled, since the replay times operations
  with its own :class:`~repro.core.stats.LatencySample`.
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
#: counts_toward_completion, children)``, where ``src`` and ``dst`` are
#: roles (0 requester, 1 home, 2 owner, 3 + i sharer i) that index an
#: op's sites, and each child is ``(extra_delay_ps, step)``, injected
#: that long after this step lands
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


def plan_memo(config: MacrochipConfig) -> Dict[tuple, Plan]:
    """The process-wide plan memo for ``config``'s cycle time, message
    sizes and protocol latencies (the only config fields a plan reads),
    keyed by shape: ``(kind value, no remote owner, sharer count)``."""
    return intern_memo(
        ("replay_plans", config.cycle_ps, config.control_message_bytes,
         config.data_message_bytes, config.directory_latency_cycles,
         config.memory_latency_cycles), dict)


def compiled_plan(op: CoherenceOp, config: MacrochipConfig) -> Plan:
    """The message plan of ``op``'s shape as nested tuples (see
    :data:`Plan`), its ends roles rather than sites: ``message_plan``
    expands a canonical op whose sites are its roles."""
    canonical = CoherenceOp(
        core=0, gap_cycles=0, kind=op.kind, requester=0, home=1,
        owner=None if op.owner is None else 2,
        sharers=tuple(range(3, 3 + len(op.sharers))))
    steps = message_plan(canonical, config.control_message_bytes,
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
    """A replay message: the core it belongs to, its plan step and the
    sites its op binds the step's roles to."""

    __slots__ = ("core", "step", "sites")

    def __init__(self, core: int, step: Step, sites: tuple,
                 on_delivered: Callable[[Packet], None]) -> None:
        # Packet.__init__ with every field taken from the step
        self.pid = next(_packet_ids)
        self.src = sites[step[0]]
        self.dst = sites[step[1]]
        self.size_bytes = step[2]
        self.on_delivered = on_delivered
        self.t_inject = -1
        self.t_deliver = -1
        self.hops = 0
        self.core = core
        self.step = step
        self.sites = sites


class TraceReplayer:
    """Drives a coherence trace through one network, closed-loop.

    Each core's ops are read from ``trace.ops_by_core`` as they issue;
    the per-op work is a shape lookup in :func:`plan_memo` and the op's
    sites tuple.  The trace must have been built for ``config``'s core
    count and site count; a mismatch raises ``ValueError``.
    """

    def __init__(self, trace: CoherenceTrace, network_name: str,
                 config: MacrochipConfig,
                 network_kwargs: Optional[dict] = None) -> None:
        cores = len(trace.ops_by_core)
        if trace.num_cores != config.num_cores or cores != config.num_cores:
            raise ValueError(
                "trace %r was built for %d cores (%d core op lists), but "
                "the config has %d" % (trace.workload, trace.num_cores,
                                       cores, config.num_cores))
        # the core count can match while the site count differs (16x8
        # and 32x4): a core's ops are requested by its own site, so each
        # core's first op shows which site the trace put it on
        per_site = config.cores_per_site
        for core, ops in enumerate(trace.ops_by_core):
            if ops and ops[0].requester != core // per_site:
                raise ValueError(
                    "trace %r was built for another site count: core %d's "
                    "ops are requested by site %d, but the config (%d "
                    "sites, %d cores per site) puts core %d on site %d"
                    % (trace.workload, core, ops[0].requester,
                       config.num_sites, per_site, core, core // per_site))
        self.trace = trace
        self.config = config
        self.sim = Simulator()
        self.network = build_network(network_name, config, self.sim,
                                     **(network_kwargs or {}))
        # a replay reads only the network's injection count and energy;
        # a measurement window that closes before time 0 keeps every
        # delivery out of the unread latency histogram and throughput
        # meter (NetworkStats.on_deliver still books its count and energy)
        self.network.stats.throughput.window_end_ps = -1
        self._ops = trace.ops_by_core
        # a config property that rounds a float: read once, not per op
        self._cycle_ps = config.cycle_ps
        self._net_inject = self.network.inject
        self._plans = plan_memo(config)
        self._op_latency = LatencySample()
        self._mshrs_free = [config.mshrs_per_site] * config.num_sites
        self._mshr_waiters: List[Deque[int]] = [
            deque() for _ in range(config.num_sites)]
        #: per core: the op it is on, when that op issued, and its
        #: completing messages still due
        self._index = [0] * cores
        self._issued_at = [0] * cores
        self._remaining = [0] * cores

    # -- public --------------------------------------------------------------

    def run(self) -> ReplayResult:
        cycle = self._cycle_ps
        for core, ops in enumerate(self._ops):
            if ops:
                self.sim.at(ops[0].gap_cycles * cycle, self._issue, core)
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
        op = self._ops[core][self._index[core]]
        site = op.requester
        mshrs_free = self._mshrs_free
        if mshrs_free[site] == 0:
            self._mshr_waiters[site].append(core)
            return
        mshrs_free[site] -= 1
        # the kind's value string: hashing the member itself runs
        # Enum.__hash__, a Python call per op
        shape = (op.kind._value_, op.owner is None, len(op.sharers))
        plan = self._plans.get(shape)
        if plan is None:
            plan = self._plans[shape] = compiled_plan(op, self.config)
        completions, roots = plan
        # the sites the plan's roles index
        sites = (site, op.home, op.owner) + op.sharers
        sim = self.sim
        now = sim.now
        # the packet rides its inject event: a writeback's inject fires
        # after its core has already moved on to the next op
        for step in roots:
            sim.at(now, self._net_inject,
                   ReplayPacket(core, step, sites, self._delivered))
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
        ops = self._ops[core]
        if index < len(ops):
            self.sim.schedule(ops[index].gap_cycles * self._cycle_ps,
                              self._issue, core)

    # -- message plan execution --------------------------------------------------

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
                self._advance(core, packet.sites[0])
        for delay, child in step[5]:
            self.sim.schedule(delay, self._net_inject,
                              ReplayPacket(core, child, packet.sites,
                                           self._delivered))


def replay(trace: CoherenceTrace, network_name: str,
           config: MacrochipConfig,
           network_kwargs: Optional[dict] = None) -> ReplayResult:
    """Convenience one-shot replay."""
    return TraceReplayer(trace, network_name, config,
                         network_kwargs).run()
