"""Per-layer tracing for the benchmark's traced run.

:class:`LayerTrace` wraps the public entry points of each ``repro``
module from outside the package: it swaps a timing wrapper in for a
function wherever a module namespace holds it (or for a method on its
class), so no code under ``src/`` changes.  Wrappers record, per span
name, call count, inclusive CPU time of the process and self time
(inclusive time minus the time of nested spans), plus the deterministic counts read off
each call's result.  Nothing is written anywhere: the caller reads the
totals when the run ends and :meth:`LayerTrace.uninstall` puts every
original back.

Spans and the module they measure:

* ``engine.run``: ``Simulator.run`` (it dispatches the network and
  replay callbacks, so its time includes theirs)
* ``vectorized.kernel`` / ``vectorized.assemble``: every ``_KERNELS``
  entry and ``_assemble_result``
* ``sweep.run_load_point`` / ``sweep.draw``: ``run_load_point`` and
  ``_draw_schedules``
* ``parallel.context``: ``get_context``
* ``networks.build``: ``build_network``
* ``cpu.tracegen``: ``generate_trace``
* ``workloads.synth_trace`` / ``workloads.replay_build`` /
  ``workloads.replay_run`` / ``workloads.plan``:
  ``generate_synthetic_trace``, ``TraceReplayer.__init__``,
  ``TraceReplayer.run`` and ``message_plan`` as ``repro.workloads.replay``
  looks it up
* ``experiments.render``: ``figure6_text`` and ``all_figures_text``
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class LayerTrace:
    """Timing wrappers around the layer entry points, with their totals."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn: Callable,
             on_result: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` timed under ``name``; ``on_result(result, args, kwargs)``
        runs after each successful call, outside the timed interval."""
        stack = self._stack
        seconds = self.seconds
        self_seconds = self.self_seconds
        calls = self.calls
        clock = time.process_time

        def timed(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                seconds[name] += elapsed
                self_seconds[name] += elapsed - nested
                calls[name] += 1
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return timed

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_everywhere(self, original: Callable, wrapper: Callable,
                         extra_modules: Tuple = ()) -> None:
        """Rebind every module-level name that holds ``original``, in
        the ``repro`` package and ``extra_modules``."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "repro" or n.startswith("repro."))
                   and m is not None]
        modules.extend(extra_modules)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self, extra_modules: Tuple = ()) -> None:
        """Wrap every layer entry point listed in the module docstring."""
        from repro.core import engine, parallel, vectorized
        from repro.cpu import system
        from repro.experiments import figure6, figures7_10
        from repro.networks import factory
        from repro.workloads import synthetic_coherence

        # the packages re-export functions named like these modules
        sweep = importlib.import_module("repro.core.sweep")
        replay = importlib.import_module("repro.workloads.replay")

        counts = self.counts
        calls = self.calls

        def count_events(events, args, kwargs):
            counts["engine.events"] += events

        self._set(engine.Simulator, "run",
                  self.span("engine.run", engine.Simulator.run, count_events))

        for key, kernel in list(vectorized._KERNELS.items()):
            self._set_item(vectorized._KERNELS, key,
                           self.span("vectorized.kernel", kernel))
        self.patch_everywhere(
            vectorized._assemble_result,
            self.span("vectorized.assemble", vectorized._assemble_result))

        self.patch_everywhere(
            sweep._draw_schedules,
            self.span("sweep.draw", sweep._draw_schedules))
        self._set(sweep._DrawBank, "__init__",
                  self._counting(sweep._DrawBank.__init__,
                                 "sweep.draw_bank_misses"))

        load_point = self.span(
            "sweep.run_load_point", sweep.run_load_point,
            self._count_packets)

        def run_load_point(*args, **kwargs):
            dispatched_before = calls["engine.run"]
            result = load_point(*args, **kwargs)
            if (kwargs.get("backend") == "vectorized"
                    and calls["engine.run"] != dispatched_before):
                counts["vectorized.fallbacks"] += 1
            return result

        self.patch_everywhere(sweep.run_load_point, run_load_point,
                              extra_modules)

        self.patch_everywhere(
            parallel.get_context,
            self.span("parallel.context", parallel.get_context))
        self._set(parallel.SimContext, "__init__",
                  self._counting(parallel.SimContext.__init__,
                                 "parallel.context_misses"))

        self.patch_everywhere(
            factory.build_network,
            self.span("networks.build", factory.build_network))

        self.patch_everywhere(
            system.generate_trace,
            self.span("cpu.tracegen", system.generate_trace,
                      self._count_cpu_trace),
            extra_modules)
        self.patch_everywhere(
            synthetic_coherence.generate_synthetic_trace,
            self.span("workloads.synth_trace",
                      synthetic_coherence.generate_synthetic_trace),
            extra_modules)

        self._set(replay.TraceReplayer, "__init__",
                  self.span("workloads.replay_build",
                            replay.TraceReplayer.__init__))
        self._set(replay.TraceReplayer, "run",
                  self.span("workloads.replay_run", replay.TraceReplayer.run,
                            self._count_replay))
        self._set(replay, "message_plan",
                  self.span("workloads.plan", replay.message_plan))

        for render in (figure6.figure6_text, figures7_10.all_figures_text):
            self.patch_everywhere(
                render, self.span("experiments.render", render),
                extra_modules)

    def _set_item(self, mapping: dict, key: Any, value: Any) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def _counting(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_packets(self, result, args, kwargs) -> None:
        self.counts["networks.packets_injected"] += result.injected_packets
        self.counts["networks.packets_delivered"] += result.delivered_packets

    def _count_cpu_trace(self, trace, args, kwargs) -> None:
        self.counts["cpu.refs"] += trace.total_references
        self.counts["cpu.l2_misses"] += trace.l2_misses
        self.counts["cpu.coherence_ops"] += trace.total_ops

    def _count_replay(self, result, args, kwargs) -> None:
        self.counts["workloads.ops_completed"] += result.ops_completed
        self.counts["workloads.messages_sent"] += result.messages_sent
        stats = args[0].network.stats  # args[0] is the TraceReplayer
        self.counts["networks.packets_injected"] += stats.injected_packets
        self.counts["networks.packets_delivered"] += stats.delivered_packets

    def uninstall(self) -> None:
        """Restore every wrapped entry point, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- report --------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics this trace measures, by benchmark name
        (those read off the shard lists are added by the caller)."""
        s = self.seconds
        c = self.counts
        calls = self.calls
        engine_s = s["engine.run"]
        ops = c["workloads.ops_completed"]
        refs = c["cpu.refs"]
        return {
            "engine.run_s": engine_s,
            "engine.events": c["engine.events"],
            "engine.events_per_s": (c["engine.events"] / engine_s
                                    if engine_s > 0 else 0.0),
            "vectorized.kernel_s": s["vectorized.kernel"],
            "vectorized.kernel_calls": calls["vectorized.kernel"],
            "vectorized.assemble_s": s["vectorized.assemble"],
            "vectorized.fallbacks": c["vectorized.fallbacks"],
            "sweep.load_points": calls["sweep.run_load_point"],
            "sweep.draw_s": s["sweep.draw"],
            "sweep.draw_bank_misses": c["sweep.draw_bank_misses"],
            "sweep.harness_s": self.self_seconds["sweep.run_load_point"],
            "parallel.context_hits": (calls["parallel.context"]
                                      - c["parallel.context_misses"]),
            "parallel.context_misses": c["parallel.context_misses"],
            "parallel.context_s": s["parallel.context"],
            "networks.builds": calls["networks.build"],
            "networks.build_s": s["networks.build"],
            "networks.packets_injected": c["networks.packets_injected"],
            "networks.packets_delivered": c["networks.packets_delivered"],
            "cpu.tracegen_s": s["cpu.tracegen"],
            "cpu.refs": refs,
            "cpu.l2_misses": c["cpu.l2_misses"],
            "cpu.l2_miss_ratio": c["cpu.l2_misses"] / refs if refs else 0.0,
            "cpu.coherence_ops": c["cpu.coherence_ops"],
            "workloads.synth_trace_s": s["workloads.synth_trace"],
            "workloads.replays": calls["workloads.replay_run"],
            "workloads.replay_build_s": s["workloads.replay_build"],
            "workloads.replay_run_s": s["workloads.replay_run"],
            "workloads.plan_s": s["workloads.plan"],
            "workloads.plan_calls": calls["workloads.plan"],
            "workloads.ops_completed": ops,
            "workloads.messages_sent": c["workloads.messages_sent"],
            "workloads.messages_per_op": (c["workloads.messages_sent"] / ops
                                          if ops else 0.0),
            "experiments.render_s": s["experiments.render"],
        }
