"""The benchmark's three workloads, built from the public pieces the CLI
drivers use, plus the output checks behind ``ok_rate``.

Each workload builds its shard list the way ``run_figure6`` or
``run_suite`` does, with the benchmark seed threaded into every
simulation, runs it serially through ``run_sharded`` and renders the
artifact text with the CLI's own renderer.  Seed 0 gives every simulation
its library default seed (``run_load_point``: 12345, each kernel's class
``seed``, ``SyntheticCoherenceSpec``: 2010), so at seed 0 the artifact is
byte-equal to the CLI's; seed ``s`` offsets each of those defaults by
``s``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import parallel, vectorized
from repro.core.stats import LatencySample
from repro.cpu import system
from repro.cpu.coherence import OpKind
from repro.experiments import evaluation, figure6, figures7_10
from repro.macrochip.config import scaled_config
from repro.networks.factory import FIGURE6_NETWORKS, FIGURE7_NETWORKS
from repro.workloads import synthetic_coherence
from repro.workloads.kernels import FIGURE7_KERNELS
from repro.workloads.sharing import mix_by_name
from repro.workloads.synthetic import make_pattern

# the packages re-export functions named like these modules
sweep = importlib.import_module("repro.core.sweep")
replay = importlib.import_module("repro.workloads.replay")

#: run_load_point's default seed; benchmark seed s runs at this + s
LOAD_POINT_SEED = 12345
#: SyntheticCoherenceSpec's default seed; benchmark seed s runs at this + s
SYNTHETIC_SEED = 2010

#: the Figures 7-10 subset (one traced application, two synthetics), the
#: same one benchmarks/conftest.py replays
REPLAY_WORKLOADS = ["Radix", "All-to-all", "Neighbor"]
REPLAY_PRESET = "smoke"

#: shard label -> (CPU seconds, monotonic start, monotonic end) of its
#: latest call in this process
_SHARD_TIMES: Dict[str, Tuple[float, float, float]] = {}


def cpu_timed_shard(fn: Callable, args: tuple, label: str,
                    kwargs: Optional[dict] = None) -> parallel.Shard:
    """A shard whose call records its CPU seconds and when it ran under
    ``label`` (the serial executor calls it in this process)."""
    def call(*call_args, **call_kwargs):
        started = time.monotonic()
        begun = time.process_time()
        try:
            return fn(*call_args, **call_kwargs)
        finally:
            _SHARD_TIMES[label] = (time.process_time() - begun, started,
                                   time.monotonic())

    return parallel.Shard(call, args=args, kwargs=kwargs or {}, label=label)


def _timed(shards: List[parallel.Shard]) -> Dict[str, list]:
    """``shard_seconds`` and ``shard_spans`` of an Outcome."""
    times = [_SHARD_TIMES[s.label] for s in shards]
    return dict(shard_seconds=[t[0] for t in times],
                shard_spans=[[t[1], t[2]] for t in times])


@dataclasses.dataclass
class Outcome:
    """One repetition of a workload: every shard's result and CPU time,
    the ShardedRun records, and the artifact text."""

    labels: List[str]
    networks: List[Optional[str]]
    results: List[Any]
    shard_seconds: List[float]
    #: per shard, the monotonic clock when its call began and ended
    shard_spans: List[List[float]]
    runs: List[parallel.ShardedRun]
    text: str
    #: per shard label, the expected non-writeback op count of its trace
    #: (replay shards only; used by the structural check)
    expected_ops: Dict[str, int]


# -- Figure 6 ----------------------------------------------------------------

def run_fig6(seed: int, first_shard: Callable[[], None], backend: str,
             window_ns: float) -> Outcome:
    """The full fixed-grid Figure 6: 4 patterns x 5 networks at the
    ``LOAD_GRIDS`` loads, warm, serial, as ``run_figure6`` builds it."""
    if backend == "vectorized":
        vectorized.require_numpy()
    cfg = scaled_config()
    result = figure6.Figure6Result(window_ns=window_ns)
    keys = []
    shards = []
    for pattern_key in figure6.PANEL_ORDER:
        result.curves[pattern_key] = {}
        for net in FIGURE6_NETWORKS:
            result.curves[pattern_key][net] = []
            pattern = make_pattern(pattern_key, cfg.layout)
            for fraction in figure6.LOAD_GRIDS[pattern_key]:
                keys.append((pattern_key, net))
                shards.append(cpu_timed_shard(
                    sweep.run_load_point,
                    args=(net, cfg, pattern, fraction),
                    kwargs=dict(window_ns=window_ns, rng_block=256,
                                warm=True, backend=backend,
                                seed=LOAD_POINT_SEED + seed),
                    label="figure6 %s/%s @%.3f"
                          % (pattern_key, net, fraction)))
    first_shard()
    run = parallel.run_sharded(shards, workers=1,
                               cost_key=lambda s: s.args[3],
                               on_error="collect")
    for (pattern_key, net), point in zip(keys, run.results):
        if isinstance(point, parallel.ShardError):
            result.failures.append(point)
            continue
        result.curves[pattern_key][net].append(
            sweep.to_sweep_point(point, cfg))
    result.total_events = run.total_events
    result.load_points = len(shards)
    text = figure6.figure6_text(result)
    return Outcome(labels=[s.label for s in shards],
                   networks=[s.args[0] for s in shards],
                   results=run.results, runs=[run], text=text,
                   expected_ops={}, **_timed(shards))


# -- Figures 7-10 -------------------------------------------------------------

def synthetic_trace(name: str, spec, pattern, mix, cfg):
    """One synthetic coherence trace, named as ``run_suite`` names it."""
    trace = synthetic_coherence.generate_synthetic_trace(spec, pattern, mix,
                                                         cfg)
    trace.workload = name
    return trace


def run_replay(seed: int, first_shard: Callable[[], None]) -> Outcome:
    """The Figures 7-10 pipeline on :data:`REPLAY_WORKLOADS` at the smoke
    preset: trace builds, then every trace replayed on all six
    ``FIGURE7_NETWORKS``, as ``run_suite`` builds it."""
    cfg = scaled_config()
    preset = evaluation.PRESETS[REPLAY_PRESET]
    names = []
    shards = []
    for kernel_cls in FIGURE7_KERNELS:
        if kernel_cls.name not in REPLAY_WORKLOADS:
            continue
        kernel = kernel_cls(refs_per_core=preset.kernel_refs_per_core,
                            seed=kernel_cls.seed + seed)
        names.append(kernel_cls.name)
        shards.append(cpu_timed_shard(system.generate_trace,
                                      args=(kernel, cfg),
                                      label="cpu-sim %s" % kernel_cls.name))
    for name, pattern_key, mix_name in synthetic_coherence.FIGURE7_SYNTHETIC:
        if name not in REPLAY_WORKLOADS:
            continue
        spec = synthetic_coherence.SyntheticCoherenceSpec(
            name, ops_per_core=preset.synthetic_ops_per_core,
            seed=SYNTHETIC_SEED + seed)
        names.append(name)
        shards.append(cpu_timed_shard(
            synthetic_trace,
            args=(name, spec, make_pattern(pattern_key, cfg.layout),
                  mix_by_name(mix_name), cfg),
            label="synthesize %s" % name))
    first_shard()
    trace_run = parallel.run_sharded(shards, workers=1, on_error="collect")
    collected = list(trace_run.errors)
    traces = {name: trace for name, trace in zip(names, trace_run.results)
              if not isinstance(trace, parallel.ShardError)}
    suite = evaluation.SuiteResult(preset=preset.name, config=cfg,
                                   traces=traces, failures=collected)
    pairs = [(workload, net) for workload in traces
             for net in FIGURE7_NETWORKS]
    replay_shards = [
        cpu_timed_shard(replay.replay, args=(traces[workload], net, cfg),
                        label="replay %s on %s" % (workload, net))
        for workload, net in pairs]
    replay_run = parallel.run_sharded(replay_shards, workers=1,
                                      on_error="collect")
    for (workload, net), result in zip(pairs, replay_run.results):
        if isinstance(result, parallel.ShardError):
            collected.append(result)
            continue
        suite.results.setdefault(workload, {})[net] = result
    text = figures7_10.all_figures_text(suite)
    expected = {s.label: stalled_ops(traces[w])
                for s, (w, _) in zip(replay_shards, pairs)}
    return Outcome(
        labels=[s.label for s in shards + replay_shards],
        networks=[None] * len(shards) + [net for _, net in pairs],
        results=trace_run.results + replay_run.results,
        runs=[trace_run, replay_run], text=text, expected_ops=expected,
        **_timed(shards + replay_shards))


def stalled_ops(trace) -> int:
    """Operations a replay waits for: every op but writebacks."""
    return sum(1 for ops in trace.ops_by_core for op in ops
               if op.kind is not OpKind.WRITEBACK)


#: workload name -> (its size, recorded in provenance;
#: runner(seed, first_shard) -> Outcome)
WORKLOADS: Dict[str, Any] = {
    name: (size, functools.partial(run_fig6, **size))
    for name, size in (
        ("fig6_python", {"backend": "python", "window_ns": 40.0}),
        ("fig6_vectorized", {"backend": "vectorized", "window_ns": 160.0}))}
WORKLOADS["figs7_10_replay"] = (
    {"preset": REPLAY_PRESET, "workloads": REPLAY_WORKLOADS}, run_replay)


# -- output checks ------------------------------------------------------------

def _canon(value: Any) -> str:
    """Deterministic text of a result value, floats by ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return repr(value.value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join("%s:%s" % (_canon(k), _canon(value[k]))
                              for k in sorted(value)) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return "%s(%s)" % (type(value).__name__, ",".join(
            "%s=%s" % (f.name, _canon(getattr(value, f.name)))
            for f in dataclasses.fields(value)))
    if isinstance(value, LatencySample):
        if not value.count:
            return "LatencySample(0)"
        return "LatencySample(%d,%d,%d,%d,%s)" % (
            value.count, value.sum_ps, value.min_ps, value.max_ps,
            _canon([value.percentile_ps(p)
                    for p in (1, 10, 25, 50, 75, 90, 99, 100)]))
    return repr(value)


def digest(value: Any) -> str:
    """16-hex-digit digest of a shard result or artifact text."""
    text = value if isinstance(value, str) else _canon(value)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def structural_problem(label: str, result: Any,
                       expected_ops: Dict[str, int]) -> Optional[str]:
    """What is wrong with one shard's result by seed-independent rules,
    or None."""
    if isinstance(result, parallel.ShardError):
        return str(result)
    if result is None:
        return "no result"
    if isinstance(result, sweep.LoadPointResult):
        if not 0 < result.delivered_packets <= result.injected_packets:
            return ("delivered %d of %d injected"
                    % (result.delivered_packets, result.injected_packets))
        return None
    if isinstance(result, replay.ReplayResult):
        want = expected_ops.get(label)
        if result.ops_completed != want:
            return ("%d ops completed, trace has %s non-writeback ops"
                    % (result.ops_completed, want))
        return None
    if hasattr(result, "ops_by_core"):  # CoherenceTrace
        return None if result.total_ops > 0 else "empty trace"
    return "unexpected result type %s" % type(result).__name__


def shard_problems(outcome: Outcome,
                   pins: Optional[Dict[str, str]]) -> Dict[str, str]:
    """label -> problem for every shard failing the output check: the
    structural rules always, and the pinned digest when ``pins`` (the
    seed-0 digests) is given."""
    problems = {}
    for label, result in zip(outcome.labels, outcome.results):
        problem = structural_problem(label, result, outcome.expected_ops)
        if problem is None and pins is not None:
            want = pins.get(label)
            got = digest(result)
            if got != want:
                problem = "digest %s, pinned %s" % (got, want)
        if problem is not None:
            problems[label] = problem
    return problems
