"""The shared benchmark suite behind Figures 7, 8, 9, and 10.

One call to :func:`run_suite` replays all eleven workloads (six
application kernels + five synthetic coherence benchmarks) on all six
network configurations and returns the full result grid; the per-figure
drivers then derive speedups, latencies, router-energy fractions, and
EDPs from it without re-simulating.

Presets trade fidelity for time:

* ``full``  — the sizes used for EXPERIMENTS.md (minutes of CPU time);
* ``quick`` — reduced reference counts for interactive runs;
* ``smoke`` — tiny sizes for CI/benchmark harnesses (seconds).

``run_suite(cache_dir=...)`` makes a run resumable.  Each trace and
replay result is written by the shard that produced it, through a
temporary file, and a rerun simulates only what is missing::

    <cache_dir>/
      manifest.json                       preset sizing + full config
      traces/<workload>.json              coherence traces (cpu.trace_io)
      results/<workload>__<network>.json  one ReplayResult each

The manifest records what produced the cache.  A directory written under
another preset or config, or one holding cached files but no manifest,
is rejected rather than mixed with fresh results.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.parallel import Shard, ShardError, WorkerPool, run_sharded
from ..core.stats import LatencySample
from ..cpu.system import generate_trace
from ..cpu.trace import CoherenceTrace
from ..cpu.trace_io import dump_trace, load_trace
from ..macrochip.config import MacrochipConfig, scaled_config
from ..macrochip.configio import config_to_dict
from ..networks.factory import FIGURE7_NETWORKS, check_network_keys
from ..workloads.kernels import FIGURE7_KERNELS
from ..workloads.replay import ReplayResult, replay
from ..workloads.sharing import mix_by_name
from ..workloads.synthetic import make_pattern
from ..workloads.synthetic_coherence import (
    FIGURE7_SYNTHETIC,
    SyntheticCoherenceSpec,
    generate_synthetic_trace,
)

#: bumped whenever a cached file's format changes (4: results hold the
#: whole ReplayResult, latency histogram included)
_CACHE_VERSION = 4


@dataclass(frozen=True)
class Preset:
    """Workload sizing for one fidelity level."""

    name: str
    kernel_refs_per_core: int
    synthetic_ops_per_core: int


PRESETS: Dict[str, Preset] = {
    "full": Preset("full", kernel_refs_per_core=1000,
                   synthetic_ops_per_core=100),
    "quick": Preset("quick", kernel_refs_per_core=500,
                    synthetic_ops_per_core=40),
    "smoke": Preset("smoke", kernel_refs_per_core=120,
                    synthetic_ops_per_core=10),
}

#: workload display order of Figures 7/8/10 (six apps, five synthetics)
WORKLOAD_ORDER: List[str] = (
    [k.name for k in FIGURE7_KERNELS]
    + [name for name, _, _ in FIGURE7_SYNTHETIC]
)


@dataclass
class SuiteResult:
    """Replay results for every (workload, network) pair."""

    preset: str
    config: MacrochipConfig
    #: results[workload_name][network_key]
    results: Dict[str, Dict[str, ReplayResult]] = field(default_factory=dict)
    traces: Dict[str, CoherenceTrace] = field(default_factory=dict)
    #: trace builds or replays that failed under a collecting error
    #: policy (their grid cells are simply absent); empty on clean runs
    failures: List[ShardError] = field(default_factory=list)

    def workloads(self) -> List[str]:
        return [w for w in WORKLOAD_ORDER if w in self.results]

    def networks(self) -> List[str]:
        """Network keys actually present, in the canonical figure order."""
        present = set()
        for by_net in self.results.values():
            present.update(by_net)
        return [n for n in FIGURE7_NETWORKS if n in present]


def _kernel_trace_task(kernel_cls, refs_per_core: int,
                       config: MacrochipConfig) -> CoherenceTrace:
    """CPU-simulate one application kernel (picklable shard body)."""
    return generate_trace(kernel_cls(refs_per_core=refs_per_core), config)


def _synthetic_trace_task(name: str, pattern_key: str, mix_name: str,
                          ops_per_core: int,
                          config: MacrochipConfig) -> CoherenceTrace:
    """Synthesize one coherence benchmark trace (picklable shard body)."""
    spec = SyntheticCoherenceSpec(name, ops_per_core=ops_per_core)
    pattern = make_pattern(pattern_key, config.layout)
    trace = generate_synthetic_trace(spec, pattern,
                                     mix_by_name(mix_name), config)
    trace.workload = name
    return trace


def _cache_file(cache_dir: Optional[str], sub: str,
                name: str) -> Optional[str]:
    if cache_dir is None:
        return None
    return os.path.join(cache_dir, sub, "%s.json" % name)


def _save(path: str, value) -> None:
    """Write one cache file through a temporary file, so an interrupted
    run never leaves a truncated entry behind."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        if isinstance(value, CoherenceTrace):
            dump_trace(value, fh)
        elif isinstance(value, ReplayResult):
            json.dump(dict(vars(value),
                           op_latency=value.op_latency.histogram()), fh)
        else:
            json.dump(value, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


def _load_result(path: str) -> ReplayResult:
    with open(path) as fh:
        doc = json.load(fh)
    doc["op_latency"] = LatencySample.from_histogram(doc["op_latency"])
    return ReplayResult(**doc)


def _persisted(path: Optional[str], task: Callable, *args):
    """Shard body: ``task(*args)``, saved to ``path`` (when set) as soon
    as it exists.  A failing task raises first, so it is never saved."""
    value = task(*args)
    if path is not None:
        _save(path, value)
    return value


def _open_cache(cache_dir: str, preset: Preset,
                config: MacrochipConfig) -> None:
    """Write the manifest of a fresh ``cache_dir``, or check that an
    existing one was produced by this preset and config."""
    for sub in ("traces", "results"):
        os.makedirs(os.path.join(cache_dir, sub), exist_ok=True)
    manifest = {"version": _CACHE_VERSION, "preset": asdict(preset),
                "config": config_to_dict(config, full=True)}
    path = os.path.join(cache_dir, "manifest.json")
    if os.path.exists(path):
        with open(path) as fh:
            if json.load(fh) == manifest:
                return
        problem = ("was written by a different preset or config "
                   "(manifest mismatch)")
    elif any(os.listdir(os.path.join(cache_dir, sub))
             for sub in ("traces", "results")):
        problem = ("holds cached files but no manifest, so they cannot "
                   "be matched to this preset and config")
    else:
        _save(path, manifest)
        return
    raise ValueError("cache_dir %r %s; delete it or pick another directory"
                     % (cache_dir, problem))


def _trace_shards(preset: Preset, config: MacrochipConfig,
                  workloads: List[str],
                  cache_dir: Optional[str]) -> Dict[str, Shard]:
    """One trace-building shard per named workload: a CPU simulation for
    an application kernel, a synthesis for a coherence benchmark."""
    shards: Dict[str, Shard] = {}
    for kernel_cls in FIGURE7_KERNELS:
        if kernel_cls.name in workloads:
            shards[kernel_cls.name] = Shard(
                _persisted,
                args=(_cache_file(cache_dir, "traces", kernel_cls.name),
                      _kernel_trace_task, kernel_cls,
                      preset.kernel_refs_per_core, config),
                label="cpu-sim %s" % kernel_cls.name)
    for name, pattern_key, mix_name in FIGURE7_SYNTHETIC:
        if name in workloads:
            shards[name] = Shard(
                _persisted,
                args=(_cache_file(cache_dir, "traces", name),
                      _synthetic_trace_task, name, pattern_key, mix_name,
                      preset.synthetic_ops_per_core, config),
                label="synthesize %s" % name)
    return shards


def _execute(shards: Dict[Any, Shard], failures: List[ShardError],
             progress: Optional[Callable[[str], None]] = None,
             **kwargs) -> Dict[Any, Any]:
    """Run keyed shards through :func:`run_sharded`; return the results
    by key and append every failure to ``failures``."""
    run = run_sharded(list(shards.values()), progress=progress, **kwargs)
    if progress:
        progress(run.summary())
    done = {}
    for key, value in zip(shards, run.results):
        if isinstance(value, ShardError):
            failures.append(value)
        else:
            done[key] = value
    return done


def run_suite(preset_name: str = "quick",
              config: MacrochipConfig = None,
              networks: Optional[List[str]] = None,
              workloads: Optional[List[str]] = None,
              progress: Optional[Callable[[str], None]] = None,
              workers: int = 1,
              on_error: str = "raise",
              cache_dir: Optional[str] = None,
              pool: Optional[WorkerPool] = None) -> SuiteResult:
    """Run the full (or filtered) benchmark suite.

    Unknown ``workloads`` or ``networks`` raise ``ValueError`` before
    anything is simulated.

    With ``workers > 1`` both stages parallelize: trace generation shards
    per workload, and the replay grid shards per (workload, network)
    pair, largest trace first.  Every simulation is independently seeded
    by its arguments, so the grid is identical to a serial run.  Both
    stages share one :class:`~repro.core.parallel.WorkerPool`: ``pool``
    if the caller lends one, else a pool opened for this call.

    ``on_error`` is the per-shard failure policy for both stages (see
    :func:`~repro.core.parallel.run_sharded`): under ``'collect'`` a
    failed trace build drops that workload's whole row, a failed replay
    drops one grid cell, and every failure is recorded in
    :attr:`SuiteResult.failures` instead of aborting the suite.

    ``cache_dir`` makes the run resumable (layout in the module
    docstring): only what is missing from it is simulated, and a failure
    is never saved, so the next run retries exactly the failed work.
    """
    try:
        preset = PRESETS[preset_name]
    except KeyError:
        raise KeyError("unknown preset %r; choose from %s"
                       % (preset_name, ", ".join(PRESETS))) from None
    unknown = [w for w in workloads or () if w not in WORKLOAD_ORDER]
    if unknown:
        raise ValueError("unknown workload(s) %s; choose from %s"
                         % (", ".join(map(repr, unknown)),
                            ", ".join(WORKLOAD_ORDER)))
    nets = list(dict.fromkeys(networks or FIGURE7_NETWORKS))
    check_network_keys(nets)
    wanted = [w for w in WORKLOAD_ORDER if workloads is None or w in workloads]
    cfg = config or scaled_config()
    if cache_dir is not None:
        _open_cache(cache_dir, preset, cfg)
    suite = SuiteResult(preset=preset.name, config=cfg)
    policy = dict(workers=workers, progress=progress, on_error=on_error)
    traces: Dict[str, CoherenceTrace] = {}
    cells: Dict[Tuple[str, str], ReplayResult] = {}
    for workload in wanted:
        path = _cache_file(cache_dir, "traces", workload)
        if path is not None and os.path.exists(path):
            traces[workload] = load_trace(path)
    owned = WorkerPool(workers) if pool is None else nullcontext(pool)
    with owned as shared:
        missing = [w for w in wanted if w not in traces]
        traces.update(_execute(_trace_shards(preset, cfg, missing,
                                             cache_dir),
                               suite.failures, pool=shared, **policy))
        suite.traces = {w: traces[w] for w in wanted if w in traces}
        replays: Dict[Tuple[str, str], Shard] = {}
        for workload, trace in suite.traces.items():
            for net in nets:
                path = _cache_file(cache_dir, "results",
                                   "%s__%s" % (workload, net))
                if path is not None and os.path.exists(path):
                    cells[workload, net] = _load_result(path)
                else:
                    replays[workload, net] = Shard(
                        _persisted, args=(path, replay, trace, net, cfg),
                        label="replay %s on %s" % (workload, net))
        cells.update(_execute(replays, suite.failures, pool=shared,
                              cost_key=lambda s: s.args[2].total_ops,
                              **policy))
    for workload in suite.traces:
        row = {net: cells[workload, net] for net in nets
               if (workload, net) in cells}
        if row:
            suite.results[workload] = row
    return suite
