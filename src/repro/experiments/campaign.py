"""Cached experiment campaigns.

A *campaign* is a directory-backed run of the closed-loop suite:
coherence traces are CPU-simulated once and cached on disk
(:mod:`repro.cpu.trace_io`), replay results are written as JSON, and
re-running the campaign only simulates what is missing.  This makes the
expensive full-preset runs resumable and lets ablations re-replay cached
traces with different network parameters at near-zero cost.

Layout of a campaign directory::

    campaign/
      manifest.json                 preset + config fingerprint
      traces/<workload>.json        cached coherence traces
      results/<workload>__<network>.json

The manifest records exactly what produced the cache.  Opening a
campaign directory with a different preset or :class:`MacrochipConfig`
raises :class:`CampaignStateError` (``on_stale='error'``, the default)
or wipes and rebuilds the cache (``on_stale='rebuild'``) — silently
reusing results simulated under different parameters is never an option.

Independent (workload, network) replays shard across worker processes
(``workers=N``); each simulation is fully determined by its trace,
network, and config, so the grid is identical to a serial run.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .evaluation import PRESETS, Preset, WORKLOAD_ORDER, build_traces
from ..core.parallel import Shard, ShardError, WorkerPool, run_sharded
from ..cpu.trace import CoherenceTrace
from ..cpu.trace_io import dump_trace, load_trace
from ..macrochip.config import MacrochipConfig, scaled_config
from ..macrochip.configio import config_to_dict
from ..networks.factory import FIGURE7_NETWORKS
from ..workloads.replay import replay

_MANIFEST_VERSION = 3
_MANIFEST_NAME = "manifest.json"


class CampaignStateError(RuntimeError):
    """The campaign directory was produced by different parameters."""


def campaign_fingerprint(preset: Preset,
                         config: MacrochipConfig) -> Dict[str, Any]:
    """The JSON document that uniquely identifies what a campaign ran:
    the preset sizing plus the *full* configuration (every field, not
    just overrides, so a change in defaults is also caught).  Replay
    runs on the scalar engine only, so there is no backend to record."""
    return {
        "version": _MANIFEST_VERSION,
        "preset": {
            "name": preset.name,
            "kernel_refs_per_core": preset.kernel_refs_per_core,
            "synthetic_ops_per_core": preset.synthetic_ops_per_core,
        },
        "config": config_to_dict(config, full=True),
    }


@dataclass(frozen=True)
class CampaignEntry:
    """One cached (workload, network) result."""

    workload: str
    network: str
    runtime_ps: int
    mean_op_latency_ns: float
    ops_completed: int
    messages_sent: int
    energy_by_category: Dict[str, float]
    events_dispatched: int = 0


def _replay_entry(trace: CoherenceTrace, network: str,
                  config: MacrochipConfig) -> CampaignEntry:
    """Replay one pair and flatten it to a cacheable entry (picklable
    shard body; the parent process does all file writes)."""
    result = replay(trace, network, config)
    return CampaignEntry(
        workload=trace.workload,
        network=network,
        runtime_ps=result.runtime_ps,
        mean_op_latency_ns=result.mean_op_latency_ns,
        ops_completed=result.ops_completed,
        messages_sent=result.messages_sent,
        energy_by_category=result.energy_by_category,
        events_dispatched=result.events_dispatched,
    )


class Campaign:
    """A resumable, disk-backed benchmark campaign.

    Parallel campaigns keep one persistent
    :class:`~repro.core.parallel.WorkerPool` for their whole lifetime:
    the trace build and every replay grid run on the same worker
    processes (warm-start — spin-up is paid once, and per-process caches
    survive between stages).  Call :meth:`close` — or use the campaign
    as a context manager — when done; serial campaigns (``workers=1``)
    never create processes and need no cleanup.

    ``on_error`` / ``max_retries`` / ``timeout_s`` form the campaign's
    per-shard fault policy (:class:`~repro.core.parallel.ErrorPolicy`).
    Under ``'collect'``/``'retry'`` a failed trace build or replay is
    recorded in :attr:`last_failures` and *not cached*: the grid cell
    stays missing on disk, so the next :meth:`run` of the same campaign
    naturally retries exactly the failed work — resumability doubles as
    failure recovery.
    """

    def __init__(self, directory: str,
                 preset_name: str = "quick",
                 config: MacrochipConfig = None,
                 workers: int = 1,
                 on_stale: str = "error",
                 on_error: str = "raise",
                 max_retries: int = 2,
                 timeout_s: Optional[float] = None) -> None:
        if on_stale not in ("error", "rebuild"):
            raise ValueError("on_stale must be 'error' or 'rebuild', got %r"
                             % on_stale)
        self.directory = directory
        self.preset = PRESETS[preset_name]
        self.config = config or scaled_config()
        self.workers = workers
        self.on_error = on_error
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        #: ShardErrors from the most recent ensure_traces()/run() call
        self.last_failures: List[ShardError] = []
        self._pool: Optional[WorkerPool] = None
        self.traces_dir = os.path.join(directory, "traces")
        self.results_dir = os.path.join(directory, "results")
        os.makedirs(self.traces_dir, exist_ok=True)
        os.makedirs(self.results_dir, exist_ok=True)
        self._check_manifest(on_stale)

    # -- worker pool ---------------------------------------------------------

    def _get_pool(self, n_workers: int) -> Optional[WorkerPool]:
        """The campaign's persistent pool, (re)built lazily.  A call
        that overrides the worker count replaces the pool; serial calls
        return None (run_sharded handles workers=1 in-process)."""
        if n_workers <= 1:
            return None
        if self._pool is not None and self._pool.workers != n_workers:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = WorkerPool(n_workers)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- manifest ------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST_NAME)

    def fingerprint(self) -> Dict[str, Any]:
        return campaign_fingerprint(self.preset, self.config)

    def _check_manifest(self, on_stale: str) -> None:
        """Validate the cache against this campaign's parameters; write
        the manifest on first use."""
        expected = self.fingerprint()
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as fh:
                found = json.load(fh)
            if found == expected:
                return
            if on_stale == "error":
                raise CampaignStateError(
                    "campaign directory %r was produced by a different "
                    "preset/config (manifest mismatch); rerun with "
                    "on_stale='rebuild' to discard the stale cache, or "
                    "point the campaign at a fresh directory"
                    % self.directory)
            # on_stale == 'rebuild': discard everything the old
            # parameters produced
            shutil.rmtree(self.traces_dir, ignore_errors=True)
            shutil.rmtree(self.results_dir, ignore_errors=True)
            os.makedirs(self.traces_dir, exist_ok=True)
            os.makedirs(self.results_dir, exist_ok=True)
        elif self.completed_pairs() or os.listdir(self.traces_dir):
            # pre-manifest cache of unknown provenance: same policy
            if on_stale == "error":
                raise CampaignStateError(
                    "campaign directory %r has cached files but no "
                    "manifest; cannot verify they match this "
                    "preset/config.  Rerun with on_stale='rebuild' to "
                    "discard them" % self.directory)
            shutil.rmtree(self.traces_dir, ignore_errors=True)
            shutil.rmtree(self.results_dir, ignore_errors=True)
            os.makedirs(self.traces_dir, exist_ok=True)
            os.makedirs(self.results_dir, exist_ok=True)
        with open(self.manifest_path, "w") as fh:
            json.dump(expected, fh, indent=2, sort_keys=True)

    # -- traces --------------------------------------------------------------

    def _trace_path(self, workload: str) -> str:
        return os.path.join(self.traces_dir, "%s.json" % workload)

    def ensure_traces(self,
                      progress: Optional[Callable[[str], None]] = None,
                      workers: Optional[int] = None,
                      workloads: Optional[List[str]] = None
                      ) -> Dict[str, CoherenceTrace]:
        """Load cached traces; CPU-simulate and cache **only** the
        missing workloads (a partially populated cache is resumed, never
        rebuilt from scratch).  ``workloads`` restricts both to the
        named workloads (default: all of them)."""
        cached: Dict[str, CoherenceTrace] = {}
        missing: List[str] = []
        self.last_failures = []
        for workload in WORKLOAD_ORDER:
            if workloads is not None and workload not in workloads:
                continue
            path = self._trace_path(workload)
            if os.path.exists(path):
                cached[workload] = load_trace(path)
            else:
                missing.append(workload)
        if missing:
            n_workers = self.workers if workers is None else workers
            fresh = build_traces(
                self.preset, self.config, progress,
                workloads=missing, workers=n_workers,
                pool=self._get_pool(n_workers),
                on_error=self.on_error, max_retries=self.max_retries,
                timeout_s=self.timeout_s, failures=self.last_failures)
            for workload, trace in fresh.items():
                dump_trace(trace, self._trace_path(workload))
                cached[workload] = trace
        return cached

    # -- results -------------------------------------------------------------

    def _result_path(self, workload: str, network: str) -> str:
        return os.path.join(self.results_dir,
                            "%s__%s.json" % (workload, network))

    def _load_entry(self, path: str) -> CampaignEntry:
        with open(path) as fh:
            doc = json.load(fh)
        return CampaignEntry(**doc)

    def run(self,
            networks: Optional[List[str]] = None,
            workloads: Optional[List[str]] = None,
            progress: Optional[Callable[[str], None]] = None,
            workers: Optional[int] = None
            ) -> Dict[str, Dict[str, CampaignEntry]]:
        """Replay every missing (workload, network) pair; return the
        complete grid (cached + fresh).  Missing pairs shard across
        ``workers`` processes (defaulting to the campaign's setting).
        ``workloads`` restricts the grid, and the traces built for it,
        to the named workloads."""
        nets = networks or list(FIGURE7_NETWORKS)
        n_workers = self.workers if workers is None else workers
        traces = self.ensure_traces(progress, workers=n_workers,
                                    workloads=workloads)
        grid: Dict[str, Dict[str, CampaignEntry]] = {}
        todo: List[Shard] = []
        for workload, trace in traces.items():
            grid[workload] = {}
            for net in nets:
                path = self._result_path(workload, net)
                if os.path.exists(path):
                    grid[workload][net] = self._load_entry(path)
                    continue
                if progress:
                    progress("replay %s on %s" % (workload, net))
                todo.append(Shard(
                    _replay_entry, args=(trace, net, self.config),
                    label="replay %s on %s" % (workload, net)))
        # biggest traces first: replay cost scales with coherence-op
        # count, and a late-submitted big workload would otherwise leave
        # the pool idling on a one-shard tail (results are keyed by
        # index, so ordering never changes them)
        run = run_sharded(todo, workers=n_workers,
                          cost_key=lambda s: s.args[0].total_ops,
                          pool=self._get_pool(n_workers),
                          on_error=self.on_error,
                          max_retries=self.max_retries,
                          timeout_s=self.timeout_s)
        for entry in run.results:
            if isinstance(entry, ShardError):
                # never cache a failure: the pair stays missing on disk,
                # so the next run() of this campaign retries it
                self.last_failures.append(entry)
                continue
            with open(self._result_path(entry.workload,
                                        entry.network), "w") as fh:
                json.dump(entry.__dict__, fh)
            grid[entry.workload][entry.network] = entry
        return grid

    def completed_pairs(self) -> int:
        return len([f for f in os.listdir(self.results_dir)
                    if f.endswith(".json")])

    def speedup_table(self, grid: Dict[str, Dict[str, CampaignEntry]],
                      baseline: str = "circuit_switched"
                      ) -> Dict[str, Dict[str, float]]:
        """Figure 7 speedups straight from a campaign grid."""
        out: Dict[str, Dict[str, float]] = {}
        for workload, by_net in grid.items():
            if baseline not in by_net:
                continue
            base = by_net[baseline].runtime_ps
            out[workload] = {net: base / e.runtime_ps
                             for net, e in by_net.items()}
        return out
