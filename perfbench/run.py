"""Layered benchmark of the simulator: Figure 6 on both engines and the
Figures 7-10 closed-loop replay, timed end to end and per module.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig6_python --seed 0 --seconds 30 --trace 0

Workloads (each runs the public functions the CLI runs, serially,
``workers=1``):

* ``fig6_python``: the full fixed-grid Figure 6 (4 patterns x the 5
  ``FIGURE6_NETWORKS`` at the ``LOAD_GRIDS`` loads, 205 load points) on
  the default scalar engine, warm, 40 ns injection window.  Supersedes
  the warm arm of ``benchmarks/bench_sweep.py --mode warm``.
* ``fig6_vectorized``: the same grid on ``backend="vectorized"`` with a
  160 ns window, so kernel time outweighs the fixed cost per load point.
  Supersedes ``--mode vectorized`` and ``--mode vectorized2``.  It fails
  if numpy is missing.
* ``figs7_10_replay``: the Figures 7-10 pipeline at the ``smoke`` preset
  on Radix (traced through the CPU simulator), All-to-all and Neighbor,
  each replayed on all six ``FIGURE7_NETWORKS``.  No old mode covered it.

``--mode adaptive`` (knee refinement) and ``--mode scaling`` (events/s
from 4x4 to 16x16 grids) have no successor here.

End-to-end metrics (tracing off).  Every time is CPU time of the
single-threaded repetition process, which never waits on anything, so
on an unshared host it is the wall time a CLI user waits.  It is scaled
to a nominal host speed by a reference loop sampled on the same CPU
while the repetition runs (``HostSpeed``): the shared host changes its
speed by ~1.75x from one moment to the next, which moved the unscaled
times by a third between runs of the same code.  The probe takes ~15%
of the CPU, so a repetition's host wall time (in the details line) is
longer than its ``wall_s``.

* ``wall_s``: process start to finished artifact text, what a CLI user
  waits for.
* ``events_per_s``: simulated events (the results' deterministic
  ``events_dispatched``) per ``wall_s`` second; moves with the engine
  and kernels, not with the amount of work.
* ``setup_s``: process start to the first shard submitted (imports,
  numpy included, ``scaled_config``, pattern and kernel construction),
  the median over at least five fresh processes; shows work moved out
  of the shards.
* ``shard_p50_ms`` / ``shard_tail_ms``: median time of one shard (a
  load point, trace build or replay), and the highest percentile of it
  that leaves ten shards of a repetition beyond it (p95.1 of 205 on
  Figure 6; on the 21 shards of the replay workload that is the median).
* ``peak_rss_mb``: peak resident memory of a repetition.
* ``ok_rate``: 1 - error rate, the share of shards that ran and passed
  the output check (an error rate of 0 has no relative spread).

Per-layer metrics (``--trace 1``) come from ``layers.LayerTrace``;
``parallel.*`` and ``networks.<key>_s`` come from the shard reports.
Each names the module it times: ``engine.*`` should move ``wall_s`` on
``fig6_python`` and ``figs7_10_replay`` and is 0 on ``fig6_vectorized``;
``vectorized.*`` moves only ``fig6_vectorized``; ``sweep.*`` moves both
Figure 6 workloads and ``peak_rss_mb``; ``parallel.*`` moves ``wall_s``
and ``shard_p50_ms`` on Figure 6; ``networks.*`` moves ``shard_tail_ms``
on ``fig6_python`` and ``wall_s`` on the replay; ``cpu.*`` and
``workloads.*`` move only ``figs7_10_replay``; ``experiments.render_s``
moves every ``wall_s`` slightly.  ``trace.*`` is the traced and untraced
``wall_s`` and the overhead between them.  Counts are deterministic, so
two commits compare them exactly.

Each repetition runs in a fresh interpreter (``rep.py``), so it starts
with empty caches like a CLI invocation.  Repetitions repeat until
``--seconds`` would be exceeded (at least one), and the result line
reports medians.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` alternates untraced and traced repetitions (at least one of each)
and reports the per-layer metrics of the traced ones, the tracing
overhead, and whether tracing reproduced the untraced results.

Seed 0 runs every simulation at its library default seed, so its
artifact is byte-equal to the CLI's; its shard results and artifact are
checked against the digests in ``pins.json``.  Other seeds get
structural checks (every shard returns a result, delivered <= injected,
a replay completes every non-writeback op of its trace).  Every
repetition of a run must also produce the same digests.
``perfbench/selftest.py`` proves the seed-0 artifacts equal the CLI
drivers' and that a perturbed result is caught.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries provenance and
the details behind the numbers.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fig6_python", "fig6_vectorized", "figs7_10_replay")
#: FIGURE7_NETWORKS (a superset of FIGURE6_NETWORKS), one
#: ``networks.<key>_s`` metric each
NETWORK_KEYS = ("token_ring", "circuit_switched", "point_to_point",
                "limited_point_to_point", "two_phase", "two_phase_alt")
#: set-up time is the median of at least this many fresh processes
SETUP_SAMPLES = 5
#: a tail percentile must leave this many samples beyond it
TAIL_SAMPLES_BEYOND = 10
#: every child must end this long after the run started
RUN_LIMIT_S = 170.0
#: CPU seconds one reference slice takes on the nominal host; timings are
#: reported as if measured there (see :class:`HostSpeed`)
REFERENCE_NOMINAL_S = 0.001
#: pause between reference slices, so the probe takes ~15% of the CPU
PROBE_GAP_S = 0.008
#: a shard is scaled by the reference slices this close to it
LOCAL_WINDOW_S = 0.02

_DELAYS = {i: (i * 7919) % 1021 for i in range(1024)}
#: objects spread over a few MB, of which each slice reads a scattered
#: 512 that the child evicted from the caches since the last slice
_TABLE = [float(i) for i in range(1 << 18)]
_SCATTER = [(i * 40503) & ((1 << 18) - 1) for i in range(1 << 9)]


class _Item:
    __slots__ = ("when", "hops")

    def __init__(self, when: float, hops: int) -> None:
        self.when = when
        self.hops = hops


def reference_slice() -> int:
    """A fixed amount of interpreter work shaped like the simulator's
    event loop (heap pushes and pops of tuples, slot-attribute access,
    dict lookups, closure calls, int and float arithmetic), then
    scattered reads of :data:`_TABLE`.  It lives in the benchmark, so no
    change to the program moves it."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    now = 0.0
    total = 0

    def forward(item: _Item) -> int:
        item.hops += 1
        return item.hops & 7

    for i in range(1200):
        item = _Item(now + _DELAYS[i & 1023] * 0.5, i & 3)
        push(heap, (item.when, i, item))
        if len(heap) > 64:
            now, _, item = pop(heap)
            total += forward(item)
    table = _TABLE
    for j in _SCATTER:
        now += table[j]
    return total


class HostSpeed:
    """Reference slices timed on a thread of this process while a
    repetition runs in its child on the same CPU (:func:`main` pins
    both).

    The shared host runs this CPU at a fast or a slow speed, switching
    every few to few hundred milliseconds in a mix that drifts over
    minutes, without reporting it as steal time: CPU time inflates with
    wall time.  Interpreter work slows ~1.75x, and reads of data other
    work has evicted from the caches slow 3-5x, so the reference slice
    mixes both, as the simulator does.  Slices sampled every
    :data:`PROBE_GAP_S` see the same mix of speeds as the child, so
    scaling the child's CPU times by :meth:`factor` cancels the drift
    and leaves every change to the program's own speed in the numbers.
    Set-up and each shard, often shorter than one speed phase, are
    scaled by the slices near them instead (:meth:`local_factor`)."""

    def __init__(self) -> None:
        #: monotonic midpoint of each slice, and its CPU seconds
        self.times: List[float] = []
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, daemon=True)

    def _probe(self) -> None:
        clock = time.thread_time
        while True:
            started = time.monotonic()
            begun = clock()
            reference_slice()
            self.samples.append(clock() - begun)
            self.times.append(0.5 * (started + time.monotonic()))
            if self._stop.wait(PROBE_GAP_S):
                return

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        return _factor(self.samples)

    def local_factor(self, begin: float, end: float) -> float:
        """The factor from the slices within :data:`LOCAL_WINDOW_S` of
        the monotonic interval [begin, end] (:meth:`factor` if none)."""
        first = bisect.bisect_left(self.times, begin - LOCAL_WINDOW_S)
        last = bisect.bisect_right(self.times, end + LOCAL_WINDOW_S)
        return _factor(self.samples[first:last] or self.samples)


def _factor(samples: List[float]) -> float:
    """Nominal over measured speed, averaged over time: CPU seconds at
    speed ``1/s`` do ``1/s`` work each, so the mean of ``1/s`` (not ``1 /
    mean(s)``) converts them to work."""
    return REFERENCE_NOMINAL_S * statistics.fmean(1.0 / s for s in samples)


def rescale(record: dict, speed: HostSpeed) -> None:
    """Scale a repetition's timings to the nominal host: set-up and each
    shard by their :meth:`HostSpeed.local_factor`, the rest by the
    repetition's :meth:`HostSpeed.factor` (the unscaled ``wall_s`` stays
    under ``raw_wall_s``)."""
    factor = speed.factor()
    record["host_factor"] = factor
    record["setup_s"] *= speed.local_factor(record["spawned"],
                                            record["first_shard"])
    if "wall_s" in record:
        record["raw_wall_s"] = record["wall_s"]
        record["wall_s"] *= factor
    if "shard_seconds" in record:
        record["shard_seconds"] = [
            s * speed.local_factor(*span)
            for s, span in zip(record["shard_seconds"],
                               record["shard_spans"])]
    layers = record.get("layers")
    if layers is not None:
        for name, value in layers.items():
            if name.endswith("per_s"):
                layers[name] = value / factor
            elif name.endswith("_s"):
                layers[name] = value * factor
    if "parallel" in record:
        record["parallel"]["overhead_s"] *= factor


class BenchmarkError(RuntimeError):
    """A repetition could not run; the benchmark prints no result."""


def spawn(workload: str, seed: int, mode: str, started: float) -> dict:
    """Run one repetition in a fresh process and return its record, with
    ``setup_s`` (and ``wall_s``) the CPU time of the process up to its
    first shard (and its artifact), scaled to the nominal host."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode]
    with HostSpeed() as speed:
        spawned = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, RUN_LIMIT_S - (spawned - started)))
        except subprocess.TimeoutExpired:
            raise BenchmarkError("%s repetition of %s ran out of time"
                                 % (mode, workload)) from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        raise BenchmarkError("%s repetition of %s exited with %d:\n%s"
                             % (mode, workload, proc.returncode, err[-4000:]))
    record = json.loads(out.strip().splitlines()[-1])
    record["mode"] = mode
    record["spawned"] = spawned
    record["setup_s"] = record["first_shard_cpu"]
    if "done" in record:
        record["wall_s"] = record["done_cpu"]
        record["host_wall_s"] = record["done"] - spawned
    rescale(record, speed)
    return record


def repetitions(workload: str, seed: int, seconds: int, trace: bool,
                started: float) -> List[dict]:
    """Repetitions until the next would overrun ``seconds`` (``trace``
    alternates untraced and traced ones), then set-up probes until
    :data:`SETUP_SAMPLES` processes have measured set-up."""
    cycle = ["timed", "traced"] if trace else ["timed"]
    records = []
    longest = 0.0
    while True:
        begun = time.monotonic()
        records.append(spawn(workload, seed, cycle[len(records) % len(cycle)],
                             started))
        longest = max(longest, time.monotonic() - begun)
        if (len(records) >= len(cycle)
                and time.monotonic() + longest > started + seconds):
            break
    while len(records) < SETUP_SAMPLES:
        records.append(spawn(workload, seed, "setup", started))
    return records


def tail_rank(n: int) -> int:
    """Sorted index of the highest percentile of ``n`` samples that
    leaves :data:`TAIL_SAMPLES_BEYOND` samples above it (the maximum
    when there are too few)."""
    return max(0, n - TAIL_SAMPLES_BEYOND - 1)


def check(records: List[dict], workload: str):
    """(attempted, failed, problems): shards attempted over every
    repetition, and those failing the output check, failing to repeat
    the first repetition's digests, or breaking a layer guard."""
    runs = [r for r in records if "digests" in r]
    reference = runs[0]
    attempted = 0
    problems: List[str] = []
    for record in runs:
        attempted += len(record["labels"])
        bad = dict(record["problems"])
        for label, got, want in zip(record["labels"], record["digests"],
                                    reference["digests"]):
            if got != want and label not in bad:
                bad[label] = ("%s repetition digest %s differs from %s"
                              % (record["mode"], got, want))
        if record["artifact"] != reference["artifact"] and "artifact" not in bad:
            bad["artifact"] = "artifact text differs between repetitions"
        layers = record.get("layers")
        if (layers is not None and workload == "fig6_vectorized"
                and layers["vectorized.fallbacks"]):
            bad["vectorized.fallbacks"] = ("%d load points reached "
                                           "Simulator.run"
                                           % layers["vectorized.fallbacks"])
        problems.extend("%s: %s" % item for item in sorted(bad.items()))
    return attempted, len(problems), problems


def end_to_end(records: List[dict]) -> Dict[str, float]:
    timed = [r for r in records if r["mode"] == "timed"]
    walls = [r["wall_s"] for r in timed]
    return {
        "wall_s": statistics.median(walls),
        "events_per_s": statistics.median(
            r["events"] / r["wall_s"] for r in timed),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "shard_p50_ms": 1000.0 * statistics.median(
            statistics.median(r["shard_seconds"]) for r in timed),
        "shard_tail_ms": 1000.0 * statistics.median(
            sorted(r["shard_seconds"])[tail_rank(len(r["shard_seconds"]))]
            for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }


def per_layer(records: List[dict]) -> Dict[str, float]:
    traced = [r for r in records if r["mode"] == "traced"]
    untraced_wall = statistics.median(
        r["wall_s"] for r in records if r["mode"] == "timed")
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    for name in ("shards", "failed", "overhead_s"):
        metrics["parallel." + name] = statistics.median(
            r["parallel"][name] for r in traced)
    for key in NETWORK_KEYS:
        metrics["networks.%s_s" % key] = statistics.median(
            sum(s for net, s in zip(r["networks"], r["shard_seconds"])
                if net == key)
            for r in traced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall
                                             - 1.0)
    return metrics


def provenance(records: List[dict], args, nproc: int) -> dict:
    """Where and how these numbers were produced."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    sized = next(r for r in records if "size" in r)
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": nproc,
        "python": sized["python"],
        "numpy": sized["numpy"],
        "platform": platform.platform(),
        "workload": args.workload,
        "size": sized["size"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
    }


def declared_units(trace: bool) -> Dict[str, str]:
    """name -> unit of the metrics ``BENCHMARK.json`` declares for a
    traced (per-layer) or untraced (end-to-end) run, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered benchmark: Figure 6 on both engines and the "
                    "Figures 7-10 replay.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no simulator sources at %s; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        return 2

    available = sorted(os.sched_getaffinity(0))
    # the repetitions (children inherit it) and the HostSpeed probe
    # share one CPU, so the probe sees the speed the child runs at
    os.sched_setaffinity(0, available[:1])
    started = time.monotonic()
    try:
        records = repetitions(args.workload, args.seed, args.seconds,
                              bool(args.trace), started)
    except BenchmarkError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    attempted, failed, problems = check(records, args.workload)
    timed = [r for r in records if r["mode"] == "timed"]
    shards = len(timed[0]["shard_seconds"])
    if args.trace:
        metrics = per_layer(records)
    else:
        metrics = end_to_end(records)
        metrics["ok_rate"] = 1.0 - failed / attempted
    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        print("perfbench: measured metrics %s do not match BENCHMARK.json"
              % sorted(set(units) ^ set(metrics)), file=sys.stderr)
        return 1
    details = {
        "provenance": provenance(records, args, len(available)),
        "repetitions": {mode: sum(1 for r in records if r["mode"] == mode)
                        for mode in ("timed", "traced", "setup")},
        "shards_per_repetition": shards,
        "shard_tail_percentile": 100.0 * (tail_rank(shards) + 1) / shards,
        "tail_samples_beyond": shards - tail_rank(shards) - 1,
        "error_rate": failed / attempted,
        "problems": problems[:20],
        "wall_s": [r["wall_s"] for r in timed],
        "cpu_s": [r["raw_wall_s"] for r in timed],
        "host_wall_s": [r["host_wall_s"] for r in timed],
        "host_factor": [r["host_factor"] for r in records],
    }
    print(json.dumps(details))
    for line in problems[:20]:
        print("perfbench: FAILED %s" % line, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
