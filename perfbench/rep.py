"""One repetition of a benchmark workload, in a fresh process.

Usage (``run.py`` starts it with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/rep.py --workload NAME --seed N --mode timed|traced|setup

Every repetition is a new interpreter, so it starts with empty caches
(warm contexts, draw banks, kernel scratch, interned tables) and pays
the imports, like a fresh CLI invocation.  It prints one JSON record on
its last stdout line, with ``time.process_time()`` stamps (CPU seconds
since the process started) and a ``time.monotonic()`` stamp that the
parent compares with its own stamp taken just before it started this
process.

* ``timed``: run the workload, stamp the first shard submission and the
  finished artifact text, then check every shard's result.
* ``traced``: the same with the :class:`layers.LayerTrace` wrappers
  installed, adding the per-layer metrics to the record.
* ``setup``: stop at the first shard submission (a set-up probe).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")


class SetupDone(Exception):
    """Raised at the first shard submission of a set-up probe."""


def load_pins(workload: str, seed: int):
    """The seed-0 digests of ``workload`` (None at any other seed)."""
    if seed != 0:
        return None
    with open(PINS_PATH) as fh:
        return json.load(fh)[workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["timed", "traced", "setup"],
                        required=True)
    args = parser.parse_args(argv)

    import workloads

    trace = None
    if args.mode == "traced":
        from layers import LayerTrace

        trace = LayerTrace()
        trace.install(extra_modules=(workloads,))

    size, runner = workloads.WORKLOADS[args.workload]
    stamps = {}

    def first_shard() -> None:
        stamps["first_shard_cpu"] = time.process_time()
        stamps["first_shard"] = time.monotonic()
        if args.mode == "setup":
            raise SetupDone

    try:
        outcome = runner(args.seed, first_shard)
    except SetupDone:
        print(json.dumps(stamps))
        return 0
    done_cpu = time.process_time()
    done = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace is not None:
        trace.uninstall()

    pins = load_pins(args.workload, args.seed)
    problems = workloads.shard_problems(
        outcome, pins["shards"] if pins is not None else None)
    artifact = workloads.digest(outcome.text)
    if pins is not None and artifact != pins["artifact"]:
        problems["artifact"] = ("artifact digest %s, pinned %s"
                                % (artifact, pins["artifact"]))

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None

    record = {
        "first_shard_cpu": stamps["first_shard_cpu"],
        "first_shard": stamps["first_shard"],
        "done_cpu": done_cpu,
        "done": done,
        "peak_rss_mb": peak_rss_mb,
        "size": size,
        "labels": outcome.labels,
        "shard_seconds": outcome.shard_seconds,
        "shard_spans": outcome.shard_spans,
        "events": sum(getattr(r, "events_dispatched", 0)
                      for r in outcome.results),
        "digests": [workloads.digest(r) for r in outcome.results],
        "artifact": artifact,
        "problems": problems,
        "networks": outcome.networks,
        "parallel": {
            "shards": sum(len(run.reports) for run in outcome.runs),
            "failed": sum(run.failed for run in outcome.runs),
            "overhead_s": sum(run.wall_clock_s - run.total_shard_seconds
                              for run in outcome.runs),
        },
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    if trace is not None:
        record["layers"] = trace.metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
