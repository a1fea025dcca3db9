"""Self-test of the benchmark's fidelity and output checks.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/selftest.py [--write-pins]

1. Fidelity: at seed 0 each workload's artifact text is byte-equal to
   the CLI driver's (``run_figure6`` at the workload's window and
   backend, ``run_suite`` on the same Figures 7-10 subset), so the
   benchmark's shard lists measure what the CLI runs.
2. Pins: every seed-0 shard digest and artifact digest equals
   ``pins.json``.  ``--write-pins`` rewrites ``pins.json`` instead (only
   after the fidelity check passed); do that only when a change is meant
   to alter simulated results.
3. Perturbation: one perturbed result field is caught, by the digest
   check at seed 0 and by the structural check at any seed, so
   ``ok_rate`` drops below 1.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import workloads
from rep import PINS_PATH
from repro.experiments import evaluation, figure6, figures7_10
from repro.macrochip.config import scaled_config


def cli_artifact(name: str) -> str:
    """The artifact text the CLI driver produces for ``name``."""
    if name == "figs7_10_replay":
        suite = evaluation.run_suite(
            workloads.REPLAY_PRESET, config=scaled_config(),
            workloads=workloads.REPLAY_WORKLOADS)
        return figures7_10.all_figures_text(suite)
    size = workloads.WORKLOADS[name][0]
    return figure6.figure6_text(figure6.run_figure6(
        window_ns=size["window_ns"], backend=size["backend"]))


def perturbation_failures(outcome, pins) -> list:
    """Problems the checks report after perturbing one result field;
    empty means a perturbation went unnoticed."""
    failures = []
    index = next(i for i, r in enumerate(outcome.results)
                 if hasattr(r, "events_dispatched"))
    original = outcome.results[index]
    label = outcome.labels[index]
    if hasattr(original, "mean_latency_ns"):
        tweaks = {"digest": dataclasses.replace(
                      original, mean_latency_ns=original.mean_latency_ns
                      + 1e-9),
                  "structure": dataclasses.replace(
                      original,
                      delivered_packets=original.injected_packets + 1)}
    else:
        tweaks = {"digest": dataclasses.replace(
                      original, runtime_ps=original.runtime_ps + 1),
                  "structure": dataclasses.replace(
                      original, ops_completed=original.ops_completed + 1)}
    for kind, perturbed in tweaks.items():
        outcome.results[index] = perturbed
        problems = workloads.shard_problems(
            outcome, pins if kind == "digest" else None)
        outcome.results[index] = original
        rate = len(problems) / len(outcome.labels)
        print("  perturbed %s (%s check): error_rate %.4f, %s"
              % (label, kind, rate, problems.get(label)))
        if list(problems) != [label]:
            failures.append("%s check missed a perturbed %s" % (kind, label))
    return failures


def main(argv=None) -> int:
    write = "--write-pins" in (argv if argv is not None else sys.argv[1:])
    try:
        with open(PINS_PATH) as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        pins = {}
    failures = []
    fresh = {}
    for name, (size, runner) in workloads.WORKLOADS.items():
        outcome = runner(0, lambda: None)
        fresh[name] = {
            "size": size,
            "artifact": workloads.digest(outcome.text),
            "shards": {label: workloads.digest(result)
                       for label, result in zip(outcome.labels,
                                                outcome.results)},
        }
        same = cli_artifact(name) == outcome.text
        print("%s: artifact byte-equal to the CLI driver's: %s" % (name, same))
        if not same:
            failures.append("%s artifact differs from the CLI's" % name)
        if not write:
            problems = workloads.shard_problems(
                outcome, pins.get(name, {}).get("shards", {}))
            if fresh[name]["artifact"] != pins.get(name, {}).get("artifact"):
                problems["artifact"] = "artifact digest differs from pin"
            print("%s: %d of %d shards off their pins"
                  % (name, len(problems), len(outcome.labels)))
            failures.extend("%s %s: %s" % (name, label, problem)
                            for label, problem in sorted(problems.items()))
        failures.extend(perturbation_failures(
            outcome, fresh[name]["shards"]))
    if write and not failures:
        with open(PINS_PATH, "w") as fh:
            json.dump(fresh, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % PINS_PATH)
    for failure in failures:
        print("FAILED %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
