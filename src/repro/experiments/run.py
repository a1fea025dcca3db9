"""Experiment runner CLI: regenerate every table and figure.

Usage::

    python -m repro.experiments.run --artifact all --preset quick
    python -m repro.experiments.run --artifact figure6 --out results/
    python -m repro.experiments.run --artifact figures --cache runs/quick
    python -m repro.experiments.run scaling --max-dim 32

Artifacts: ``tables`` (1, 4, 5, 6), ``figure6``, ``figures`` (7-10), or
``all``.  Output goes to stdout and, with ``--out DIR``, to one text file
per artifact.  ``--cache DIR`` makes Figures 7-10 resumable: traces and
replay results are kept in DIR, and a rerun simulates only what is
missing (see :func:`repro.experiments.evaluation.run_suite`).

The ``scaling`` command runs the scaling-limit study instead: every
network analyzed at 4x4 through ``--max-dim``, reporting the first grid
size where laser power, wavelength provisioning, or the PD-side loss
budget collapses (add ``--simulate`` to also run short simulated load
points at each feasible scale up to 16x16).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Dict

from .evaluation import run_suite
from .figure6 import figure6_text, run_figure6
from .figures7_10 import all_figures_text
from .table_experiments import all_tables_text
from ..core.parallel import WorkerPool, resolve_workers


def _progress(message: str) -> None:
    print(".. %s" % message, file=sys.stderr)


def generate(artifact: str, preset: str,
              window_ns: float, workers: int = 1,
              on_error: str = "raise",
              networks=None,
              signaling: str = "nrz",
              backend: str = "python",
              cache_dir: str = None) -> Dict[str, str]:
    """Produce {artifact_name: text} for the requested artifact set.

    One persistent worker pool serves every artifact of the invocation.

    ``on_error`` is the per-shard failure policy threaded into every
    driver (``--on-error collect`` keeps a long run alive past a raising
    shard; failures are reported on stderr and the affected cells
    dropped from the artifacts).

    ``networks`` restricts the Figure 6 sweep to the named factory keys
    (``--network hermes`` runs just the extension network); ``signaling``
    selects the line coding of the technology point (``nrz``, the
    bit-identical default, or ``pam4``) for every artifact.

    ``backend`` selects the Figure 6 execution engine (``--backend``):
    ``python`` (default) is the exact scalar event loop, ``vectorized``
    the numpy-batched fast path of :mod:`repro.core.vectorized` —
    bit-identical curves, with automatic scalar fallback where a
    network has no kernel or numpy is missing.

    ``cache_dir`` (``--cache``) keeps the Figures 7-10 traces and
    replay results on disk so an interrupted run resumes.
    """
    config = None
    if signaling != "nrz":
        from ..macrochip.config import scaled_config

        base = scaled_config()
        config = base.with_overrides(
            tech=base.tech.with_overrides(signaling=signaling))
    outputs: Dict[str, str] = {}
    if artifact in ("tables", "all"):
        outputs["tables"] = all_tables_text(config)
    with WorkerPool(workers) as shared_pool:
        if artifact in ("figure6", "all"):
            result = run_figure6(config=config, networks=networks,
                                 window_ns=window_ns, progress=_progress,
                                 workers=workers,
                                 pool=shared_pool, on_error=on_error,
                                 backend=backend)
            _progress("figure6: %d load points, %d simulator events"
                      % (result.load_points, result.total_events))
            for err in result.failures:
                _progress("figure6 FAILED shard: %s" % err)
            outputs["figure6"] = figure6_text(result)
        if artifact in ("figures", "all"):
            suite = run_suite(preset, config=config, progress=_progress,
                              workers=workers, pool=shared_pool,
                              on_error=on_error, cache_dir=cache_dir)
            for err in suite.failures:
                _progress("figures7-10 FAILED shard: %s" % err)
            outputs["figures7_10"] = all_figures_text(suite)
    if not outputs:
        raise SystemExit("unknown artifact %r (tables|figure6|figures|all)"
                         % artifact)
    return outputs


def run_scaling(max_dim: int, simulate: bool = False,
                pattern: str = "uniform",
                networks=None) -> str:
    """Produce the scaling-limit breakpoint table (the ``scaling``
    command), optionally appending short simulated load points at every
    feasible scale that is cheap enough to simulate (<= 16x16; a 32x32
    point-to-point network materializes ~1M channel-table entries and is
    covered analytically only)."""
    from .scaling import (breakpoint_table_text, scaling_sweep,
                          simulate_scale_point)

    results = scaling_sweep(networks=networks, max_dim=max_dim)
    text = breakpoint_table_text(results, max_dim=max_dim)
    if simulate:
        lines = ["", "Simulated smoke points (pattern=%s, 50 ns window, "
                     "5%% load):" % pattern]
        for res in results:
            for point in res.points:
                if point.dim > 16 or not point.feasible:
                    continue
                r = simulate_scale_point(res.network, point.dim,
                                         pattern=pattern)
                lines.append(
                    "  %-24s %2dx%-2d  %7d delivered  mean %8.2f ns  "
                    "%8.1f GB/s" % (res.network, point.dim, point.dim,
                                    r.delivered_packets, r.mean_latency_ns,
                                    r.throughput_gb_per_s))
        text += "\n" + "\n".join(lines)
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("command", nargs="?", default=None,
                        choices=["scaling"],
                        help="optional subcommand: 'scaling' runs the "
                             "scaling-limit study (breakpoint table) "
                             "instead of the artifact pipeline")
    parser.add_argument("--max-dim", type=int, default=32,
                        help="largest grid dimension for the scaling "
                             "study (sweeps 4x4, 8x8, 16x16, 32x32 up "
                             "to this bound)")
    parser.add_argument("--simulate", action="store_true",
                        help="scaling study: also run short simulated "
                             "load points at each feasible scale "
                             "(<= 16x16)")
    parser.add_argument("--pattern", default="uniform",
                        help="traffic pattern for scaling --simulate "
                             "(uniform, transpose, butterfly, neighbor, "
                             "bursty, hotspot, adversarial)")
    parser.add_argument("--artifact", default="all",
                        choices=["tables", "figure6", "figures", "all"])
    parser.add_argument("--preset", default="quick",
                        choices=["smoke", "quick", "full"],
                        help="workload sizing for figures 7-10")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="figures 7-10: keep traces and replay "
                             "results in DIR and simulate only what is "
                             "missing there (resumable runs)")
    parser.add_argument("--window-ns", type=float, default=None,
                        help="injection window for figure 6 load points")
    parser.add_argument("--out", default=None,
                        help="directory to write one .txt per artifact")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for independent "
                             "simulations (0 = one per CPU; results are "
                             "identical to --workers 1)")
    parser.add_argument("--on-error", default="raise",
                        choices=["raise", "collect"],
                        help="per-shard failure policy: raise on first "
                             "failure (default), or collect structured "
                             "ShardError records and keep going")
    parser.add_argument("--network", action="append", default=None,
                        metavar="KEY", dest="networks",
                        help="restrict the Figure 6 sweep to this network "
                             "factory key (repeatable; e.g. --network "
                             "hermes); implies --artifact figure6 unless "
                             "an artifact is named")
    parser.add_argument("--backend", default="python",
                        choices=["python", "vectorized"],
                        help="Figure 6 execution engine: python (exact "
                             "scalar event loop, default) or vectorized "
                             "(numpy-batched fast path; bit-identical "
                             "results, falls back to python per load "
                             "point when numpy or a network kernel is "
                             "missing)")
    parser.add_argument("--signaling", default="nrz",
                        choices=["nrz", "pam4"],
                        help="line coding of the technology point: nrz "
                             "(the paper's baseline; bit-identical "
                             "default) or pam4 (2 bits/symbol: double "
                             "rate per wavelength, higher detection "
                             "energy, ~4.8 dB eye penalty)")
    args = parser.parse_args(argv)

    if args.command == "scaling":
        started = time.time()
        text = run_scaling(args.max_dim, simulate=args.simulate,
                           pattern=args.pattern, networks=args.networks)
        print(text)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "scaling.txt")
            with open(path, "w") as fh:
                fh.write(text + "\n")
            print(".. wrote %s" % path, file=sys.stderr)
        print(".. done in %.1fs" % (time.time() - started), file=sys.stderr)
        return 0

    window = args.window_ns
    if window is None:
        window = {"smoke": 200.0, "quick": 500.0, "full": 1200.0}[args.preset]
    elif not 0.0 < window < math.inf:
        parser.error("--window-ns must be finite and positive, got %r"
                     % (window,))

    artifact = args.artifact
    if args.networks and artifact == "all":
        artifact = "figure6"
    if args.cache and artifact not in ("figures", "all"):
        parser.error("--cache applies to --artifact figures or all")

    started = time.time()
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    if workers > 1:
        print(".. sharding across %d workers" % workers, file=sys.stderr)
    outputs = generate(artifact, args.preset, window, workers=workers,
                       on_error=args.on_error,
                       networks=args.networks, signaling=args.signaling,
                       backend=args.backend, cache_dir=args.cache)
    for name, text in outputs.items():
        print()
        print("=" * 72)
        print(text)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "%s.txt" % name)
            with open(path, "w") as fh:
                fh.write(text + "\n")
            print(".. wrote %s" % path, file=sys.stderr)
    print(".. done in %.1fs" % (time.time() - started), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
