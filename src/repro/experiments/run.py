"""Experiment runner CLI: regenerate every table and figure.

Usage::

    python -m repro.experiments.run --artifact all --preset quick
    python -m repro.experiments.run --artifact figure6 --out results/
    python -m repro.experiments.run scaling --max-dim 32

Artifacts: ``tables`` (1, 4, 5, 6), ``figure6``, ``figures`` (7-10), or
``all``.  Output goes to stdout and, with ``--out DIR``, to one text file
per artifact.

The ``scaling`` command runs the scaling-limit study instead: every
network analyzed at 4x4 through ``--max-dim``, reporting the first grid
size where laser power, wavelength provisioning, or the PD-side loss
budget collapses.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Dict

from .evaluation import run_suite
from .figure6 import check_figure6_grid, figure6_text, run_figure6
from .figures7_10 import all_figures_text
from .scaling import SCALING_DIMS, breakpoint_table_text, scaling_sweep
from .table_experiments import all_tables_text
from ..core.parallel import resolve_workers
from ..macrochip.config import scaled_config
from ..networks.factory import check_network_keys


def _progress(message: str) -> None:
    print(".. %s" % message, file=sys.stderr)


def generate(artifact: str, preset: str,
              window_ns: float, workers: int = 1,
              on_error: str = "raise",
              networks=None,
              backend: str = "python") -> Dict[str, str]:
    """Produce {artifact_name: text} for the requested artifact set.

    ``workers`` is passed to every driver; each one starts and stops its
    own worker processes.

    ``on_error`` is the per-shard failure policy threaded into every
    driver (``--on-error collect`` keeps a long run alive past a raising
    shard; failures are reported on stderr and the affected cells
    dropped from the artifacts).

    ``networks`` restricts the Figure 6 sweep to the named factory keys
    (``--network two_phase`` runs just the two-phase network).

    ``backend`` selects the Figure 6 execution engine (``--backend``):
    ``python`` (default) is the exact scalar event loop, ``vectorized``
    the numpy-batched fast path of :mod:`repro.core.vectorized` —
    bit-identical curves, with automatic scalar fallback where a
    network has no kernel or numpy is missing.
    """
    outputs: Dict[str, str] = {}
    if artifact in ("tables", "all"):
        outputs["tables"] = all_tables_text()
    if artifact in ("figure6", "all"):
        result = run_figure6(networks=networks,
                             window_ns=window_ns, progress=_progress,
                             workers=workers, on_error=on_error,
                             backend=backend)
        _progress("figure6: %d load points, %d simulator events"
                  % (result.load_points, result.total_events))
        for err in result.failures:
            _progress("figure6 FAILED shard: %s" % err)
        outputs["figure6"] = figure6_text(result)
    if artifact in ("figures", "all"):
        suite = run_suite(preset, progress=_progress, workers=workers,
                          on_error=on_error)
        for err in suite.failures:
            _progress("figures7-10 FAILED shard: %s" % err)
        outputs["figures7_10"] = all_figures_text(suite)
    if not outputs:
        raise SystemExit("unknown artifact %r (tables|figure6|figures|all)"
                         % artifact)
    return outputs


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
    parser.add_argument("--artifact", default="all",
                        choices=["tables", "figure6", "figures", "all"])
    parser.add_argument("--preset", default="quick",
                        choices=["smoke", "quick", "full"],
                        help="workload sizing for figures 7-10")
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
                             "two_phase); implies --artifact figure6 "
                             "unless an artifact is named")
    parser.add_argument("--backend", default="python",
                        choices=["python", "vectorized"],
                        help="Figure 6 execution engine: python (exact "
                             "scalar event loop, default) or vectorized "
                             "(numpy-batched fast path; bit-identical "
                             "results, falls back to python per load "
                             "point when numpy or a network kernel is "
                             "missing)")
    args = parser.parse_args(argv)
    if args.networks:
        try:
            check_network_keys(args.networks)
        except ValueError as exc:
            parser.error(str(exc))

    if args.command == "scaling":
        if args.max_dim < SCALING_DIMS[0]:
            parser.error("--max-dim %d admits no scale (smallest is %d)"
                         % (args.max_dim, SCALING_DIMS[0]))
        started = time.time()
        results = scaling_sweep(networks=args.networks,
                                max_dim=args.max_dim)
        text = breakpoint_table_text(results, max_dim=args.max_dim)
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
    if artifact in ("figure6", "all"):
        # the same grid check run_figure6 makes, as a usage error
        # before anything is simulated
        try:
            check_figure6_grid(scaled_config(), window)
        except ValueError as exc:
            parser.error("--window-ns %r is too short for Figure 6: %s"
                         % (window, exc))

    started = time.time()
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    if workers > 1:
        print(".. sharding across %d workers" % workers, file=sys.stderr)
    outputs = generate(artifact, args.preset, window, workers=workers,
                       on_error=args.on_error,
                       networks=args.networks,
                       backend=args.backend)
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
