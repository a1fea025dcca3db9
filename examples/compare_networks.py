#!/usr/bin/env python
"""Compare all five network architectures on one traffic pattern.

A miniature Figure 6 panel: sweeps every network over a chosen pattern
and prints the latency-vs-load columns plus each network's sustained
bandwidth at the knee.

Run:  python examples/compare_networks.py [uniform|transpose|neighbor|butterfly]
"""

import sys

from repro import scaled_config
from repro.analysis.tables import render_table
from repro.experiments.figure6 import run_figure6
from repro.networks.factory import NETWORK_CLASSES


LOADS = {
    "uniform": [0.05, 0.25, 0.50, 0.90],
    "transpose": [0.005, 0.012, 0.03, 0.06],
    "neighbor": [0.02, 0.08, 0.16, 0.25],
    "butterfly": [0.005, 0.012, 0.03, 0.06],
}


def main(pattern_key: str) -> None:
    loads = LOADS[pattern_key]
    result = run_figure6(scaled_config(), window_ns=400.0,
                         patterns=[pattern_key],
                         load_grids={pattern_key: loads},
                         progress=lambda msg: print(msg, file=sys.stderr))
    knees = {net: best for _, net, best in result.saturation_table()}
    rows = []
    for net, points in result.curves[pattern_key].items():
        row = [NETWORK_CLASSES[net].name]
        row += ["%.1f ns" % p.mean_latency_ns for p in points]
        row.append("%.1f%%" % (knees[net] * 100))
        rows.append(row)
    headers = ["Network"] + ["%.1f%% load" % (f * 100) for f in loads]
    headers.append("sustained")
    print(render_table(headers, rows,
                       title="Latency vs offered load [%s], 64 B packets"
                             % pattern_key))


if __name__ == "__main__":
    key = sys.argv[1] if len(sys.argv) > 1 else "uniform"
    if key not in LOADS:
        raise SystemExit("pattern must be one of %s" % ", ".join(LOADS))
    main(key)
