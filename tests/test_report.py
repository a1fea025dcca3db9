"""Tests for the markdown report generator."""

import pytest

from repro.analysis.report import (
    edp_markdown,
    figure6_markdown,
    latency_markdown,
    markdown_table,
    speedup_markdown,
    suite_markdown,
)
from repro.experiments.evaluation import run_suite
from repro.experiments.figure6 import run_figure6
from repro.macrochip.config import small_test_config


def test_markdown_table_shape():
    text = markdown_table(["A", "B"], [["1", "2"], ["3", "4"]])
    lines = text.splitlines()
    assert lines[0] == "| A | B |"
    assert lines[1] == "|---|---|"
    assert len(lines) == 4


def test_markdown_table_validation():
    with pytest.raises(ValueError):
        markdown_table([], [])
    with pytest.raises(ValueError):
        markdown_table(["A"], [["1", "2"]])


def test_suite_markdown_end_to_end():
    cfg = small_test_config(2, 2)
    suite = run_suite("smoke", config=cfg,
                      networks=["point_to_point", "circuit_switched",
                                "limited_point_to_point"],
                      workloads=["Barnes"])
    text = suite_markdown(suite)
    assert "### Figure 7" in text
    assert "### Figure 8" in text
    assert "### Figure 9" in text
    assert "### Figure 10" in text
    assert "Barnes" in text
    assert "| Workload |" in text


def test_missing_cell_renders_as_dash():
    """A (workload, network) cell dropped by a collected failure renders
    as '-' in every grid, as does a row normalized to a missing
    baseline; every other cell is unchanged."""
    nets = ["token_ring", "circuit_switched", "point_to_point"]
    suite = run_suite("smoke", config=small_test_config(2, 2),
                      networks=nets, workloads=["All-to-all", "Neighbor"])
    grids = (speedup_markdown, latency_markdown, edp_markdown)

    def cells(render):
        # title, blank line, header and rule come before the rows
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in render(suite).splitlines()[4:]]
        return {row[0]: row[1:] for row in rows}

    before = [cells(render) for render in grids]
    del suite.results["All-to-all"]["token_ring"]
    del suite.results["Neighbor"]["circuit_switched"]  # Figure 7 baseline
    after = [cells(render) for render in grids]
    dashed = [{"All-to-all": {0}, "Neighbor": {0, 1, 2}},
              {"All-to-all": {0}, "Neighbor": {1}},
              {"All-to-all": {0}, "Neighbor": {1}}]
    for was, now, dash in zip(before, after, dashed):
        assert set(now) == {"All-to-all", "Neighbor"}
        for workload, row in was.items():
            assert now[workload] == ["-" if i in dash[workload] else cell
                                     for i, cell in enumerate(row)], workload


def test_figure6_markdown():
    cfg = small_test_config(4, 4)
    res = run_figure6(cfg, window_ns=80.0, patterns=["uniform"],
                      networks=["point_to_point"],
                      load_grids={"uniform": [0.05]})
    text = figure6_markdown(res)
    assert "### Figure 6" in text
    assert "Point-to-Point" in text
