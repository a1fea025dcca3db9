"""Tests for the experiment drivers (tables, figure 6, figures 7-10)."""

import pytest

from repro.experiments.evaluation import (
    PRESETS,
    WORKLOAD_ORDER,
    run_suite,
)
from repro.experiments.figure6 import (
    LOAD_GRIDS,
    PANEL_ORDER,
    figure6_text,
    run_figure6,
)
from repro.experiments.figures7_10 import (
    all_figures_text,
    figure7_speedups,
    figure8_latencies,
    figure9_router_fractions,
    figure10_edp,
)
from repro.experiments.table_experiments import (
    all_tables_text,
    table1_text,
    table4_text,
    table5_text,
    table6_text,
)
from repro.macrochip.config import small_test_config
from repro.networks.factory import FIGURE6_NETWORKS, FIGURE7_NETWORKS


class TestTableTexts:
    def test_table1_mentions_components(self):
        text = table1_text()
        for name in ["Modulator", "OPxC", "Drop Filter", "Receiver"]:
            assert name in text
        assert "35 fJ/bit" in text
        assert "4 dB" in text

    def test_table4_values(self):
        text = table4_text()
        assert "320 GB/sec" in text
        assert "20 TB/sec" in text

    def test_table5_networks(self):
        text = table5_text()
        assert "Token-Ring" in text
        assert "19.1x" in text

    def test_table6_counts(self):
        text = table6_text()
        assert "512K" in text
        assert "3072" in text
        assert "16K" in text

    def test_all_tables_concatenates(self):
        text = all_tables_text()
        for t in ["Table 1", "Table 4", "Table 5", "Table 6"]:
            assert t in text


class TestFigure6:
    def test_grids_cover_paper_axes(self):
        assert set(LOAD_GRIDS) == set(PANEL_ORDER)
        assert max(LOAD_GRIDS["uniform"]) <= 1.0
        assert max(LOAD_GRIDS["transpose"]) <= 0.06
        assert max(LOAD_GRIDS["neighbor"]) <= 0.25

    def test_tiny_run_produces_curves(self):
        cfg = small_test_config(4, 4)
        res = run_figure6(cfg, window_ns=100.0,
                          patterns=["uniform"],
                          networks=["point_to_point", "token_ring"],
                          load_grids={"uniform": [0.05, 0.2]})
        curves = res.curves["uniform"]
        assert set(curves) == {"point_to_point", "token_ring"}
        assert len(curves["point_to_point"]) == 2
        text = figure6_text(res)
        assert "Figure 6 [uniform]" in text
        assert "sustained" in text.lower()

    def test_saturation_table(self):
        cfg = small_test_config(4, 4)
        res = run_figure6(cfg, window_ns=100.0, patterns=["uniform"],
                          networks=["point_to_point"],
                          load_grids={"uniform": [0.05]})
        rows = res.saturation_table()
        assert rows[0][0] == "uniform"
        assert rows[0][2] > 0

    @pytest.fixture
    def no_load_points(self, monkeypatch):
        import repro.experiments.figure6 as figure6

        def never(*args, **kwargs):
            raise AssertionError("ran a load point before validating input")

        monkeypatch.setattr(figure6, "run_load_point", never)

    def test_unknown_network_rejected_before_any_shard(self,
                                                       no_load_points):
        """Even under on_error='collect', an unknown network is an
        argument error, not 41 failed shards and a KeyError later."""
        with pytest.raises(ValueError) as exc:
            run_figure6(small_test_config(4, 4), networks=["nope"],
                        on_error="collect")
        message = str(exc.value)
        assert "'nope'" in message
        assert all(net in message for net in FIGURE6_NETWORKS)

    def test_unknown_pattern_rejected_before_any_shard(self,
                                                       no_load_points):
        with pytest.raises(ValueError) as exc:
            run_figure6(small_test_config(4, 4), patterns=["unifrom"])
        message = str(exc.value)
        assert "'unifrom'" in message
        assert all(name in message for name in PANEL_ORDER)

    def test_load_grids_missing_a_pattern_rejected(self, no_load_points):
        with pytest.raises(ValueError) as exc:
            run_figure6(small_test_config(4, 4),
                        patterns=["uniform", "transpose"],
                        load_grids={"transpose": [0.01]})
        message = str(exc.value)
        assert "'uniform'" in message
        assert "'transpose'" in message  # the grids it does have


class TestSuite:
    def test_presets_defined(self):
        assert set(PRESETS) == {"full", "quick", "smoke"}

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            run_suite("bogus")

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        import repro.experiments.evaluation as evaluation

        def never(*args, **kwargs):
            raise AssertionError("simulated before validating input")

        for name in ("_kernel_trace_task", "_synthetic_trace_task",
                     "replay"):
            monkeypatch.setattr(evaluation, name, never)

    def test_unknown_workload_rejected_before_simulation(self,
                                                         no_simulation):
        with pytest.raises(ValueError) as exc:
            run_suite("smoke", workloads=["Radix", "Radxi"])
        message = str(exc.value)
        assert "'Radxi'" in message
        assert all(name in message for name in WORKLOAD_ORDER)

    def test_unknown_network_rejected_before_simulation(self,
                                                        no_simulation):
        with pytest.raises(ValueError) as exc:
            run_suite("smoke", workloads=["Radix"],
                      networks=["point_to_point", "token_rnig"])
        message = str(exc.value)
        assert "'token_rnig'" in message
        assert all(net in message for net in FIGURE7_NETWORKS)

    def test_workload_order(self):
        assert WORKLOAD_ORDER[0] == "Radix"
        assert WORKLOAD_ORDER[-1] == "Butterfly"
        assert len(WORKLOAD_ORDER) == 11

    def test_tiny_suite_end_to_end(self):
        cfg = small_test_config(4, 4)
        suite = run_suite("smoke", config=cfg,
                          networks=["point_to_point", "circuit_switched"],
                          workloads=["Radix", "All-to-all"])
        assert set(suite.results) == {"Radix", "All-to-all"}

        sp = figure7_speedups(suite)
        assert sp["Radix"]["circuit_switched"] == 1.0
        assert sp["Radix"]["point_to_point"] > 1.0

        lat = figure8_latencies(suite)
        assert lat["All-to-all"]["point_to_point"] > 0

        edp = figure10_edp(suite)
        assert edp["Radix"]["point_to_point"] == 1.0


class TestSuiteRendering:
    def test_text_grid_renders(self):
        cfg = small_test_config(2, 2)
        suite = run_suite("smoke", config=cfg,
                          networks=["point_to_point", "circuit_switched",
                                    "limited_point_to_point"],
                          workloads=["Barnes"])
        suite.results["Barnes"].keys()
        # figure9 needs limited_point_to_point results
        frac = figure9_router_fractions(suite)
        assert "Barnes" in frac

    def test_missing_cells_render_as_dash(self):
        """A cell dropped by a collected failure renders as '-', as does
        every value normalized to a missing baseline; the rest of the
        text is unchanged."""
        suite = run_suite("smoke", config=small_test_config(2, 2),
                          workloads=["Radix", "All-to-all"])

        def cells(text):
            out = {}
            for figure, block in enumerate(text.split("\n\n"), start=7):
                for line in block.splitlines():
                    parts = line.split()
                    if parts and parts[0] in suite.results:
                        out[figure, parts[0]] = parts[1:]
            return out

        before = cells(all_figures_text(suite))
        assert suite.networks() == FIGURE7_NETWORKS
        del suite.results["Radix"]["circuit_switched"]  # Figure 7 baseline
        del suite.results["All-to-all"]["token_ring"]
        after = cells(all_figures_text(suite))
        cs, tr = (FIGURE7_NETWORKS.index(n)
                  for n in ("circuit_switched", "token_ring"))
        dashed = {(7, "Radix"): set(range(len(FIGURE7_NETWORKS))),
                  (7, "All-to-all"): {tr},
                  (8, "Radix"): {cs}, (8, "All-to-all"): {tr},
                  (10, "Radix"): {cs}, (10, "All-to-all"): {tr}}
        assert set(after) == set(before)
        for key, row in before.items():
            assert after[key] == ["-" if i in dashed.get(key, ()) else cell
                                  for i, cell in enumerate(row)], key


class TestParallelDrivers:
    """Serial-vs-parallel equivalence of the figure drivers (the
    determinism contract of repro.core.parallel)."""

    GRID = {"uniform": [0.05, 0.20]}

    def test_figure6_workers_bit_identical(self):
        cfg = small_test_config(2, 2)
        serial = run_figure6(cfg, window_ns=100.0, patterns=["uniform"],
                             networks=["point_to_point", "token_ring"],
                             load_grids=self.GRID, workers=1)
        parallel = run_figure6(cfg, window_ns=100.0, patterns=["uniform"],
                               networks=["point_to_point", "token_ring"],
                               load_grids=self.GRID, workers=2)
        assert serial.curves == parallel.curves

    def test_suite_workers_match_serial(self):
        cfg = small_test_config(2, 2)
        kwargs = dict(config=cfg, workloads=["All-to-all"],
                      networks=["point_to_point"])
        serial = run_suite("smoke", **kwargs)
        parallel = run_suite("smoke", workers=2, **kwargs)
        # every ReplayResult field, the op_latency histogram included
        assert serial.results == parallel.results

    def test_suite_workload_filter_builds_only_requested_traces(self):
        cfg = small_test_config(2, 2)
        suite = run_suite("smoke", config=cfg, workloads=["Radix"],
                          networks=["point_to_point"])
        assert list(suite.traces) == ["Radix"]
        assert list(suite.results) == ["Radix"]
