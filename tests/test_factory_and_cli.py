"""Tests for the network factory and the experiment CLI plumbing."""

import os

import pytest

from repro.core.engine import Simulator
from repro.macrochip.config import small_test_config
from repro.networks.factory import (
    EXTENDED_NETWORKS,
    FIGURE6_NETWORKS,
    FIGURE7_NETWORKS,
    NETWORK_CLASSES,
    available_networks,
    build_network,
)


class TestFactory:
    def test_all_keys_buildable(self, small_config):
        for key in available_networks():
            net = build_network(key, small_config, Simulator())
            assert net.name == NETWORK_CLASSES[key].name

    def test_unknown_key_lists_options(self, small_config):
        with pytest.raises(KeyError) as err:
            build_network("warp_drive", small_config, Simulator())
        assert "point_to_point" in str(err.value)

    def test_figure_lists(self):
        assert len(FIGURE6_NETWORKS) == 5
        assert len(FIGURE7_NETWORKS) == 6
        assert "two_phase_alt" not in FIGURE6_NETWORKS
        assert "two_phase_alt" in FIGURE7_NETWORKS
        # the paper-exact lists exclude the HERMES extension; the
        # extended list is the Figure 6 set plus HERMES, in order
        assert "hermes" not in FIGURE6_NETWORKS
        assert "hermes" not in FIGURE7_NETWORKS
        assert EXTENDED_NETWORKS == FIGURE6_NETWORKS + ["hermes"]

    def test_kwargs_forwarded(self, small_config):
        net = build_network("two_phase", small_config, Simulator(),
                            tree_reconfig_ps=1234)
        assert net.tree_reconfig_ps == 1234

    def test_warmup_forwarded(self, small_config):
        net = build_network("point_to_point", small_config, Simulator(),
                            warmup_ps=777)
        assert net.stats.throughput.warmup_ps == 777


class TestRunCli:
    def test_generate_tables_only(self):
        from repro.experiments.run import generate

        out = generate("tables", "smoke", window_ns=100.0)
        assert set(out) == {"tables"}
        assert "Table 5" in out["tables"]

    def test_generate_rejects_unknown_artifact(self):
        from repro.experiments.run import generate

        with pytest.raises(SystemExit):
            generate("bogus", "smoke", window_ns=100.0)

    def test_main_writes_output_files(self, tmp_path):
        from repro.experiments.run import main

        rc = main(["--artifact", "tables", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "tables.txt").exists()
        assert "Table 6" in (tmp_path / "tables.txt").read_text()

    def test_main_accepts_workers_flag(self, tmp_path):
        from repro.experiments.run import main

        rc = main(["--artifact", "tables", "--workers", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "tables.txt").exists()

    def test_main_rejects_negative_workers(self, capsys):
        from repro.experiments.run import main

        with pytest.raises(SystemExit) as exc:
            main(["--artifact", "tables", "--workers", "-2"])
        assert exc.value.code == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["-5", "0", "nan", "inf"])
    def test_main_rejects_bad_window_before_simulating(self, window,
                                                       figure6_stubs,
                                                       capsys):
        from repro.experiments.run import main

        with pytest.raises(SystemExit) as exc:
            main(["--artifact", "figure6", "--window-ns", window])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--window-ns must be finite and positive" in err
        assert "Traceback" not in err
        assert figure6_stubs == {}  # no load point was run

    @pytest.fixture
    def figure6_stubs(self, monkeypatch):
        """Capture the kwargs `generate` hands the Figure 6 driver,
        without simulating anything."""
        from repro.experiments import run as run_mod

        calls = {}

        class _Stub:
            load_points = 0
            total_events = 0
            failures = ()

        def fake_fixed(**kwargs):
            calls["driver"] = "fixed"
            calls["kwargs"] = kwargs
            return _Stub()

        monkeypatch.setattr(run_mod, "run_figure6", fake_fixed)
        monkeypatch.setattr(run_mod, "figure6_text", lambda r: "stub text")
        return calls

    def test_generate_figure6_default_is_fixed_grid(self, figure6_stubs):
        from repro.experiments.run import generate

        out = generate("figure6", "smoke", window_ns=100.0)
        assert out == {"figure6": "stub text"}
        assert figure6_stubs["driver"] == "fixed"

    def test_network_flag_restricts_figure6(self, figure6_stubs):
        """--network implies the figure6 artifact and threads the key
        list into the sweep driver."""
        from repro.experiments.run import main

        rc = main(["--network", "hermes"])
        assert rc == 0
        assert figure6_stubs["driver"] == "fixed"
        assert figure6_stubs["kwargs"]["networks"] == ["hermes"]

    def test_signaling_flag_reaches_figure6_config(self, figure6_stubs):
        from repro.experiments.run import main

        rc = main(["--artifact", "figure6", "--signaling", "pam4"])
        assert rc == 0
        cfg = figure6_stubs["kwargs"]["config"]
        assert cfg.tech.signaling == "pam4"

    def test_generate_tables_pam4_differ_from_nrz(self):
        from repro.experiments.run import generate

        nrz = generate("tables", "smoke", window_ns=100.0)["tables"]
        pam4 = generate("tables", "smoke", window_ns=100.0,
                        signaling="pam4")["tables"]
        assert "NRZ vs PAM4" in nrz  # comparison table always present
        assert nrz != pam4  # the active-format tables move under PAM4

    @pytest.fixture
    def suite_stubs(self, monkeypatch):
        """Capture the kwargs `generate` passes to run_suite, without
        simulating anything."""
        from types import SimpleNamespace

        from repro.experiments import run as run_mod

        calls = {}

        def fake_suite(preset, **kwargs):
            calls["kwargs"] = kwargs
            return SimpleNamespace(failures=[])

        monkeypatch.setattr(run_mod, "run_suite", fake_suite)
        monkeypatch.setattr(run_mod, "all_figures_text",
                            lambda suite: "stub figures")
        return calls

    def test_cache_flag_reaches_run_suite(self, suite_stubs, tmp_path):
        from repro.experiments.run import main

        rc = main(["--artifact", "figures", "--cache", str(tmp_path)])
        assert rc == 0
        assert suite_stubs["kwargs"]["cache_dir"] == str(tmp_path)

    def test_cache_flag_needs_a_figures_artifact(self, suite_stubs,
                                                 tmp_path):
        from repro.experiments.run import main

        with pytest.raises(SystemExit):
            main(["--artifact", "figure6", "--cache", str(tmp_path)])
        assert suite_stubs == {}

    def test_generate_all_shares_one_pool(self, figure6_stubs, suite_stubs,
                                          monkeypatch):
        """`--artifact all` opens one worker pool and lends it to both
        the Figure 6 sweep and run_suite."""
        from repro.core.parallel import WorkerPool
        from repro.experiments import run as run_mod

        monkeypatch.setattr(run_mod, "all_tables_text", lambda cfg: "t")
        out = run_mod.generate("all", "smoke", window_ns=100.0, workers=2,
                               cache_dir="cache-dir")
        assert set(out) == {"tables", "figure6", "figures7_10"}
        pool = suite_stubs["kwargs"]["pool"]
        assert isinstance(pool, WorkerPool)
        assert figure6_stubs["kwargs"]["pool"] is pool
        assert suite_stubs["kwargs"]["cache_dir"] == "cache-dir"


class TestTaxonomy:
    """Section 4.1's classification of optical network architectures."""

    def test_every_network_is_classified(self, small_config):
        expected = {
            "point_to_point": "none",
            "electrical_baseline": "none",
            "limited_point_to_point": "electronic",
            "two_phase": "arbitrated",
            "two_phase_alt": "arbitrated",
            "token_ring": "arbitrated",
            "circuit_switched": "circuit",
            "hermes": "electronic",
        }
        assert set(expected) == set(NETWORK_CLASSES)
        for key, cls_name in expected.items():
            net = build_network(key, small_config, Simulator())
            assert net.switching_class == cls_name, key

    def test_only_p2p_designs_need_no_switching_or_routing(self, small_config):
        unswitched = [k for k in available_networks()
                      if build_network(k, small_config,
                                       Simulator()).switching_class == "none"]
        assert unswitched == ["electrical_baseline", "point_to_point"]
