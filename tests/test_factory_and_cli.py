"""Tests for the network factory and the experiment CLI plumbing."""

import os

import pytest

from repro.core.engine import Simulator
from repro.macrochip.config import small_test_config
from repro.networks.factory import (
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
        # the factory builds exactly the paper's six configurations
        assert available_networks() == sorted(FIGURE7_NETWORKS)

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

    def test_main_rejects_window_that_injects_nothing(self, figure6_stubs,
                                                      capsys):
        """0.001 ns is finite and positive, but at the grid's lowest
        load (mean gap 20 ns) no site injects in it: a usage error
        before any load point runs, not a traceback from a shard."""
        from repro.experiments.run import main

        with pytest.raises(SystemExit) as exc:
            main(["--artifact", "figure6", "--preset", "smoke",
                  "--window-ns", "0.001"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--window-ns 0.001 is too short for Figure 6" in err
        assert "injects nothing" in err and "20 ns" in err
        assert "Traceback" not in err
        assert figure6_stubs == {}

    @pytest.mark.parametrize("command", [[], ["scaling"]])
    def test_main_rejects_unknown_network_before_simulating(
            self, command, figure6_stubs, capsys):
        """An unknown --network key (``electrical_baseline`` among them:
        no factory network is electrical) is a usage error naming the
        valid keys, on both the artifact pipeline and the scaling
        study."""
        from repro.experiments.run import main

        with pytest.raises(SystemExit) as exc:
            main(command + ["--network", "bogus",
                            "--network", "electrical_baseline",
                            "--preset", "smoke", "--window-ns", "100"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("unknown network(s) 'bogus', 'electrical_baseline'; "
                "choose from circuit_switched, limited_point_to_point,"
                in err)
        assert "Traceback" not in err
        assert figure6_stubs == {}

    @pytest.mark.parametrize("argv,message", [
        (["--max-dim", "2"], "--max-dim 2 admits no scale (smallest is 4)"),
        (["--max-dim", "8", "--simulate", "--pattern", "bogus"],
         "unrecognized arguments: --simulate --pattern bogus"),
        (["--pattern", "bogus"], "unrecognized arguments: --pattern bogus"),
    ], ids=["max-dim-below-smallest", "simulate-bad-pattern",
            "bad-pattern"])
    def test_scaling_rejects_bad_input_before_any_work(self, argv, message,
                                                       capsys):
        """A --max-dim below the smallest scale and the deleted
        --simulate/--pattern flags are usage errors (exit 2), raised
        before the analytical sweep prints anything."""
        from repro.experiments.run import main

        with pytest.raises(SystemExit) as exc:
            main(["scaling"] + argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_committed_tables_match_the_generator(self):
        """results/tables.txt is what `run --artifact tables --out
        results/` writes today."""
        from repro.experiments.table_experiments import all_tables_text

        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "results", "tables.txt")
        with open(path) as fh:
            assert fh.read() == all_tables_text() + "\n"

    def test_committed_scaling_table_matches_the_generator(self):
        """results/scaling.txt is what `run scaling --max-dim 32 --out
        results/` writes today."""
        from repro.experiments.scaling import breakpoint_table_text

        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "results", "scaling.txt")
        with open(path) as fh:
            assert fh.read() == breakpoint_table_text(max_dim=32) + "\n"

    def test_main_keeps_a_short_window_that_injects(self, figure6_stubs):
        """40 ns is below one mean gap at load 0.002 (100 ns), yet some
        of the 64 sites inject in it: the grid check passes it on."""
        from repro.experiments.run import main

        rc = main(["--artifact", "figure6", "--preset", "smoke",
                   "--window-ns", "40"])
        assert rc == 0
        assert figure6_stubs["kwargs"]["window_ns"] == 40.0

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

        rc = main(["--network", "limited_point_to_point"])
        assert rc == 0
        assert figure6_stubs["driver"] == "fixed"
        assert figure6_stubs["kwargs"]["networks"] == [
            "limited_point_to_point"]

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

    def test_cache_flag_is_rejected(self, suite_stubs, tmp_path, capsys):
        """The resumable cache is gone: ``--cache`` is a usage error
        before anything is simulated."""
        from repro.experiments.run import main

        with pytest.raises(SystemExit) as exc:
            main(["--artifact", "figures", "--cache", str(tmp_path)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert suite_stubs == {}

    def test_generate_all_passes_workers_to_each_driver(
            self, figure6_stubs, suite_stubs, monkeypatch):
        """`--artifact all` hands its worker count to the Figure 6 sweep
        and to run_suite; each starts and stops its own workers."""
        from repro.experiments import run as run_mod

        monkeypatch.setattr(run_mod, "all_tables_text", lambda: "t")
        out = run_mod.generate("all", "smoke", window_ns=100.0, workers=2)
        assert set(out) == {"tables", "figure6", "figures7_10"}
        for stubs in (figure6_stubs, suite_stubs):
            assert stubs["kwargs"]["workers"] == 2
            assert "pool" not in stubs["kwargs"]


class TestTaxonomy:
    """Section 4.1's classification of optical network architectures."""

    def test_every_network_is_classified(self, small_config):
        expected = {
            "point_to_point": "none",
            "limited_point_to_point": "electronic",
            "two_phase": "arbitrated",
            "two_phase_alt": "arbitrated",
            "token_ring": "arbitrated",
            "circuit_switched": "circuit",
        }
        assert set(expected) == set(NETWORK_CLASSES)
        for key, cls_name in expected.items():
            net = build_network(key, small_config, Simulator())
            assert net.switching_class == cls_name, key

    def test_only_p2p_designs_need_no_switching_or_routing(self, small_config):
        unswitched = [k for k in available_networks()
                      if build_network(k, small_config,
                                       Simulator()).switching_class == "none"]
        assert unswitched == ["point_to_point"]
