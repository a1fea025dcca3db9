"""Backend selection plumbing: CLI round-trip, the suite cache manifest,
the scaling entry point, and the numpy-optional degradation seams (PR 9).

The vectorized backend is only useful if asking for it actually reaches
the hot loop — these tests pin the plumbing between the user-facing
surface (``--backend`` on the CLI) and
:func:`repro.core.sweep.run_load_point`, plus the failure modes: bad
names are rejected with the valid choices listed, and a missing numpy
raises an actionable ImportError from :func:`require_numpy` while
``try_run_vectorized`` degrades silently to the scalar engine.
"""

import json
import os
import sys
import warnings
from types import SimpleNamespace

import pytest

import repro.core.vectorized as vectorized
from repro.core.sweep import BACKENDS, run_load_point
from repro.experiments import run as run_cli
from repro.experiments.evaluation import run_suite
from repro.experiments.figure6 import run_figure6
from repro.experiments.scaling import simulate_scale_point
from repro.macrochip.config import small_test_config
from repro.workloads.synthetic import UniformTraffic

CFG = small_test_config(2, 2)


# -- CLI round-trip -----------------------------------------------------------

def _capture_figure6(monkeypatch):
    """Stub the Figure 6 driver so main() exercises argument plumbing
    without simulating anything; returns the captured kwargs dict."""
    captured = {}

    def stub(**kwargs):
        captured.update(kwargs)
        return SimpleNamespace(load_points=0, total_events=0, failures=[])

    monkeypatch.setattr(run_cli, "run_figure6", stub)
    monkeypatch.setattr(run_cli, "figure6_text", lambda result: "stub")
    return captured


def test_cli_backend_roundtrips_to_figure6_driver(monkeypatch):
    captured = _capture_figure6(monkeypatch)
    assert run_cli.main(["--artifact", "figure6",
                         "--backend", "vectorized"]) == 0
    assert captured["backend"] == "vectorized"


def test_cli_backend_defaults_to_python(monkeypatch):
    captured = _capture_figure6(monkeypatch)
    assert run_cli.main(["--artifact", "figure6"]) == 0
    assert captured["backend"] == "python"


def test_cli_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        run_cli.main(["--artifact", "figure6", "--backend", "jit"])


# -- backend validation -------------------------------------------------------

def test_run_load_point_lists_valid_backends_on_error():
    with pytest.raises(ValueError) as exc:
        run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.05, window_ns=40.0, backend="cython")
    message = str(exc.value)
    assert "'cython'" in message
    for name in BACKENDS:
        assert name in message


def test_backends_tuple_is_the_cli_choice_list():
    """The CLI choices and the sweep-layer validation must never drift
    apart — both are derived from / match BACKENDS."""
    assert BACKENDS == ("python", "vectorized")


# -- suite cache fingerprint --------------------------------------------------

def test_campaign_fingerprint_helper_defaults_to_python(tmp_path):
    """The Figures 7-10 replay always runs the python engine, so the
    ``run_suite(cache_dir=...)`` manifest carries no backend key."""
    cache_dir = str(tmp_path / "cache")
    run_suite("smoke", config=CFG, networks=["point_to_point"],
              workloads=["Radix"], cache_dir=cache_dir)
    with open(os.path.join(cache_dir, "manifest.json")) as fh:
        doc = json.load(fh)
    assert "backend" not in doc
    assert doc["version"] >= 3


# -- scaling entry point ------------------------------------------------------

def test_simulate_scale_point_backend_bit_identical():
    """The scaling study's simulated smoke points accept the backend
    knob (with invariant checking off, which forces scalar otherwise)
    and stay bit-identical."""
    scalar = simulate_scale_point("point_to_point", 4,
                                  check_invariants=False)
    fast = simulate_scale_point("point_to_point", 4,
                                check_invariants=False,
                                backend="vectorized")
    assert scalar.delivered_packets > 0
    assert fast == scalar


# -- numpy-optional seams -----------------------------------------------------

@pytest.fixture
def no_numpy(monkeypatch):
    """numpy as on a host without it: the module is unimportable and the
    loader has forgotten any earlier outcome, so its real import fails
    here.  Both are restored afterwards."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(vectorized, "_numpy_loaded", None)


def test_require_numpy_error_is_actionable(no_numpy):
    with pytest.raises(ImportError) as exc:
        vectorized.require_numpy()
    message = str(exc.value)
    assert "repro[fast]" in message
    assert "numpy" in message


def test_missing_numpy_falls_back_to_scalar(monkeypatch, no_numpy):
    """Without numpy, backend="vectorized" degrades to the scalar
    engine per load point (a warning naming the resolved backend,
    identical results) instead of crashing."""
    monkeypatch.setattr(vectorized, "_warned_no_numpy", False)
    pattern = UniformTraffic(CFG.layout)
    scalar = run_load_point("point_to_point", CFG, pattern, 0.05,
                            window_ns=40.0, seed=7)
    with pytest.warns(RuntimeWarning, match="repro\\[fast\\]") as rec:
        fallback = run_load_point("point_to_point", CFG, pattern, 0.05,
                                  window_ns=40.0, seed=7,
                                  backend="vectorized")
    assert fallback == scalar
    assert any("resolved backend: python" in str(w.message) for w in rec)


def test_missing_numpy_warns_once_per_process(monkeypatch, no_numpy):
    """The missing-numpy fallback warns exactly once per process:
    later load points, at other loads or through ``run_figure6``, are
    silent."""
    monkeypatch.setattr(vectorized, "_warned_no_numpy", False)
    pattern = UniformTraffic(CFG.layout)
    kwargs = dict(window_ns=40.0, seed=7, backend="vectorized")
    with pytest.warns(RuntimeWarning, match="resolved backend: python"):
        run_load_point("point_to_point", CFG, pattern, 0.05, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a repeat would now raise
        run_load_point("point_to_point", CFG, pattern, 0.10, **kwargs)
        run_figure6(CFG, window_ns=40.0, patterns=["uniform"],
                    networks=["point_to_point"],
                    load_grids={"uniform": [0.05]}, backend="vectorized")
