"""numpy loads only when a vectorized kernel needs it.

``repro.core.vectorized`` imports numpy on its first vectorized load
point, not when the module loads, so the scalar paths — a python-backend
load point, CPU trace generation and closed-loop replay, the tables
artifact — never pay for it.  A vectorized sweep over a pool imports it
in the parent before the workers fork, so they share its pages.

The process-pool machinery is lazy the same way: ``concurrent.futures``
and ``multiprocessing`` load only when a run actually starts workers.

Each check runs in a fresh interpreter: in this one, other tests have
long since loaded numpy.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core.vectorized import have_numpy

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

needs_numpy = pytest.mark.skipif(
    not have_numpy(), reason="numpy not installed (pip install repro[fast])")


def loaded_after(code: str, modules) -> list:
    """Run ``code`` in a fresh interpreter; which of ``modules`` were
    imported by the time it finished."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps([m for m in %r if m in sys.modules]))
        """ % (list(modules),))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def numpy_loaded_after(code: str) -> bool:
    return bool(loaded_after(code, ["numpy"]))


POOL_MODULES = ["concurrent.futures", "multiprocessing"]


LOAD_POINT = """
    from repro.core.sweep import run_load_point
    from repro.macrochip.config import small_test_config
    from repro.networks.factory import available_networks
    from repro.workloads.synthetic import UniformTraffic

    cfg = small_test_config(2, 2)
    pattern = UniformTraffic(cfg.layout)
    for net in available_networks():
        run_load_point(net, cfg, pattern, 0.1, window_ns=40.0,
                       backend=%r)
"""


def test_python_load_points_leave_numpy_unloaded():
    """A python-backend load point on every factory network."""
    assert not numpy_loaded_after(LOAD_POINT % "python")


def test_replay_leaves_numpy_unloaded():
    """CPU trace generation (an application kernel and a synthetic
    workload) and their closed-loop replay."""
    assert not numpy_loaded_after("""
        from repro.experiments.evaluation import run_suite
        from repro.macrochip.config import small_test_config

        run_suite("smoke", config=small_test_config(2, 2),
                  networks=["token_ring", "two_phase"],
                  workloads=["Radix", "All-to-all"])
        """)


def test_tables_artifact_leaves_numpy_unloaded(tmp_path):
    """``python -m repro.experiments.run --artifact tables``, which
    loads no process-pool machinery either."""
    assert loaded_after("""
        from repro.experiments import run
        assert run.main(["--artifact", "tables", "--out", %r]) == 0
        """ % str(tmp_path), ["numpy"] + POOL_MODULES) == []
    assert os.path.exists(tmp_path / "tables.txt")


@needs_numpy
def test_vectorized_load_point_loads_numpy():
    assert numpy_loaded_after(LOAD_POINT % "vectorized")


@needs_numpy
def test_parallel_vectorized_sweep_loads_numpy_in_parent():
    """The parent imports numpy before the pool forks its workers."""
    assert numpy_loaded_after("""
        from repro.experiments.figure6 import run_figure6
        from repro.macrochip.config import small_test_config

        run_figure6(small_test_config(2, 2), window_ns=40.0,
                    patterns=["uniform"], networks=["point_to_point"],
                    load_grids={"uniform": [0.05, 0.1]}, workers=2,
                    backend="vectorized")
        """)


def test_serial_run_leaves_pool_machinery_unloaded():
    """A serial ``run_sharded`` never imports the process machinery."""
    assert loaded_after("""
        from repro.core.parallel import Shard, run_sharded

        run = run_sharded([Shard(abs, args=(-i,)) for i in range(3)])
        assert run.results == [0, 1, 2] and run.mode == "serial"
        """, POOL_MODULES) == []

