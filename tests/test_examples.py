"""Smoke tests for the example scripts and the package's Quickstart.

Each example must parse, import, and expose a ``main``.  Full runs are
exercised in CI (they simulate the 8x8 macrochip and take seconds to
minutes); these tests keep them from rotting against API changes by
compiling them and checking their imports resolve, and pin one short
example's output byte for byte.
"""

import importlib.util
import pathlib
import textwrap
import types

import pytest

import repro
import repro.core.sweep
import repro.workloads.replay

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_exist():
    names = {p.stem for p in EXAMPLE_FILES}
    assert "quickstart" in names
    assert len(EXAMPLE_FILES) >= 3  # the deliverable floor


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    module = _load(path)
    assert hasattr(module, "main"), "%s lacks a main()" % path.stem
    assert callable(module.main)
    assert module.__doc__, "%s lacks a module docstring" % path.stem


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_mentions_run_instructions(path):
    text = path.read_text()
    assert "Run:" in text, "%s should document how to run it" % path.stem


#: ``compare_networks.py transpose`` stdout, byte for byte: the example's
#: loads, its 400 ns window and its knee rule pinned end to end
COMPARE_NETWORKS_TRANSPOSE = """\
Latency vs offered load [transpose], 64 B packets
Network                 0.5% load  1.2% load  3.0% load  6.0% load  sustained
----------------------  ---------  ---------  ---------  ---------  ---------
Token Ring              11.5 ns    35.8 ns    112.3 ns   121.5 ns   1.1%
Circuit-Switched        66.6 ns    65.2 ns    75.1 ns    97.2 ns    1.1%
Point-to-Point          15.1 ns    27.4 ns    102.3 ns   124.5 ns   1.7%
Limited Point-to-Point  17.7 ns    17.4 ns    17.5 ns    17.9 ns    5.7%
2-Phase Arb.            5.8 ns     5.8 ns     6.0 ns     6.4 ns     5.6%
"""


def test_compare_networks_transpose_output_is_pinned(capsys):
    module = _load(EXAMPLES_DIR / "compare_networks.py")
    module.main("transpose")
    assert capsys.readouterr().out == COMPARE_NETWORKS_TRANSPOSE


def test_package_quickstart_runs(capsys):
    """The package docstring's Quickstart block runs as written."""
    block = textwrap.dedent(repro.__doc__.split("Quickstart::", 1)[1])
    exec(compile(block, "repro.__doc__", "exec"), {})
    latency, throughput = map(float, capsys.readouterr().out.split())
    assert latency > 0 and throughput > 0


def test_submodules_are_not_shadowed():
    """The packages re-export no function under its module's name."""
    assert isinstance(repro.core.sweep, types.ModuleType)
    assert isinstance(repro.workloads.replay, types.ModuleType)
