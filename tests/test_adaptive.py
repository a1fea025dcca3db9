"""Tests for adaptive load-point execution and knee refinement
(:mod:`repro.core.adaptive`).

The bit-identity of the *disabled* adaptive executor with the legacy
single-shot path is pinned in :mod:`tests.test_fastpath_equivalence`
(canonical traces + full LoadPointResult equality); this module covers
the stop rules themselves, the knee-seeking driver, and the agreement of
adaptive knees with the fixed-grid knees at the golden-pin scale.
"""

import dataclasses
import math

import pytest

from repro.core.adaptive import (AdaptiveConfig, Checkpoint, KneeResult,
                                 decide_stop, refine_knee)
from repro.core.sweep import run_load_point
from repro.experiments.figure6 import LOAD_GRIDS, adaptive_coarse_grid
from repro.macrochip.config import scaled_config, small_test_config
from repro.networks.factory import FIGURE6_NETWORKS
from repro.workloads.synthetic import UniformTraffic

CFG = small_test_config(4, 4)


# -- AdaptiveConfig validation ------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("slice_fraction", 0.0),
    ("slice_fraction", 1.5),
    ("rel_precision", 0.0),
    ("rel_precision", 1.0),
    ("min_batches", 1),
    ("min_converge_planned", -1),
    ("abort_streak", 0),
    ("abort_margin", 0.5),
    ("drain_rate_factor", 0.9),
])
def test_config_rejects_invalid_knobs(field, value):
    with pytest.raises(ValueError, match=field):
        AdaptiveConfig(**{field: value})


def test_config_defaults_are_valid_and_frozen():
    cfg = AdaptiveConfig()
    assert cfg.convergence_stop and cfg.saturation_abort
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rel_precision = 0.5


def test_disabled_turns_off_both_rules_only():
    cfg = AdaptiveConfig(rel_precision=0.2, abort_streak=7)
    off = cfg.disabled()
    assert not off.convergence_stop and not off.saturation_abort
    # every other knob is preserved
    assert off.rel_precision == 0.2 and off.abort_streak == 7


# -- stop rules ---------------------------------------------------------------

def test_saturation_abort_fires_on_overloaded_network():
    """A circuit-switched network at 10x its knee is deeply saturated:
    the fast-abort must prove it early and skip most of the run."""
    pattern = UniformTraffic(CFG.layout)
    fixed = run_load_point("circuit_switched", CFG, pattern, 0.5,
                           window_ns=200)
    adaptive = run_load_point("circuit_switched", CFG, pattern, 0.5,
                              window_ns=200, adaptive=AdaptiveConfig())
    assert fixed.saturated
    assert adaptive.saturated
    assert adaptive.stop_reason == "saturated"
    assert adaptive.events_dispatched < fixed.events_dispatched
    assert adaptive.stopped_at_ps < fixed.stopped_at_ps


def test_saturation_abort_spares_light_load():
    r = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.05, window_ns=200, adaptive=AdaptiveConfig())
    assert not r.saturated
    assert r.stop_reason in ("drained", "horizon")


def test_convergence_stop_fires_below_planned_floor_only_when_allowed():
    """Small runs sit under min_converge_planned and must run to the
    legacy verdict; dropping the floor lets the batch-means test fire."""
    pattern = UniformTraffic(CFG.layout)
    guarded = run_load_point("point_to_point", CFG, pattern, 0.6,
                             window_ns=400, adaptive=AdaptiveConfig())
    assert guarded.stop_reason in ("drained", "horizon")

    eager = AdaptiveConfig(min_converge_planned=0, saturation_abort=False)
    converged = run_load_point("point_to_point", CFG, pattern, 0.6,
                               window_ns=400, adaptive=eager)
    assert converged.stop_reason == "converged"
    assert not converged.saturated
    assert converged.events_dispatched < guarded.events_dispatched


def test_stop_reason_and_clock_on_fixed_path():
    r = run_load_point("point_to_point", CFG, UniformTraffic(CFG.layout),
                       0.05, window_ns=200)
    assert r.stop_reason in ("drained", "horizon")
    # legacy clock convention: the horizon, not the last event
    assert r.stopped_at_ps == int(200 * 1000 * 2)


# -- decide_stop over scripted checkpoints ------------------------------------
#
# The rules alone, with no simulator and no numpy: the window is 1000 ps
# and the drain another 1000 ps, so a slice_fraction of 0.1 puts a
# checkpoint every 100 ps.  1000 packets are planned and the saturation
# threshold is 0.9, so the saturation deficit is 100 packets.

WINDOW_PS = 1000
HORIZON_PS = 2000
PLANNED = 1000


def _walk(counters, cfg, horizon_ps=HORIZON_PS, warmup_ps=0):
    """Run decide_stop over ``counters(now) -> Checkpoint``; return its
    verdict and the checkpoint times it asked for."""
    seen = []

    def advance(now):
        seen.append(now)
        return counters(now)

    verdict = decide_stop(advance, WINDOW_PS, horizon_ps, warmup_ps, cfg,
                          0.9, PLANNED)
    return verdict, seen


def _keeping_up(now):
    """One packet injected per ps, each delivered at once with a
    latency of 50 ps."""
    injected = min(now, PLANNED)
    return Checkpoint(False, injected, injected, 0, injected, 50 * injected)


def _backlogged(backlog):
    """Nothing delivered: the backlog is every packet injected so far."""
    return Checkpoint(False, backlog, 0, backlog, 0, 0)


def test_decide_stop_drained_returns_horizon():
    def counters(now):
        return _keeping_up(now)._replace(drained=now >= 300)

    verdict, seen = _walk(counters, AdaptiveConfig(slice_fraction=0.1))
    assert verdict == ("drained", HORIZON_PS)
    assert seen == [100, 200, 300]  # nothing is advanced past the drain


@pytest.mark.parametrize("streak", [1, 3, 5])
def test_decide_stop_aborts_on_the_streakth_growing_checkpoint(streak):
    """Every checkpoint projects a backlog over twice the deficit; the
    first has no predecessor to grow from, so the streak-th growing one
    is checkpoint streak + 1, and nothing fires before it."""
    cfg = AdaptiveConfig(slice_fraction=0.1, convergence_stop=False,
                         min_abort_injected=0, abort_streak=streak)
    verdict, seen = _walk(lambda now: _backlogged(min(now, PLANNED)), cfg)
    stop_at = 100 * (streak + 1)
    assert verdict == ("saturated", stop_at)
    assert seen[-1] == stop_at


def test_decide_stop_abort_streak_resets_when_backlog_stalls():
    backlogs = {100: 100, 200: 200, 300: 300, 400: 300,  # stall at 400
                500: 400, 600: 500, 700: 600}
    cfg = AdaptiveConfig(slice_fraction=0.1, convergence_stop=False,
                         min_abort_injected=0, abort_streak=3)
    verdict, _ = _walk(lambda now: _backlogged(backlogs[now]), cfg)
    assert verdict == ("saturated", 700)


def test_decide_stop_abort_needs_the_projection_over_the_deficit():
    """A growing backlog whose projection clears the deficit with margin
    (the deliveries keep pace) never aborts."""
    def counters(now):
        injected = min(now, PLANNED)
        delivered = injected - injected // 10  # backlog 10% and growing
        return Checkpoint(False, injected, delivered,
                          injected - delivered, 0, 0)

    cfg = AdaptiveConfig(slice_fraction=0.1, convergence_stop=False,
                         min_abort_injected=0, abort_streak=1)
    verdict, _ = _walk(counters, cfg)
    assert verdict == ("horizon", HORIZON_PS)


@pytest.mark.parametrize("min_batches", [2, 4, 6])
def test_decide_stop_converges_after_min_batches(min_batches):
    """Constant latency has zero batch variance, so the test passes as
    soon as min_batches non-empty batches exist."""
    cfg = AdaptiveConfig(slice_fraction=0.1, saturation_abort=False,
                         min_converge_planned=0, min_batches=min_batches)
    verdict, _ = _walk(_keeping_up, cfg)
    assert verdict == ("converged", 100 * min_batches)


def test_decide_stop_convergence_waits_for_the_clears_gate():
    """Everything is injected up front; deliveries run at 0.25/ps until
    600 ps and 1/ps after.  At the slow rate the drain cannot clear the
    backlog, so convergence waits for the first fast checkpoint even
    though enough batches exist from 200 ps on."""
    def counters(now):
        delivered = now // 4 if now <= 600 else 150 + (now - 600)
        return Checkpoint(False, PLANNED, delivered, PLANNED - delivered,
                          delivered, 50 * delivered)

    cfg = AdaptiveConfig(slice_fraction=0.1, saturation_abort=False,
                         min_converge_planned=0, min_batches=2)
    verdict, _ = _walk(counters, cfg)
    assert verdict == ("converged", 700)


def test_decide_stop_rules_wait_for_warmup():
    """No rule fires at a checkpoint inside the warmup, even when its
    counters alone would fire it."""
    converge = AdaptiveConfig(slice_fraction=0.1, saturation_abort=False,
                              min_converge_planned=0, min_batches=2)
    assert _walk(_keeping_up, converge, warmup_ps=450)[0] == (
        "converged", 600)
    abort = AdaptiveConfig(slice_fraction=0.1, convergence_stop=False,
                           min_abort_injected=0, abort_streak=1)
    assert _walk(lambda now: _backlogged(min(now, PLANNED)), abort,
                 warmup_ps=450)[0] == ("saturated", 500)


def test_decide_stop_no_rule_fires_runs_to_the_horizon():
    """Planned injections under min_converge_planned and a backlog that
    never builds: every checkpoint is visited, the last one clamped to
    the horizon."""
    verdict, seen = _walk(_keeping_up, AdaptiveConfig(slice_fraction=0.1),
                          horizon_ps=2050)
    assert verdict == ("horizon", 2050)
    assert seen == list(range(100, 2001, 100)) + [2050]


# -- refine_knee --------------------------------------------------------------

def test_refine_knee_brackets_and_bisects():
    knee = refine_knee("circuit_switched", CFG, UniformTraffic(CFG.layout),
                       [0.01, 0.05, 0.2, 0.5], window_ns=200, bisections=3)
    assert isinstance(knee, KneeResult)
    assert 0.0 < knee.bracket_low < knee.bracket_high
    assert math.isfinite(knee.bracket_high)
    assert knee.resolution == knee.bracket_high - knee.bracket_low
    # bisection tightened the bracket beyond the coarse spacing
    assert knee.resolution < 0.15
    # points are ascending and include the bisection probes
    offered = [p.offered_fraction for p in knee.points]
    assert offered == sorted(offered)
    assert knee.load_points == len(knee.points) > 4
    assert knee.events_dispatched > 0
    # the knee is read off an unsaturated probe inside the bracket
    assert not any(p.saturated and p.offered_fraction == knee.knee_offered
                   for p in knee.points)
    assert knee.knee_offered <= knee.bracket_low


def test_refine_knee_all_unsaturated():
    knee = refine_knee("point_to_point", CFG, UniformTraffic(CFG.layout),
                       [0.02, 0.05], window_ns=200)
    assert knee.bracket_low == 0.05
    assert knee.bracket_high == float("inf")
    assert knee.resolution == float("inf")
    assert knee.skipped_loads == ()
    assert knee.load_points == 2  # nothing to bisect


def test_refine_knee_all_saturated_skips_rest_of_ascent():
    knee = refine_knee("circuit_switched", CFG, UniformTraffic(CFG.layout),
                       [0.4, 0.5, 0.6], window_ns=200, bisections=3)
    # the first probe already saturated: the walk stops there and the
    # higher loads are recorded as skipped, not silently dropped...
    assert knee.skipped_loads == (0.5, 0.6)
    # ...and bisection then recovers the knee below the failed probe,
    # starting from the [0, 0.4] bracket
    assert knee.load_points == 1 + 3
    assert knee.bracket_high <= 0.4
    assert 0.0 < knee.bracket_low < knee.bracket_high
    assert not any(p.saturated and p.offered_fraction == knee.knee_offered
                   for p in knee.points)


def test_refine_knee_rejects_empty_grid():
    with pytest.raises(ValueError, match="coarse fraction"):
        refine_knee("point_to_point", CFG, UniformTraffic(CFG.layout), [])


def test_adaptive_coarse_grid_keeps_endpoints():
    grid = [0.01, 0.02, 0.04, 0.08, 0.16, 0.32]
    assert adaptive_coarse_grid(grid, 2) == [0.01, 0.04, 0.16, 0.32]
    assert adaptive_coarse_grid(grid, 4) == [0.01, 0.16, 0.32]
    assert adaptive_coarse_grid(grid, 1) == grid
    with pytest.raises(ValueError):
        adaptive_coarse_grid(grid, 0)


# -- knee agreement at the golden-pin scale -----------------------------------

@pytest.fixture(scope="module")
def fixed_uniform_knees():
    """Fixed-grid knees for every Figure 6 network: uniform traffic,
    paper-scale config, golden-pin window (120 ns)."""
    from repro.core.sweep import to_sweep_point

    cfg = scaled_config()
    pattern = UniformTraffic(cfg.layout)
    knees = {}
    for net in FIGURE6_NETWORKS:
        points = [to_sweep_point(
            run_load_point(net, cfg, pattern, f, window_ns=120.0), cfg)
            for f in LOAD_GRIDS["uniform"]]
        good = [p for p in points if not p.saturated]
        knees[net] = max(good or points, key=lambda p: p.delivered_fraction)
    return cfg, knees


@pytest.mark.parametrize("network", FIGURE6_NETWORKS)
def test_adaptive_knee_matches_fixed_grid_within_one_step(
        network, fixed_uniform_knees):
    """The acceptance criterion: for every network the adaptive knee's
    offered load agrees with the fixed-grid knee within one bisection
    step (the final bracket width) or one fixed-grid spacing, whichever
    is coarser."""
    cfg, knees = fixed_uniform_knees
    fixed = knees[network]
    grid = LOAD_GRIDS["uniform"]
    knee = refine_knee(network, cfg, UniformTraffic(cfg.layout),
                       adaptive_coarse_grid(grid, 4), window_ns=120.0,
                       bisections=3)
    i = grid.index(fixed.offered_fraction)
    spacing = grid[min(i + 1, len(grid) - 1)] - grid[max(i - 1, 0)]
    tolerance = max(knee.resolution, spacing)
    assert abs(knee.knee_offered - fixed.offered_fraction) <= tolerance
