"""Golden-number pins for the closed-loop replay behind Figures 7-10.

Every :class:`~repro.workloads.replay.ReplayResult` field is asserted
exactly (replay is deterministic: integer picosecond times and
sequence-number tie-breaks), on every network of ``FIGURE7_NETWORKS``,
for two traces:

* ``all_to_all``: a 4x4 synthetic All-to-all trace (uniform homes, the
  LS sharing mix, 20 operations per core);
* ``hand_built``: a 2x2 trace with one MSHR per site, so ops queue on
  the MSHR waiter list.  It holds writebacks, a writeback followed by an
  op issued at the same instant, a cache-to-cache GetS, GetMs with
  sharers and with a remote owner, Upgrades, an intra-site op and idle
  cores.

The arbitrated models are also pinned at the paper's 8x8 grid
(``scaled``: the Table 4 config, 10 operations per core), where the
token ring's waiter set spans all 64 snake positions and the releasing
site competes with the other waiters; there the two-phase networks'
``wasted_slots``/``granted_slots`` counters are pinned too.

The traces above are synthetic or hand-built.  ``lu`` is a real-sharing
trace: the LU kernel run through the CPU simulator on the Table 4
config (40 references per core: 17,353 operations, 69 of them
invalidating more than one sharer), pinned the same way on
point-to-point, the token ring and the two-phase network.

A change to the replay layer that moves the order of a single event
(and so its sequence number) moves ``events`` or a latency here.  If a
model change is meant to move results, regenerate the table with::

    PYTHONPATH=src python -c "import tests.test_golden_replay as g; g.print_pins()"
"""

import pytest

from repro.cpu.coherence import CoherenceOp, OpKind
from repro.cpu.system import generate_trace
from repro.cpu.trace import CoherenceTrace
from repro.macrochip.config import scaled_config, small_test_config
from repro.networks.factory import FIGURE7_NETWORKS
from repro.workloads.kernels import LuKernel
from repro.workloads.replay import TraceReplayer, replay
from repro.workloads.sharing import mix_by_name
from repro.workloads.synthetic import make_pattern
from repro.workloads.synthetic_coherence import (SyntheticCoherenceSpec,
                                                 generate_synthetic_trace)

NETWORKS = list(FIGURE7_NETWORKS)
SCALED_NETWORKS = ("token_ring", "two_phase", "two_phase_alt")
LU_NETWORKS = ("point_to_point", "token_ring", "two_phase")
PERCENTILES = (1, 10, 25, 50, 75, 90, 99, 100)


def all_to_all():
    """The 4x4 synthetic All-to-all trace and its config."""
    cfg = small_test_config(4, 4)
    spec = SyntheticCoherenceSpec("All-to-all", ops_per_core=20)
    trace = generate_synthetic_trace(spec, make_pattern("uniform",
                                                        cfg.layout),
                                     mix_by_name("LS"), cfg)
    return trace, cfg


def hand_built():
    """A 2x2 trace with one MSHR per site that exercises every op kind,
    the MSHR waiter queue and same-instant writeback-then-issue."""
    cfg = small_test_config(2, 2).with_overrides(mshrs_per_site=1)

    def op(core, gap, kind, home, owner=None, sharers=()):
        return CoherenceOp(core=core, gap_cycles=gap, kind=kind,
                           requester=core // cfg.cores_per_site, home=home,
                           owner=owner, sharers=sharers)

    S, M, U, W = OpKind.GET_S, OpKind.GET_M, OpKind.UPGRADE, OpKind.WRITEBACK
    trace = CoherenceTrace("hand-built", cfg.num_cores)
    trace.ops_by_core[0] = [op(0, 0, W, 1), op(0, 0, S, 2, owner=3),
                            op(0, 4, U, 1, sharers=(2, 3)), op(0, 0, W, 3)]
    trace.ops_by_core[1] = [op(1, 0, M, 3, sharers=(1, 2)),
                            op(1, 2, S, 1)]
    trace.ops_by_core[2] = [op(2, 5, S, 0), op(2, 0, W, 2)]
    # cores 3..7 of site 0 and core 9 stay idle
    trace.ops_by_core[8] = [op(8, 1, M, 0, owner=2, sharers=(3,)),
                            op(8, 0, W, 0)]
    trace.ops_by_core[10] = [op(10, 1, S, 1), op(10, 1, S, 3, owner=0)]
    trace.ops_by_core[16] = [op(16, 3, W, 1), op(16, 0, S, 1),
                             op(16, 0, W, 0), op(16, 0, W, 3),
                             op(16, 7, M, 1, sharers=(0, 1, 3))]
    trace.ops_by_core[24] = [op(24, 2, U, 2, sharers=(0, 1)),
                             op(24, 0, S, 0, owner=1)]
    return trace, cfg


def scaled():
    """The 8x8 (Table 4) synthetic All-to-all trace and its config."""
    cfg = scaled_config()
    spec = SyntheticCoherenceSpec("All-to-all", ops_per_core=10)
    trace = generate_synthetic_trace(spec, make_pattern("uniform",
                                                        cfg.layout),
                                     mix_by_name("LS"), cfg)
    return trace, cfg


def lu():
    """The LU kernel's CPU-simulator trace on the 8x8 (Table 4) config."""
    cfg = scaled_config()
    return generate_trace(LuKernel(refs_per_core=40), cfg), cfg


TRACES = {"all_to_all": all_to_all, "hand_built": hand_built}


def summary(result):
    """Every ReplayResult field as plain literals."""
    latency = result.op_latency
    return dict(
        network=result.network,
        workload=result.workload,
        runtime_ps=result.runtime_ps,
        ops_completed=result.ops_completed,
        messages_sent=result.messages_sent,
        events=result.events_dispatched,
        latency=(latency.count, latency.sum_ps, latency.min_ps,
                 latency.max_ps),
        percentiles=tuple(latency.percentile_ps(p) for p in PERCENTILES),
        energy=result.energy_by_category,
    )


def scaled_summary(trace, network, cfg):
    """:func:`summary` plus the two-phase slot counters, if any."""
    replayer = TraceReplayer(trace, network, cfg)
    pins = summary(replayer.run())
    if hasattr(replayer.network, "wasted_slots"):
        pins["slots"] = (replayer.network.wasted_slots,
                         replayer.network.granted_slots)
    return pins


def _print_table(title, entries):
    print("%s = {" % title)
    for key, pins in entries:
        print("    %r: dict(" % (key,))
        for field, value in pins.items():
            print("        %s=%r," % (field, value))
        print("    ),")
    print("}")


def print_pins():
    """Print the PINS, SCALED_PINS and LU_PINS tables for the current
    code."""
    entries = []
    for name, build in TRACES.items():
        trace, cfg = build()
        for net in NETWORKS:
            entries.append(((name, net), summary(replay(trace, net, cfg))))
    _print_table("PINS", entries)
    trace, cfg = scaled()
    _print_table("SCALED_PINS", [(net, scaled_summary(trace, net, cfg))
                                 for net in SCALED_NETWORKS])
    trace, cfg = lu()
    _print_table("LU_PINS", [(net, scaled_summary(trace, net, cfg))
                             for net in LU_NETWORKS])


PINS = {
    ('all_to_all', 'token_ring'): dict(
        network='Token Ring',
        workload='All-to-all-LS',
        runtime_ps=558323,
        ops_completed=2560,
        messages_sent=5433,
        events=28179,
        latency=(2560, 46978196, 3989, 40393),
        percentiles=(9220, 14823, 16428, 18205, 20096, 21994, 27315, 40393),
        energy={'optical': 248620.80000000072},
    ),
    ('all_to_all', 'circuit_switched'): dict(
        network='Circuit-Switched',
        workload='All-to-all-LS',
        runtime_ps=2044550,
        ops_completed=2560,
        messages_sent=5433,
        events=24262,
        latency=(2560, 208718450, 27550, 179425),
        percentiles=(37350, 37350, 63150, 75050, 103750, 123350, 149450, 179425),
        energy={'optical': 248620.80000000086},
    ),
    ('all_to_all', 'point_to_point'): dict(
        network='Point-to-Point',
        workload='All-to-all-LS',
        runtime_ps=528200,
        ops_completed=2560,
        messages_sent=5433,
        events=13426,
        latency=(2560, 43499800, 6600, 23800),
        percentiles=(7600, 16400, 16800, 17200, 17600, 18800, 21200, 23800),
        energy={'optical': 248620.8000000007},
    ),
    ('all_to_all', 'limited_point_to_point'): dict(
        network='Limited Point-to-Point',
        workload='All-to-all-LS',
        runtime_ps=902200,
        ops_completed=2560,
        messages_sent=5433,
        events=20006,
        latency=(2560, 80180000, 4600, 46400),
        percentiles=(14400, 14400, 14800, 41200, 42000, 42400, 44400, 46400),
        energy={'router': 7561920.0, 'optical': 399859.2000000003},
    ),
    ('all_to_all', 'two_phase'): dict(
        network='2-Phase Arb.',
        workload='All-to-all-LS',
        runtime_ps=2147500,
        ops_completed=2560,
        messages_sent=5433,
        events=109748,
        latency=(2560, 211341800, 10400, 457700),
        percentiles=(19000, 20800, 36500, 66400, 110800, 165700, 288400, 457700),
        energy={'optical': 248620.8000000008},
    ),
    ('all_to_all', 'two_phase_alt'): dict(
        network='2-Phase Arb. ALT',
        workload='All-to-all-LS',
        runtime_ps=1085200,
        ops_completed=2560,
        messages_sent=5433,
        events=46094,
        latency=(2560, 98695300, 10400, 231100),
        percentiles=(14700, 19400, 20200, 26800, 48500, 73200, 139100, 231100),
        energy={'optical': 248620.80000000077},
    ),
    ('hand_built', 'token_ring'): dict(
        network='Token Ring',
        workload='hand-built',
        runtime_ps=48025,
        ops_completed=12,
        messages_sent=55,
        events=248,
        latency=(12, 104650, 3275, 14750),
        percentiles=(3275, 4000, 4075, 5025, 12950, 13500, 14750, 14750),
        energy={'optical': 1631.9999999999995},
    ),
    ('hand_built', 'circuit_switched'): dict(
        network='Circuit-Switched',
        workload='hand-built',
        runtime_ps=262550,
        ops_completed=12,
        messages_sent=55,
        events=236,
        latency=(12, 612850, 12400, 70775),
        percentiles=(12400, 12400, 37350, 56525, 56550, 70550, 70775, 70775),
        energy={'optical': 1631.9999999999998},
    ),
    ('hand_built', 'point_to_point'): dict(
        network='Point-to-Point',
        workload='hand-built',
        runtime_ps=48000,
        ops_completed=12,
        messages_sent=55,
        events=136,
        latency=(12, 102400, 3100, 14700),
        percentiles=(3100, 3100, 3900, 4000, 13400, 13800, 14700, 14700),
        energy={'optical': 1631.9999999999995},
    ),
    ('hand_built', 'limited_point_to_point'): dict(
        network='Limited Point-to-Point',
        workload='hand-built',
        runtime_ps=112200,
        ops_completed=12,
        messages_sent=55,
        events=172,
        latency=(12, 253500, 12400, 39200),
        percentiles=(12400, 12400, 13400, 16200, 17400, 39200, 39200, 39200),
        energy={'router': 35520.0, 'optical': 2342.3999999999996},
    ),
    ('hand_built', 'two_phase'): dict(
        network='2-Phase Arb.',
        workload='hand-built',
        runtime_ps=166000,
        ops_completed=12,
        messages_sent=55,
        events=564,
        latency=(12, 409800, 9500, 84500),
        percentiles=(9500, 12400, 12400, 30600, 38500, 69100, 84500, 84500),
        energy={'optical': 1631.9999999999995},
    ),
    ('hand_built', 'two_phase_alt'): dict(
        network='2-Phase Arb. ALT',
        workload='hand-built',
        runtime_ps=69800,
        ops_completed=12,
        messages_sent=55,
        events=186,
        latency=(12, 153000, 8100, 19800),
        percentiles=(8100, 8100, 9500, 10400, 17400, 17800, 19800, 19800),
        energy={'optical': 1631.9999999999998},
    ),
}


@pytest.fixture(scope="module")
def traces():
    return {name: build() for name, build in TRACES.items()}


@pytest.mark.parametrize("trace_name", list(TRACES))
@pytest.mark.parametrize("network", NETWORKS)
def test_replay_result_is_pinned(traces, trace_name, network):
    trace, cfg = traces[trace_name]
    assert summary(replay(trace, network, cfg)) == PINS[(trace_name,
                                                         network)]


SCALED_PINS = {
    'token_ring': dict(
        network='Token Ring',
        workload='All-to-all-LS',
        runtime_ps=483900,
        ops_completed=5120,
        messages_sent=10925,
        events=58591,
        latency=(5120, 164413870, 10610, 110455),
        percentiles=(15660, 21490, 25990, 31550, 37390, 42730, 55910, 110455),
        energy={'optical': 498009.60000000155},
    ),
    'two_phase': dict(
        network='2-Phase Arb.',
        workload='All-to-all-LS',
        runtime_ps=1063200,
        ops_completed=5120,
        messages_sent=10925,
        events=154786,
        latency=(5120, 366306000, 17400, 433200),
        percentiles=(22200, 24200, 33200, 55200, 91700, 140600, 256700, 433200),
        energy={'optical': 498009.60000000126},
        slots=(58450, 10916),
    ),
    'two_phase_alt': dict(
        network='2-Phase Arb. ALT',
        workload='All-to-all-LS',
        runtime_ps=573300,
        ops_completed=5120,
        messages_sent=10925,
        events=70656,
        latency=(5120, 190319500, 14000, 178400),
        percentiles=(19500, 23000, 24200, 27900, 44400, 63700, 109800, 178400),
        energy={'optical': 498009.6000000014},
        slots=(16385, 10916),
    ),
}


@pytest.fixture(scope="module")
def scaled_trace():
    return scaled()


@pytest.mark.parametrize("network", SCALED_NETWORKS)
def test_scaled_replay_result_is_pinned(scaled_trace, network):
    trace, cfg = scaled_trace
    assert scaled_summary(trace, network, cfg) == SCALED_PINS[network]


LU_PINS = {
    'point_to_point': dict(
        network='Point-to-Point',
        workload='LU',
        runtime_ps=1695400,
        ops_completed=17353,
        messages_sent=37028,
        events=91409,
        latency=(17353, 359756200, 6600, 101200),
        percentiles=(12400, 12400, 12400, 12400, 30000, 38000, 60000, 101200),
        energy={'optical': 632630.3999999844},
    ),
    'token_ring': dict(
        network='Token Ring',
        workload='LU',
        runtime_ps=1818355,
        ops_completed=17353,
        messages_sent=37028,
        events=129557,
        latency=(17353, 404488665, 3460, 170515),
        percentiles=(12400, 12400, 12400, 12400, 31905, 47335, 90430, 170515),
        energy={'optical': 632630.3999999817},
    ),
    'two_phase': dict(
        network='2-Phase Arb.',
        workload='LU',
        runtime_ps=3701200,
        ops_completed=17353,
        messages_sent=37028,
        events=294300,
        latency=(17353, 914427300, 12400, 847500),
        percentiles=(12400, 12400, 12400, 12400, 44400, 154100, 458200, 847500),
        energy={'optical': 632630.3999999848},
        slots=(94208, 14475),
    ),
}


@pytest.fixture(scope="module")
def lu_trace():
    return lu()


@pytest.mark.parametrize("network", LU_NETWORKS)
def test_lu_replay_result_is_pinned(lu_trace, network):
    trace, cfg = lu_trace
    assert scaled_summary(trace, network, cfg) == LU_PINS[network]
