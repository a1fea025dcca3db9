"""Tests for the token-ring optical crossbar (Corona adaptation)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.networks.base import Packet
from repro.networks.token_ring import TokenRingCrossbar, next_grant


@pytest.fixture
def net(paper_config, sim):
    return TokenRingCrossbar(paper_config, sim)


def test_bundle_is_full_site_ingress(net):
    # 128 receivers x 2.5 GB/s = 320 GB/s per destination bundle
    assert net.bundle_gb_per_s == pytest.approx(320.0)


def test_rotation_near_80_cycles(net):
    # the paper's scaled token round trip: 80 cycles = 16 ns
    assert 14000 <= net.rotation_ps <= 17000
    assert net.hop_ps == net.rotation_ps // 64


def test_single_packet_waits_for_token(net, sim):
    p = Packet(0, 1, 64)
    net.inject(p)
    sim.run()
    # token starts at snake position 0 == site 0, so the grant is
    # immediate; 64 B at 320 GB/s = 0.2 ns + 2 cm flight
    assert p.t_deliver == 200 + 200


def test_far_requester_waits_for_token_travel(net, sim):
    # site 7 is snake position 7: the token takes 7 hops to reach it
    p = Packet(7, 1, 64)
    net.inject(p)
    sim.run()
    expected = 7 * net.hop_ps + 200 + net.propagation_ps(7, 1)
    assert p.t_deliver == expected


def test_token_reacquisition_costs_full_rotation(net, sim):
    """After a send, the same site must wait a full round trip — the
    80-cycle penalty that ruins one-to-one patterns (section 6.1)."""
    p1 = Packet(0, 1, 64)
    p2 = Packet(0, 1, 64)
    net.inject(p1)
    net.inject(p2)
    sim.run()
    gap = p2.t_deliver - p1.t_deliver
    # a full rotation (64 hops) must pass between the two grants
    assert gap >= 64 * net.hop_ps


def test_different_destinations_have_independent_tokens(net, sim):
    p1 = Packet(0, 1, 64)
    p2 = Packet(0, 2, 64)
    net.inject(p1)
    net.inject(p2)
    sim.run()
    # both grants are immediate: separate tokens, no reacquisition
    assert abs(p1.t_deliver - p2.t_deliver) <= abs(
        net.propagation_ps(0, 1) - net.propagation_ps(0, 2))


def test_contending_sites_served_in_ring_order(net, sim):
    pa = Packet(5, 1, 64)
    pb = Packet(2, 1, 64)
    net.inject(pa)
    net.inject(pb)
    sim.run()
    # the token circulates forward from position 0: site 2 (snake pos 2)
    # is reached before site 5
    assert pb.t_deliver < pa.t_deliver


def test_all_packets_eventually_delivered(net, sim):
    delivered = []
    net.set_sink(delivered.append)
    for src in range(8):
        for _ in range(3):
            net.inject(Packet(src, 9, 64))
    sim.run()
    assert len(delivered) == 24


def test_token_position_closed_form(net):
    tok = net._token(1)
    pos, at = net._token_position_at(tok, 10 * net.hop_ps)
    assert pos == 10 % 64
    assert at == 10 * net.hop_ps


def test_stats_account_packets(net, sim):
    net.inject(Packet(0, 1, 64))
    sim.run()
    assert net.stats.delivered_packets == 1


def test_closer_late_request_preempts_scheduled_grant(net, sim):
    """A request posted while the token is in flight, at a site the token
    reaches first, is served first — the token is physically diverted by
    whichever waiting sender it passes."""
    far = Packet(40, 1, 64)   # snake position far from the start
    near = Packet(2, 1, 64)   # close to the token's starting position

    sim.at(0, net.inject, far)
    # inject the near request shortly after, before the token has
    # traveled past snake position 2
    sim.at(net.hop_ps, net.inject, near)
    sim.run()
    assert near.t_deliver < far.t_deliver


def test_release_guard_does_not_starve_other_sites(net, sim):
    """After site A releases the token, queued traffic from B must be
    served without waiting for A's full-rotation reacquisition."""
    a1 = Packet(0, 1, 64)
    a2 = Packet(0, 1, 64)
    b = Packet(3, 1, 64)
    sim.at(0, net.inject, a1)
    sim.at(0, net.inject, a2)
    sim.at(500, net.inject, b)  # arrives after a1's grant
    sim.run()
    # b (3 hops away) is served long before a2's full-rotation wait
    assert b.t_deliver < a2.t_deliver


def test_contended_destination_drains_in_waves(paper_config):
    """Regression: grant selection must pick the earliest-reachable
    waiter, not blindly the ring-order-first one (which can be the
    releasing site carrying a full-rotation penalty).  16 sites sending
    4 packets each to one destination drain in ~4 ring waves; steady
    arrivals must not inflate that."""
    from repro.core.engine import Simulator

    sim = Simulator()
    net = TokenRingCrossbar(paper_config, sim)
    packets = []
    for src in range(1, 17):
        for k in range(4):
            p = Packet(src, 0, 64)
            packets.append(p)
            # stagger arrivals so rescheduling happens while in flight
            sim.at(k * 100, net.inject, p)
    sim.run()
    makespan = max(p.t_deliver for p in packets)
    # ~4 waves around the ring, each roughly one rotation plus grant
    # overheads; the faulty selection needed tens of rotations
    assert makespan < 7 * net.rotation_ps


def _scan_next_grant(waiting_pos, n, hop, tok_pos, tok_time, now,
                     min_offset, release_pos, release_at):
    """Brute-force grant selection: the token's closed-form position,
    then every waiter scanned for the minimum (grant_time, ring offset),
    with the releasing site bumped to ``release_at``."""
    if now <= tok_time:
        pos, at = tok_pos, tok_time
    else:
        hops = (now - tok_time) // hop
        pos = (tok_pos + hops) % n
        at = tok_time + hops * hop
    best_time = -1
    best_off = 0
    best_p = -1
    for p in waiting_pos:
        offset = p - pos
        if offset < 0:
            offset += n
        if offset < min_offset:
            offset += n
        grant_time = at + offset * hop
        if grant_time < now:
            grant_time = now
        if p == release_pos:
            if grant_time < release_at:
                grant_time = release_at
        if (best_p < 0 or grant_time < best_time
                or (grant_time == best_time and offset < best_off)):
            best_time = grant_time
            best_off = offset
            best_p = p
    return best_time, best_p


@st.composite
def _grant_cases(draw):
    n = draw(st.one_of(st.integers(2, 8), st.integers(2, 64)))
    hop = draw(st.integers(1, 500))
    # dense masks, and sparse ones (the usual case at low occupancy)
    mask = draw(st.one_of(
        st.integers(1, (1 << n) - 1),
        st.sets(st.integers(0, n - 1), min_size=1, max_size=3).map(
            lambda ps: sum(1 << p for p in ps))))
    tok_pos = draw(st.integers(0, n - 1))
    tok_time = draw(st.integers(0, 200 * hop))
    now = tok_time + draw(st.integers(0, 3 * n * hop))
    min_offset = draw(st.sampled_from([0, 1]))
    waiters = [p for p in range(n) if mask >> p & 1]
    release_pos = draw(st.one_of(st.just(-1), st.integers(0, n - 1),
                                 st.sampled_from(waiters)))
    rotation = n * hop + draw(st.integers(0, n - 1))
    # a release time on the token's hop grid ties the bumped releasing
    # site with the next waiter
    release_at = draw(st.one_of(
        st.integers(0, now).map(lambda t: t + rotation),
        st.integers(0, 3 * n).map(lambda k: tok_time + k * hop)))
    return (mask, n, hop, tok_pos, tok_time, now, min_offset, release_pos,
            release_at)


@settings(max_examples=500, deadline=None)
@given(_grant_cases())
# the releasing site, bumped, ties the next waiter: the nearer one wins
@example((0b11, 2, 1, 0, 0, 0, 0, 0, 1))
def test_next_grant_matches_brute_force_scan(case):
    mask, n = case[:2]
    waiting_pos = [p for p in range(n) if mask >> p & 1]
    got = next_grant(*case)
    want = _scan_next_grant(waiting_pos, *case[1:])
    assert got == want, "next_grant%r == %r, brute-force scan %r" % (
        case, got, want)
