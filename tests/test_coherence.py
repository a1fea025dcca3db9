"""Tests for coherence operation records and message plans."""

import dataclasses
import pickle

import pytest

from repro.cpu.coherence import (
    CoherenceOp,
    LineState,
    OpKind,
    message_plan,
)

CTRL = 8
DATA = 72
DIR_CYC = 10
MEM_CYC = 50


def plan(op):
    return message_plan(op, CTRL, DATA, DIR_CYC, MEM_CYC)


def op(kind, requester=0, home=1, owner=None, sharers=()):
    return CoherenceOp(core=0, gap_cycles=5, kind=kind, requester=requester,
                       home=home, owner=owner, sharers=sharers)


class TestValidation:
    def test_gets_with_sharers_rejected(self):
        with pytest.raises(ValueError):
            op(OpKind.GET_S, sharers=(2,))

    def test_self_owner_rejected(self):
        with pytest.raises(ValueError):
            op(OpKind.GET_S, requester=0, owner=0)


class TestRecord:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            op(OpKind.GET_M).owner = 3

    def test_pickle_round_trip(self):
        # traces cross process boundaries pickled (a pooled trace build)
        original = CoherenceOp(core=9, gap_cycles=5, kind=OpKind.GET_M,
                               requester=1, home=2, owner=3,
                               sharers=(4, 6), line=0x1C0)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(original, protocol))
            assert copy == original
            assert repr(copy) == repr(original)

    @pytest.mark.parametrize("kind, owner, sharers", [
        (kind, owner, sharers) for kind in OpKind for owner in (None, 3)
        for sharers in ((), (4, 6))
        if not (kind is OpKind.GET_S and sharers)])
    def test_pickle_round_trip_every_shape(self, kind, owner, sharers):
        original = CoherenceOp(core=9, gap_cycles=5, kind=kind, requester=1,
                               home=2, owner=owner, sharers=sharers,
                               line=0x1C0)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(original, protocol))
            assert copy == original
            assert copy.kind is kind

    def test_unpickling_validates_through_the_constructor(self):
        """An op is loaded by calling CoherenceOp on its fields, so a
        pickle carrying fields no op may have fails to load."""
        ok = op(OpKind.GET_S, owner=2)
        assert ok.__reduce__()[0] is CoherenceOp

        class Tampered:
            def __reduce__(self):
                cls, fields = ok.__reduce__()
                return cls, fields[:5] + (fields[3],) + fields[6:]

        with pytest.raises(ValueError, match="its own remote owner"):
            pickle.loads(pickle.dumps(Tampered()))


class TestGetS:
    def test_memory_supply(self):
        steps = plan(op(OpKind.GET_S))
        assert len(steps) == 2
        req, data = steps
        assert (req.src, req.dst, req.size_bytes) == (0, 1, CTRL)
        assert (data.src, data.dst, data.size_bytes) == (1, 0, DATA)
        assert data.depends_on == 0
        assert data.extra_delay_cycles == DIR_CYC + MEM_CYC
        assert data.completes

    def test_cache_to_cache(self):
        steps = plan(op(OpKind.GET_S, owner=5))
        assert len(steps) == 3
        req, fwd, data = steps
        assert (fwd.src, fwd.dst) == (1, 5)
        assert fwd.extra_delay_cycles == DIR_CYC  # no memory access
        assert (data.src, data.dst) == (5, 0)
        assert data.depends_on == 1
        assert data.completes


class TestGetM:
    def test_no_sharers_memory_supply(self):
        steps = plan(op(OpKind.GET_M))
        assert len(steps) == 2
        assert steps[1].completes

    def test_sharers_fan_out(self):
        steps = plan(op(OpKind.GET_M, sharers=(2, 3, 4)))
        invs = [s for s in steps if s.kind == "inv"]
        acks = [s for s in steps if s.kind == "ack"]
        assert len(invs) == 3 and len(acks) == 3
        for inv in invs:
            assert inv.src == 1  # home broadcasts
            assert inv.depends_on == 0
        for ack in acks:
            assert ack.dst == 0  # collected at the requester
            assert ack.completes
        # data still arrives and completes
        assert steps[-1].kind == "data" and steps[-1].completes

    def test_owner_supply_with_sharers(self):
        steps = plan(op(OpKind.GET_M, owner=7, sharers=(2,)))
        data = steps[-1]
        assert data.src == 7 and data.dst == 0

    def test_completion_count_matches_acks_plus_data(self):
        steps = plan(op(OpKind.GET_M, sharers=(2, 3, 4)))
        assert sum(1 for s in steps if s.completes) == 4


class TestUpgrade:
    def test_permission_only(self):
        steps = plan(op(OpKind.UPGRADE, sharers=(2,)))
        kinds = [s.kind for s in steps]
        assert kinds == ["req", "inv", "ack", "perm"]
        assert all(s.size_bytes == CTRL for s in steps)
        perm = steps[-1]
        assert perm.completes
        assert perm.extra_delay_cycles == DIR_CYC


class TestWriteback:
    def test_single_data_message(self):
        steps = plan(op(OpKind.WRITEBACK))
        assert len(steps) == 1
        wb = steps[0]
        assert (wb.src, wb.dst, wb.size_bytes) == (0, 1, DATA)
        assert wb.kind == "wb"


def test_line_state_enum_members():
    assert {s.value for s in LineState} == {"M", "O", "E", "S", "I"}


class TestPlanProperties:
    """Structural invariants of every message plan."""

    from hypothesis import given, settings, strategies as st

    kinds = st.sampled_from([OpKind.GET_S, OpKind.GET_M, OpKind.UPGRADE,
                             OpKind.WRITEBACK])

    @settings(max_examples=200, deadline=None)
    @given(kind=kinds,
           requester=st.integers(min_value=0, max_value=15),
           home=st.integers(min_value=0, max_value=15),
           owner=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
           sharers=st.lists(st.integers(min_value=0, max_value=15),
                            max_size=4, unique=True))
    def test_plan_structure(self, kind, requester, home, owner, sharers):
        if owner == requester:
            owner = None
        if kind in (OpKind.GET_S, OpKind.WRITEBACK):
            sharers = []
        if kind is OpKind.WRITEBACK:
            owner = None
        sharers = tuple(s for s in sharers if s != requester)
        try:
            o = op(kind, requester=requester, home=home, owner=owner,
                   sharers=sharers)
        except ValueError:
            return
        steps = plan(o)
        # at least one step completes the operation
        assert any(s.completes for s in steps)
        # dependencies reference strictly earlier steps (acyclic chain)
        for i, step in enumerate(steps):
            if step.depends_on is not None:
                assert 0 <= step.depends_on < i
        # every invalidated sharer gets exactly one inv and one ack
        invs = [s.dst for s in steps if s.kind == "inv"]
        acks = [s.src for s in steps if s.kind == "ack"]
        assert sorted(invs) == sorted(sharers)
        assert sorted(acks) == sorted(sharers)
        # data (if any) ends at the requester
        for s in steps:
            if s.kind == "data":
                assert s.dst == requester
