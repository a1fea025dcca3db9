"""Tests for the MOESI directory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.coherence import CoherenceOp, LineState, OpKind
from repro.cpu.directory import Directory, DirectoryEntry


@pytest.fixture
def directory():
    return Directory(num_sites=16)


LINE = 0x40


def test_home_site_page_interleaved(directory):
    # homes change every 64 lines (one page)
    assert directory.home_site(0) == 0
    assert directory.home_site(63 * 64) == 0
    assert directory.home_site(64 * 64) == 1
    assert directory.home_site(16 * 64 * 64) == 0  # wraps


def test_first_read_gets_exclusive(directory):
    out = directory.read(LINE, requester=3)
    assert out.owner is None  # memory supplies
    assert not out.was_hit
    e = directory.peek(LINE)
    assert e.state is LineState.EXCLUSIVE
    assert e.owner == 3


def test_second_read_fetches_from_owner(directory):
    directory.read(LINE, 3)
    out = directory.read(LINE, 5)
    assert out.owner == 3  # cache-to-cache
    e = directory.peek(LINE)
    assert e.state is LineState.SHARED
    assert 5 in e.sharers and 3 in e.sharers


def test_read_after_write_downgrades_to_owned(directory):
    directory.write(LINE, 3)
    out = directory.read(LINE, 5)
    assert out.owner == 3
    e = directory.peek(LINE)
    assert e.state is LineState.OWNED
    assert e.owner == 3
    assert 5 in e.sharers


def test_write_invalidates_sharers(directory):
    directory.read(LINE, 1)
    directory.read(LINE, 2)
    directory.read(LINE, 3)
    out = directory.write(LINE, 4)
    assert set(out.invalidated) == {2, 3} or set(out.invalidated) == {1, 2, 3}
    e = directory.peek(LINE)
    assert e.state is LineState.MODIFIED
    assert e.owner == 4
    assert e.sharers == {4}


def test_write_fetches_from_modified_owner(directory):
    directory.write(LINE, 1)
    out = directory.write(LINE, 2)
    assert out.owner == 1
    assert directory.peek(LINE).owner == 2


def test_writer_upgrading_own_line_has_no_supplier(directory):
    directory.read(LINE, 1)  # E at site 1
    out = directory.write(LINE, 1)
    assert out.owner is None
    assert out.invalidated == ()


def test_evict_owner_without_sharers_invalidates(directory):
    directory.write(LINE, 1)
    directory.evict(LINE, 1)
    assert directory.peek(LINE).state is LineState.INVALID


def test_evict_owner_with_sharers_leaves_shared(directory):
    directory.write(LINE, 1)
    directory.read(LINE, 2)  # O at 1, sharer 2
    directory.evict(LINE, 1)
    e = directory.peek(LINE)
    assert e.state is LineState.SHARED
    assert e.owner is None
    assert e.sharers == {2}


def test_evict_sharer_keeps_state(directory):
    directory.read(LINE, 1)
    directory.read(LINE, 2)
    directory.evict(LINE, 2)
    e = directory.peek(LINE)
    assert 2 not in e.sharers


def test_evict_unknown_line_is_noop(directory):
    directory.evict(0x9999 * 64, 0)  # must not raise


def test_invariants_hold_on_simple_sequences(directory):
    directory.read(LINE, 1)
    directory.check_invariants(LINE)
    directory.write(LINE, 2)
    directory.check_invariants(LINE)
    directory.read(LINE, 3)
    directory.check_invariants(LINE)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["read", "write", "evict"]),
                          st.integers(min_value=0, max_value=7)),
                min_size=1, max_size=200))
def test_moesi_invariants_under_random_traffic(ops):
    """MOESI stable-state invariants hold after every protocol step, and
    directory outcomes stay self-consistent (no self-supply, no
    self-invalidation)."""
    d = Directory(num_sites=8)
    line = 0x80
    for op, site in ops:
        if op == "read":
            out = d.read(line, site)
            assert out.owner != site
        elif op == "write":
            out = d.write(line, site)
            assert out.owner != site
            assert site not in out.invalidated
        else:
            d.evict(line, site)
        d.check_invariants(line)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=2,
                max_size=60))
def test_write_after_reads_invalidates_every_other_sharer(readers):
    d = Directory(num_sites=8)
    line = 0x100
    for r in readers:
        d.read(line, r)
    writer = readers[0]
    expected = set(readers) - {writer}
    out = d.write(line, writer)
    # ascending site order: it becomes the op's sharers and so the order
    # of the replay's invalidation messages
    assert list(out.invalidated) == sorted(set(out.invalidated))
    covered = set(out.invalidated)
    if out.owner is not None:
        covered.add(out.owner)
    assert covered == expected


def test_sharers_view_is_read_only(directory):
    directory.read(LINE, 1)
    directory.read(LINE, 6)
    e = directory.peek(LINE)
    assert e.sharers == frozenset({1, 6})
    with pytest.raises(AttributeError):
        e.sharers = {2}


def test_per_line_records_have_no_instance_dict():
    """Entries and ops are held per touched line and per op for a whole
    trace build, so neither may grow a per-instance ``__dict__``."""
    op = CoherenceOp(core=0, gap_cycles=1, kind=OpKind.GET_S, requester=0,
                     home=1)
    for record in (op, DirectoryEntry()):
        assert not hasattr(record, "__dict__"), type(record).__name__
