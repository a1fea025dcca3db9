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


class ReferenceDirectory:
    """The directory's transitions on one mutable record per line, as
    they were written before entries became packed ints: the reference
    the packed words are checked against."""

    def __init__(self):
        self.entries = {}

    def entry(self, line):
        return self.entries.setdefault(line, DirectoryEntry())

    def read(self, line, requester):
        e = self.entry(line)
        was_hit = e.state is not LineState.INVALID
        supplier = None
        if e.state in (LineState.MODIFIED, LineState.EXCLUSIVE):
            if e.owner != requester:
                supplier = e.owner
                e.state = (LineState.OWNED if e.state is LineState.MODIFIED
                           else LineState.SHARED)
                e.sharer_mask |= 1 << e.owner
                if e.state is LineState.SHARED:
                    e.owner = None
        elif e.state is LineState.OWNED:
            if e.owner != requester:
                supplier = e.owner
        if e.state is LineState.INVALID:
            e.state = LineState.EXCLUSIVE
            e.owner = requester
        else:
            e.sharer_mask |= 1 << requester
            if e.state is LineState.EXCLUSIVE and e.owner == requester:
                pass
            elif e.state not in (LineState.MODIFIED, LineState.OWNED):
                e.state = LineState.SHARED
                if e.owner == requester:
                    e.owner = None
        return (supplier, (), was_hit)

    def write(self, line, requester):
        e = self.entry(line)
        was_hit = e.state is not LineState.INVALID
        supplier = None
        if (e.state in (LineState.MODIFIED, LineState.EXCLUSIVE,
                        LineState.OWNED)
                and e.owner is not None and e.owner != requester):
            supplier = e.owner
        others = e.sharer_mask & ~(1 << requester)
        invalidated = tuple(s for s in range(others.bit_length())
                            if others >> s & 1)
        e.state = LineState.MODIFIED
        e.owner = requester
        e.sharer_mask = 1 << requester
        return (supplier, invalidated, was_hit)

    def upgrade_silently(self, line, site):
        e = self.entry(line)
        if e.owner == site and e.state in (LineState.MODIFIED,
                                           LineState.EXCLUSIVE):
            e.state = LineState.MODIFIED
            return True
        return False

    def evict(self, line, site):
        e = self.entries.get(line)
        if e is None:
            return
        e.sharer_mask &= ~(1 << site)
        if e.owner == site:
            e.owner = None
            e.state = (LineState.SHARED if e.sharer_mask
                       else LineState.INVALID)
        elif not e.sharer_mask and e.owner is None:
            e.state = LineState.INVALID

    def snapshot(self, line):
        e = self.entries.get(line)
        return (None if e is None
                else (e.state, e.owner, e.sharer_mask))


def _snapshot(directory, line):
    e = directory.peek(line)
    return None if e is None else (e.state, e.owner, e.sharer_mask)


def _agrees(directory, ref, line):
    """Both say the same about ``line``; a line one of them never
    created reads as INVALID, no owner, no sharers."""
    blank = (LineState.INVALID, None, 0)
    return (_snapshot(directory, line) or blank) == (ref.snapshot(line)
                                                     or blank)


DIRECTORY_OPS = st.lists(
    st.tuples(st.sampled_from(["read", "write", "evict", "upgrade"]),
              st.integers(min_value=0, max_value=2),  # line
              st.integers(min_value=0, max_value=5)),  # site slot
    min_size=1, max_size=120)


@pytest.mark.parametrize("num_sites", [1, 3, 64, 200])
@settings(max_examples=80, deadline=None)
@given(ops=DIRECTORY_OPS)
def test_packed_words_match_per_object_reference(num_sites, ops):
    """Random read/write/evict/silent-upgrade sequences on three lines:
    every outcome and every line's state, owner and sharer mask agree
    with the per-object reference.  The sites drawn include the highest
    ids, which fill the owner field and the top of the sharer mask."""
    slots = sorted({0, 1, num_sites // 2, num_sites - 2, num_sites - 1,
                    num_sites // 3} & set(range(num_sites)))
    d = Directory(num_sites)
    ref = ReferenceDirectory()
    lines = [i * 64 for i in range(3)]
    for op, line_no, slot in ops:
        line, site = lines[line_no], slots[slot % len(slots)]
        if op == "read":
            out = d.read(line, site)
            assert (out.owner, out.invalidated,
                    out.was_hit) == ref.read(line, site)
        elif op == "write":
            out = d.write(line, site)
            assert (out.owner, out.invalidated,
                    out.was_hit) == ref.write(line, site)
        elif op == "upgrade":
            assert (d.upgrade_silently(line, site)
                    == ref.upgrade_silently(line, site))
        else:
            d.evict(line, site)
            ref.evict(line, site)
        for each in lines:
            assert _agrees(d, ref, each), (op, line, site)
        d.check_invariants(line)


def test_owner_field_fits_any_site_count():
    """The owner field widens with the site count: site 199's ownership
    of a line shared with site 0 reads back exactly at 200 sites."""
    d = Directory(200)
    d.write(LINE, 199)
    d.read(LINE, 0)
    e = d.peek(LINE)
    assert (e.state, e.owner, e.sharers) == (LineState.OWNED, 199,
                                             {0, 199})


def test_silent_upgrade_only_at_the_e_or_m_owner(directory):
    assert not directory.upgrade_silently(LINE, 3)  # unknown line
    assert directory.peek(LINE) is None
    directory.read(LINE, 3)  # E at 3
    assert not directory.upgrade_silently(LINE, 4)
    assert directory.peek(LINE).state is LineState.EXCLUSIVE
    assert directory.upgrade_silently(LINE, 3)
    e = directory.peek(LINE)
    # the first reader owns E without a sharer bit, and keeps none in M
    assert (e.state, e.owner, e.sharers) == (LineState.MODIFIED, 3, set())
    assert directory.upgrade_silently(LINE, 3)  # M stays M
    directory.read(LINE, 5)  # O at 3, shared with 5
    assert not directory.upgrade_silently(LINE, 3)
    assert directory.peek(LINE).state is LineState.OWNED


def test_trace_build_stores_no_per_line_object():
    """After a kernel's trace build every directory entry and every
    resident cache line is a plain int, not a per-line record."""
    from repro.cpu.system import CpuSimulator
    from repro.macrochip.config import small_test_config
    from repro.workloads.kernels import LuKernel

    sim = CpuSimulator(small_test_config(2, 2))
    sim.run(LuKernel(refs_per_core=40))
    entries = sim.directory._entries
    assert entries
    assert all(type(k) is int and type(v) is int
               for k, v in entries.items())
    members = [m for cache in sim.caches for s in cache._sets
               if s is not None for m in s]
    assert members
    assert all(type(m) is int for m in members)
    assert all(type(s) is list for cache in sim.caches
               for s in cache._sets if s is not None)
