"""Tests for the set-associative cache model."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.cache import SetAssociativeCache


def make_cache(size=4096, line=64, ways=2):
    return SetAssociativeCache(size, line, ways)


def test_geometry():
    c = SetAssociativeCache(256 * 1024, 64, 8)
    assert c.num_sets == 512
    assert c.line_bytes == 64
    assert c.ways == 8


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        SetAssociativeCache(1000, 64, 2)  # not divisible
    with pytest.raises(ValueError):
        SetAssociativeCache(4096, 60, 2)  # line not power of two


def test_line_address_alignment():
    c = make_cache()
    assert c.line_address(0) == 0
    assert c.line_address(63) == 0
    assert c.line_address(64) == 64
    assert c.line_address(130) == 128


def test_miss_then_hit():
    c = make_cache()
    r1 = c.access(0x1000, is_write=False)
    assert not r1.hit
    r2 = c.access(0x1000, is_write=False)
    assert r2.hit


def test_same_line_different_offsets_hit():
    c = make_cache()
    c.access(0x1000, is_write=False)
    assert c.access(0x1030, is_write=False).hit


def conflict_addrs(cache, count):
    """Distinct line addresses that all map to the same (hashed) set."""
    target = cache.set_index(0)
    addrs = [0]
    line = 1
    while len(addrs) < count:
        addr = line * cache.line_bytes
        if cache.set_index(addr) == target:
            addrs.append(addr)
        line += 1
    return addrs


def test_lru_eviction():
    c = make_cache(ways=2)
    a, b, d = conflict_addrs(c, 3)
    c.access(a, False)
    c.access(b, False)
    c.access(a, False)  # refresh a: b is now LRU
    r = c.access(d, False)
    assert not r.hit
    assert r.evicted_line == b
    assert c.contains(a)
    assert not c.contains(b)


def test_dirty_victim_reports_writeback():
    c = make_cache(ways=1)
    a, b = conflict_addrs(c, 2)
    c.access(a, is_write=True)
    r = c.access(b, is_write=False)
    assert r.writeback_line == a
    assert r.evicted_line == a


def test_clean_victim_no_writeback():
    c = make_cache(ways=1)
    a, b = conflict_addrs(c, 2)
    c.access(a, is_write=False)
    r = c.access(b, is_write=False)
    assert r.writeback_line is None
    assert r.evicted_line == a


def test_write_sets_dirty_on_hit():
    c = make_cache(ways=1)
    a, b = conflict_addrs(c, 2)
    c.access(a, is_write=False)
    c.access(a, is_write=True)  # hit-dirty
    r = c.access(b, is_write=False)
    assert r.writeback_line == a


def test_invalidate():
    c = make_cache()
    c.access(0x2000, False)
    assert c.invalidate(0x2000)
    assert not c.contains(0x2000)
    assert not c.invalidate(0x2000)  # already gone


def test_mark_clean():
    c = make_cache(ways=1)
    a, b = conflict_addrs(c, 2)
    c.access(a, is_write=True)
    c.mark_clean(a)
    r = c.access(b, is_write=False)
    assert r.writeback_line is None


def test_resident_lines_counts():
    c = make_cache()
    for i in range(5):
        c.access(i * 64, False)
    assert c.resident_lines == 5
    assert sorted(c.lines()) == [i * 64 for i in range(5)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                          st.booleans()),
                min_size=1, max_size=300))
def test_against_reference_lru_model(ops):
    """The cache must agree with a brute-force LRU reference model on
    hit/miss for every access (addresses constrained to 64 lines over a
    small cache to force plenty of evictions)."""
    cache = SetAssociativeCache(16 * 64 * 2, 64, 2)  # 16 sets, 2 ways
    ref = {}  # set_index -> list of lines, MRU last

    for line_no, is_write in ops:
        addr = line_no * 64
        set_i = cache.set_index(addr)
        entries = ref.setdefault(set_i, [])
        expected_hit = addr in entries
        got = cache.access(addr, is_write)
        assert got.hit == expected_hit
        if expected_hit:
            entries.remove(addr)
        elif len(entries) >= 2:
            victim = entries.pop(0)
            assert got.evicted_line == victim
        entries.append(addr)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1,
                max_size=500))
def test_capacity_never_exceeded(lines):
    cache = SetAssociativeCache(4096, 64, 2)
    for line_no in lines:
        cache.access(line_no * 64, False)
        assert cache.resident_lines <= 4096 // 64


class ReferenceLru:
    """The cache as one ``OrderedDict`` per set: line -> dirty, LRU
    first.  Written for clarity, not memory, to check the int-list sets
    against."""

    def __init__(self, cache):
        self.cache = cache
        self.sets = {}

    def _set(self, addr):
        return self.sets.setdefault(self.cache.set_index(addr),
                                    OrderedDict())

    def access(self, addr, is_write):
        line = self.cache.line_address(addr)
        entries = self._set(addr)
        if line in entries:
            entries.move_to_end(line)
            entries[line] = entries[line] or is_write
            return (True, None, None)
        evicted = writeback = None
        if len(entries) >= self.cache.ways:
            evicted, dirty = entries.popitem(last=False)
            if dirty:
                writeback = evicted
        entries[line] = is_write
        return (False, writeback, evicted)

    def invalidate(self, addr):
        return self._set(addr).pop(self.cache.line_address(addr),
                                   None) is not None

    def mark_clean(self, addr):
        entries = self._set(addr)
        line = self.cache.line_address(addr)
        if line in entries:
            entries[line] = False

    def lines(self):
        return [line for index in sorted(self.sets)
                for line in self.sets[index]]


CACHE_OPS = st.lists(
    st.tuples(st.sampled_from(["read", "write", "invalidate", "clean"]),
              st.integers(min_value=0, max_value=47),
              st.integers(min_value=0, max_value=63)),
    min_size=20, max_size=200)


@pytest.mark.parametrize("line_bytes", [1, 64])
@pytest.mark.parametrize("ways", [1, 2, 8])
@settings(max_examples=60, deadline=None)
@given(ops=CACHE_OPS)
def test_matches_ordered_dict_lru_reference(ways, line_bytes, ops):
    """Every access result, invalidation and resident line (in LRU
    order per set) agrees with a per-set OrderedDict LRU over random
    access/invalidate/mark_clean sequences.  Three times as many line
    numbers as the 2 sets of ``ways`` lines hold force evictions; line 0
    and, at 1-byte lines, line address 0 itself are among them."""
    cache = SetAssociativeCache(2 * ways * line_bytes, line_bytes, ways)
    ref = ReferenceLru(cache)
    for op, line_no, offset in ops:
        addr = line_no % (6 * ways) * line_bytes + offset % line_bytes
        if op in ("read", "write"):
            got = cache.access(addr, op == "write")
            assert (got.hit, got.writeback_line,
                    got.evicted_line) == ref.access(addr, op == "write")
        elif op == "invalidate":
            assert cache.invalidate(addr) == ref.invalidate(addr)
        else:
            cache.mark_clean(addr)
            ref.mark_clean(addr)
        assert cache.contains(addr) == (
            cache.line_address(addr) in ref._set(addr))
        by_set = sorted(cache.lines(),
                        key=lambda line: cache.set_index(line))
        assert by_set == ref.lines()
    assert cache.resident_lines == len(ref.lines())


def test_dirty_line_zero_at_one_byte_lines():
    """Line address 0 stored dirty is its complement, -1: it must read
    back as line 0 and write back as line 0."""
    c = SetAssociativeCache(1, 1, 1)  # one set of one 1-byte line
    c.access(0, is_write=True)
    assert c.contains(0) and c.lines() == [0]
    r = c.access(1, is_write=False)
    assert (r.evicted_line, r.writeback_line) == (0, 0)
    assert c.lines() == [1]


def test_negative_address_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        make_cache().access(-64, is_write=False)
