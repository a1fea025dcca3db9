"""Set-associative cache model.

Each macrochip site has one shared L2 (Table 4: 256 KB, shared by the
site's 8 cores).  The model is functional — it tracks presence, dirtiness,
and LRU order so the CPU simulator can decide hit/miss and generate
evictions — while timing is applied by the caller.

Addresses are plain non-negative integers; the line index/tag split
follows the usual ``addr -> [tag | set | offset]`` decomposition.

A trace build keeps 64 of these caches full for its whole run, so a
resident line is one int, not an object: each set is a list of its line
addresses in LRU order (MRU last), a dirty line stored as its bitwise
complement ``~line``.  Line addresses are non-negative, so a negative
member is a dirty line (``~0 == -1`` covers line 0) for every line size,
1 byte included.  A lookup is two C-level ``in`` scans of at most
``ways`` ints; an eviction pops the set's head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    writeback_line: Optional[int] = None  # line address of a dirty victim
    evicted_line: Optional[int] = None  # line address of any victim


class SetAssociativeCache:
    """A classic set-associative, write-back, write-allocate cache."""

    def __init__(self, size_bytes: int, line_bytes: int = 64,
                 ways: int = 8) -> None:
        if not _is_power_of_two(line_bytes):
            raise ValueError("line size must be a power of two")
        if size_bytes % (line_bytes * ways):
            raise ValueError("cache size must be divisible by line*ways")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        if not _is_power_of_two(self.num_sets):
            raise ValueError("set count must be a power of two")
        self._set_bits = self.num_sets.bit_length() - 1
        self._hash_shift = 32 - self._set_bits
        self._line_shift = line_bytes.bit_length() - 1
        # per set: its lines in LRU order (MRU last), a dirty one stored
        # as ~line; None until the set first gets a line, so a cache a
        # workload barely touches costs one list slot per set
        self._sets: List[Optional[List[int]]] = [None] * self.num_sets

    # -- address helpers ----------------------------------------------------

    def line_address(self, addr: int) -> int:
        """The line-aligned address containing ``addr``."""
        return addr >> self._line_shift << self._line_shift

    def set_index(self, addr: int) -> int:
        """Hashed set index (Fibonacci multiplicative hashing).

        Hashed indexing decorrelates set placement from regular address
        strides — in particular the home-site page interleave, whose
        stride is a multiple of the set count and would otherwise alias
        all same-home data into one page's worth of sets.
        """
        line = addr >> self._line_shift
        h = (line * 0x9E3779B1) & 0xFFFFFFFF
        return h >> self._hash_shift

    # -- operations ----------------------------------------------------------

    def contains(self, addr: int) -> bool:
        members = self._sets[self.set_index(addr)]
        line = self.line_address(addr)
        return members is not None and (line in members or ~line in members)

    def access(self, addr: int, is_write: bool) -> AccessResult:
        """Look up (and on miss, allocate) the line holding ``addr``.

        Returns hit/miss plus the victim line if an allocation evicted one
        (and whether that victim was dirty, i.e. needs a writeback).
        Raises ``ValueError`` on a negative address.
        """
        if addr < 0:
            raise ValueError("address must be non-negative, got %r" % addr)
        miss = self.reference(self.line_address(addr), is_write)
        return AccessResult(hit=True) if miss is None else miss

    def reference(self, line: int, is_write: bool) -> Optional[AccessResult]:
        """:meth:`access` for a (non-negative) line address: a hit moves
        the line to MRU (dirty on a write) and returns None; a miss
        allocates it and returns the miss's :class:`AccessResult`."""
        # set_index, inlined
        index = ((line >> self._line_shift) * 0x9E3779B1
                 & 0xFFFFFFFF) >> self._hash_shift
        members = self._sets[index]
        if members is None:
            self._sets[index] = [~line if is_write else line]
            return AccessResult(hit=False)
        if line in members:  # clean hit
            members.remove(line)
            members.append(~line if is_write else line)
            return None
        dirty = ~line
        if dirty in members:  # dirty hit: stays dirty
            members.remove(dirty)
            members.append(dirty)
            return None
        # miss: allocate, evicting LRU if the set is full
        writeback = None
        evicted = None
        if len(members) >= self.ways:
            evicted = members.pop(0)
            if evicted < 0:
                evicted = writeback = ~evicted
        members.append(dirty if is_write else line)
        return AccessResult(hit=False, writeback_line=writeback,
                            evicted_line=evicted)

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` (remote invalidation).  Returns
        True if the line was present."""
        members = self._sets[self.set_index(addr)]
        if members is None:
            return False
        line = self.line_address(addr)
        for member in (line, ~line):
            if member in members:
                members.remove(member)
                return True
        return False

    def mark_clean(self, addr: int) -> None:
        """Clear the dirty bit (after an ownership downgrade); the line
        keeps its LRU position."""
        members = self._sets[self.set_index(addr)]
        line = self.line_address(addr)
        if members is not None and ~line in members:
            members[members.index(~line)] = line

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets if s is not None)

    def lines(self) -> List[int]:
        """All resident line addresses (for tests), each set LRU first."""
        return [member if member >= 0 else ~member
                for s in self._sets if s is not None for member in s]
