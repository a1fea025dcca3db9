"""Set-associative cache model.

Each macrochip site has one shared L2 (Table 4: 256 KB, shared by the
site's 8 cores).  The model is functional — it tracks presence, dirtiness,
and LRU order so the CPU simulator can decide hit/miss and generate
evictions — while timing is applied by the caller.

Addresses are plain integers; the line index/tag split follows the usual
``addr -> [tag | set | offset]`` decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


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
        self._set_mask = self.num_sets - 1
        self._set_bits = self.num_sets.bit_length() - 1
        self._line_shift = line_bytes.bit_length() - 1
        # per set: line address -> dirty bit, in LRU order (MRU last);
        # None until the set first gets a line, so a cache a workload
        # barely touches costs one list slot per set
        self._sets: List[Optional[Dict[int, int]]] = [None] * self.num_sets

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
        return h >> (32 - self._set_bits)

    # -- operations ----------------------------------------------------------

    def contains(self, addr: int) -> bool:
        entries = self._sets[self.set_index(addr)]
        return entries is not None and self.line_address(addr) in entries

    def access(self, addr: int, is_write: bool) -> AccessResult:
        """Look up (and on miss, allocate) the line holding ``addr``.

        Returns hit/miss plus the victim line if an allocation evicted one
        (and whether that victim was dirty, i.e. needs a writeback).
        """
        miss = self.reference(self.line_address(addr), is_write)
        return AccessResult(hit=True) if miss is None else miss

    def reference(self, line: int, is_write: bool) -> Optional[AccessResult]:
        """:meth:`access` for a line address, with one lookup in its
        set: a hit moves the line to MRU (dirty on a write) and returns
        None; a miss allocates it and returns the miss's
        :class:`AccessResult`."""
        index = self.set_index(line)
        entries = self._sets[index]
        if entries is None:
            entries = self._sets[index] = {}
        dirty = entries.pop(line, None)
        if dirty is not None:
            entries[line] = 1 if is_write else dirty  # move to MRU
            return None
        # miss: allocate, evicting LRU if the set is full
        writeback = None
        evicted = None
        if len(entries) >= self.ways:
            evicted = next(iter(entries))
            if entries.pop(evicted):
                writeback = evicted
        entries[line] = 1 if is_write else 0
        return AccessResult(hit=False, writeback_line=writeback,
                            evicted_line=evicted)

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` (remote invalidation).  Returns
        True if the line was present."""
        entries = self._sets[self.set_index(addr)]
        return (entries is not None
                and entries.pop(self.line_address(addr), None) is not None)

    def mark_clean(self, addr: int) -> None:
        """Clear the dirty bit (after an ownership downgrade)."""
        entries = self._sets[self.set_index(addr)]
        line = self.line_address(addr)
        if entries is not None and line in entries:
            entries[line] = 0

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets if s is not None)

    def lines(self) -> List[int]:
        """All resident line addresses (for tests)."""
        return [line for s in self._sets if s is not None for line in s]
