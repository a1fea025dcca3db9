"""Full-map coherence directory.

One directory entry per cache line, distributed across the macrochip by
line-interleaving (the *home* site).  Entries track the MOESI state at
site granularity with an owner id and a sharer bitmask (bit ``s`` set:
site ``s`` holds a copy), which is exactly the "detailed coherence
information" the paper's CPU simulator attaches to its L2 miss traffic
(section 5).

The directory is *functional*: `read`/`write` mutate protocol state and
report which remote sites must be contacted; the timing cost is applied
by the network replay using the message plans of
:mod:`repro.cpu.coherence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .coherence import LineState


def _sites(mask: int) -> Iterator[int]:
    """The site ids of ``mask``'s set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(slots=True)
class DirectoryEntry:
    """State of one line: who owns it, who shares it.

    ``sharer_mask`` has bit ``s`` set for every site ``s`` holding a
    copy, so a touched line costs one slotted instance and one int.
    """

    state: LineState = LineState.INVALID
    owner: Optional[int] = None
    sharer_mask: int = 0

    @property
    def sharers(self) -> FrozenSet[int]:
        """Read-only view of the sharer sites."""
        return frozenset(_sites(self.sharer_mask))


@dataclass(frozen=True)
class DirectoryOutcome:
    """What a directory access decided.

    ``owner`` — remote site that must supply data (None: memory supplies);
    ``invalidated`` — remote sites whose copies were invalidated, in
    ascending site order (the order of the replay's invalidations).
    """

    owner: Optional[int]
    invalidated: Tuple[int, ...]
    was_hit: bool  # the line was known to the directory


class Directory:
    """Site-interleaved full-map MOESI directory.

    Entries are created on a line's first access and live for the run;
    each holds the line's state, its owner site and its sharer bitmask.
    """

    def __init__(self, num_sites: int, line_bytes: int = 64) -> None:
        if num_sites < 1:
            raise ValueError("need at least one site")
        self.num_sites = num_sites
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self._entries: Dict[int, DirectoryEntry] = {}

    #: home interleaving granularity, in lines (64 lines = one 4 KB page).
    #: Page-granularity interleaving keeps the home-site bits out of the
    #: cache set index, so same-home data does not collide into a handful
    #: of sets.
    PAGE_LINES = 64

    def home_site(self, addr: int) -> int:
        """Page-interleaved home mapping."""
        return (addr >> self._line_shift) // self.PAGE_LINES % self.num_sites

    def entry(self, line: int) -> DirectoryEntry:
        e = self._entries.get(line)
        if e is None:
            e = DirectoryEntry()
            self._entries[line] = e
        return e

    def peek(self, line: int) -> Optional[DirectoryEntry]:
        """Entry without creating one (for tests/inspection)."""
        return self._entries.get(line)

    # -- protocol transitions ------------------------------------------------

    def read(self, line: int, requester: int) -> DirectoryOutcome:
        """A site requests read access (GetS)."""
        e = self.entry(line)
        was_hit = e.state is not LineState.INVALID
        supplier: Optional[int] = None
        if e.state in (LineState.MODIFIED, LineState.EXCLUSIVE):
            assert e.owner is not None
            if e.owner != requester:
                supplier = e.owner
                # owner downgrades: M -> O (keeps dirty data), E -> S
                e.state = (LineState.OWNED if e.state is LineState.MODIFIED
                           else LineState.SHARED)
                e.sharer_mask |= 1 << e.owner
                if e.state is LineState.SHARED:
                    e.owner = None
        elif e.state is LineState.OWNED:
            assert e.owner is not None
            if e.owner != requester:
                supplier = e.owner
        if e.state is LineState.INVALID:
            # memory supplies; first reader gets Exclusive
            e.state = LineState.EXCLUSIVE
            e.owner = requester
        else:
            e.sharer_mask |= 1 << requester
            if e.state is LineState.EXCLUSIVE and e.owner == requester:
                pass  # silent re-read by the owner
            elif e.state not in (LineState.MODIFIED, LineState.OWNED):
                e.state = LineState.SHARED
                if e.owner == requester:
                    e.owner = None
        return DirectoryOutcome(owner=supplier, invalidated=(), was_hit=was_hit)

    def write(self, line: int, requester: int) -> DirectoryOutcome:
        """A site requests write (exclusive) access (GetM/Upgrade)."""
        e = self.entry(line)
        was_hit = e.state is not LineState.INVALID
        supplier: Optional[int] = None
        if (e.state in (LineState.MODIFIED, LineState.EXCLUSIVE,
                        LineState.OWNED)
                and e.owner is not None and e.owner != requester):
            supplier = e.owner
        requester_bit = 1 << requester
        others = e.sharer_mask & ~requester_bit
        invalidated = tuple(_sites(others)) if others else ()
        # a supplier outside the sharer set: the old owner's copy dies
        # too, but it supplies data rather than acking, so it is not in
        # the invalidation fan-out
        e.state = LineState.MODIFIED
        e.owner = requester
        e.sharer_mask = requester_bit
        return DirectoryOutcome(owner=supplier, invalidated=invalidated,
                                was_hit=was_hit)

    def evict(self, line: int, site: int) -> None:
        """A site silently drops (or writes back) its copy."""
        e = self._entries.get(line)
        if e is None:
            return
        e.sharer_mask &= ~(1 << site)
        if e.owner == site:
            e.owner = None
            if e.sharer_mask:
                e.state = LineState.SHARED
            else:
                e.state = LineState.INVALID
        elif not e.sharer_mask and e.owner is None:
            e.state = LineState.INVALID

    # -- invariants (used by property tests) ---------------------------------

    def check_invariants(self, line: int) -> None:
        """Raises AssertionError if the entry violates MOESI invariants."""
        e = self._entries.get(line)
        if e is None:
            return
        if e.state is LineState.INVALID:
            assert e.owner is None, "invalid line with an owner"
        if e.state in (LineState.MODIFIED, LineState.EXCLUSIVE):
            assert e.owner is not None, "%s line without owner" % e.state
            assert e.sharers <= {e.owner}, (
                "%s line with foreign sharers %s" % (e.state, e.sharers))
        if e.state is LineState.OWNED:
            assert e.owner is not None, "owned line without owner"
        if e.state is LineState.SHARED:
            assert e.owner is None, "shared line with an owner"
