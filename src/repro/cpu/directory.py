"""Full-map coherence directory.

One directory entry per cache line, distributed across the macrochip by
line-interleaving (the *home* site).  Entries track the MOESI state at
site granularity with an owner id and a sharer bitmask (bit ``s`` set:
site ``s`` holds a copy), which is exactly the "detailed coherence
information" the paper's CPU simulator attaches to its L2 miss traffic
(section 5).

A trace build touches tens of thousands of lines and keeps every entry
for its whole run, so an entry is one int rather than an object:

    word = state | (owner + 1) << 3 | sharer_mask << (3 + owner_bits)

with ``owner_bits = num_sites.bit_length()`` (owner ``-1``, stored as 0,
means no owner) and the 3-bit state codes below.  The sharer mask is the
word's unbounded top, so any site count fits, and a line the directory
never saw reads as word 0: INVALID, no owner, no sharers.  Each
transition unpacks the word into three locals, runs the protocol logic
and packs it once; :meth:`Directory.peek` hands tests a
:class:`DirectoryEntry` snapshot.

The directory is *functional*: `read`/`write` mutate protocol state and
report which remote sites must be contacted; the timing cost is applied
by the network replay using the message plans of
:mod:`repro.cpu.coherence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .coherence import LineState

#: 3-bit state codes of a directory word (INVALID is 0: an absent word)
_INVALID, _SHARED, _EXCLUSIVE, _OWNED, _MODIFIED = range(5)
#: state code -> LineState
_STATES = (LineState.INVALID, LineState.SHARED, LineState.EXCLUSIVE,
           LineState.OWNED, LineState.MODIFIED)
_STATE_BITS = 3
_STATE_MASK = (1 << _STATE_BITS) - 1


def _sites(mask: int) -> Iterator[int]:
    """The site ids of ``mask``'s set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(slots=True)
class DirectoryEntry:
    """Snapshot of one line's state: who owns it, who shares it.

    ``sharer_mask`` has bit ``s`` set for every site ``s`` holding a
    copy.  The directory stores a packed int per line and builds this
    record only when asked (:meth:`Directory.peek`).
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
    each is one packed int word (see the module docstring).
    """

    def __init__(self, num_sites: int, line_bytes: int = 64) -> None:
        if num_sites < 1:
            raise ValueError("need at least one site")
        self.num_sites = num_sites
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        # the owner field holds owner + 1 in [0, num_sites]
        owner_bits = num_sites.bit_length()
        self._owner_mask = (1 << owner_bits) - 1
        self._sharer_shift = _STATE_BITS + owner_bits
        self._entries: Dict[int, int] = {}

    #: home interleaving granularity, in lines (64 lines = one 4 KB page).
    #: Page-granularity interleaving keeps the home-site bits out of the
    #: cache set index, so same-home data does not collide into a handful
    #: of sets.
    PAGE_LINES = 64

    def home_site(self, addr: int) -> int:
        """Page-interleaved home mapping."""
        return (addr >> self._line_shift) // self.PAGE_LINES % self.num_sites

    def peek(self, line: int) -> Optional[DirectoryEntry]:
        """Snapshot of ``line``'s entry, None if the directory never saw
        it (for tests/inspection)."""
        word = self._entries.get(line)
        if word is None:
            return None
        owner = (word >> _STATE_BITS & self._owner_mask) - 1
        return DirectoryEntry(state=_STATES[word & _STATE_MASK],
                              owner=None if owner < 0 else owner,
                              sharer_mask=word >> self._sharer_shift)

    # -- protocol transitions ------------------------------------------------
    #
    # Each unpacks the word into ``state`` (a code), ``owner`` (-1: none)
    # and ``sharers`` (the mask), and packs them back once.

    def read(self, line: int, requester: int) -> DirectoryOutcome:
        """A site requests read access (GetS)."""
        word = self._entries.get(line, 0)
        state = word & _STATE_MASK
        owner = (word >> _STATE_BITS & self._owner_mask) - 1
        sharers = word >> self._sharer_shift
        was_hit = state != _INVALID
        supplier: Optional[int] = None
        if state == _MODIFIED or state == _EXCLUSIVE:
            assert owner >= 0
            if owner != requester:
                supplier = owner
                # owner downgrades: M -> O (keeps dirty data), E -> S
                state = _OWNED if state == _MODIFIED else _SHARED
                sharers |= 1 << owner
                if state == _SHARED:
                    owner = -1
        elif state == _OWNED:
            assert owner >= 0
            if owner != requester:
                supplier = owner
        if state == _INVALID:
            # memory supplies; first reader gets Exclusive
            state = _EXCLUSIVE
            owner = requester
        else:
            sharers |= 1 << requester
            if state == _EXCLUSIVE and owner == requester:
                pass  # silent re-read by the owner
            elif state != _MODIFIED and state != _OWNED:
                state = _SHARED
                if owner == requester:
                    owner = -1
        self._entries[line] = (state | (owner + 1) << _STATE_BITS
                               | sharers << self._sharer_shift)
        return DirectoryOutcome(owner=supplier, invalidated=(), was_hit=was_hit)

    def write(self, line: int, requester: int) -> DirectoryOutcome:
        """A site requests write (exclusive) access (GetM/Upgrade)."""
        word = self._entries.get(line, 0)
        state = word & _STATE_MASK
        owner = (word >> _STATE_BITS & self._owner_mask) - 1
        sharers = word >> self._sharer_shift
        was_hit = state != _INVALID
        supplier: Optional[int] = None
        if (state in (_MODIFIED, _EXCLUSIVE, _OWNED)
                and owner >= 0 and owner != requester):
            supplier = owner
        requester_bit = 1 << requester
        others = sharers & ~requester_bit
        invalidated = tuple(_sites(others)) if others else ()
        # a supplier outside the sharer set: the old owner's copy dies
        # too, but it supplies data rather than acking, so it is not in
        # the invalidation fan-out
        self._entries[line] = (_MODIFIED | (requester + 1) << _STATE_BITS
                               | requester_bit << self._sharer_shift)
        return DirectoryOutcome(owner=supplier, invalidated=invalidated,
                                was_hit=was_hit)

    def upgrade_silently(self, line: int, site: int) -> bool:
        """A write hit at ``site``: if the site owns ``line`` in M or E,
        the line becomes (stays) Modified with no network traffic and
        this returns True; otherwise nothing changes and it returns
        False (the write needs :meth:`write`)."""
        word = self._entries.get(line, 0)
        state = word & _STATE_MASK
        if ((state == _MODIFIED or state == _EXCLUSIVE)
                and word >> _STATE_BITS & self._owner_mask == site + 1):
            self._entries[line] = word ^ state ^ _MODIFIED
            return True
        return False

    def evict(self, line: int, site: int) -> None:
        """A site silently drops (or writes back) its copy."""
        word = self._entries.get(line)
        if word is None:
            return
        state = word & _STATE_MASK
        owner = (word >> _STATE_BITS & self._owner_mask) - 1
        sharers = word >> self._sharer_shift
        sharers &= ~(1 << site)
        if owner == site:
            owner = -1
            if sharers:
                state = _SHARED
            else:
                state = _INVALID
        elif not sharers and owner < 0:
            state = _INVALID
        self._entries[line] = (state | (owner + 1) << _STATE_BITS
                               | sharers << self._sharer_shift)

    # -- invariants (used by property tests) ---------------------------------

    def check_invariants(self, line: int) -> None:
        """Raises AssertionError if the entry violates MOESI invariants."""
        e = self.peek(line)
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
