"""Discrete-event simulation kernel.

A small, fast, deterministic event engine.  Design choices:

* **Callback style**, not coroutine style: each event is ``(time, seq, fn,
  args)``.  Callback dispatch is the cheapest process model in CPython and
  the networks in this package are naturally written as state machines.
* **Integer picosecond timestamps** with a monotonically increasing
  sequence number as tie-breaker, so simultaneous events fire in the order
  they were scheduled and runs are exactly reproducible.
* ``Simulator.run`` supports an optional horizon and an explicit ``stop()``
  for open-ended workloads (e.g. load sweeps that stop after N packets).
* **Two-tier event queue.**  Ordinary ``at``/``schedule`` calls go through
  a binary heap; :meth:`Simulator.at_many` installs a pre-sorted *bulk run*
  consumed by O(1) pops from the tail.  The dispatch loop always takes the
  global ``(time, seq)`` minimum of the two tiers, so the observable order
  is exactly what a heap-only engine would produce — bulk scheduling is a
  throughput optimization, never a semantic one.
* **One dispatch loop.**  ``run`` reads ``trace`` before every callback,
  so a hook installed or removed mid-run (by a callback) takes effect at
  the next dispatched event; an unbounded run compares against a horizon
  no event time reaches.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple


#: the horizon of an unbounded ``run()``: an int (int-int compares are
#: the cheap ones) far past any picosecond timestamp a run can reach
_UNBOUNDED = 1 << 256


class SimulationError(RuntimeError):
    """Raised on simulator misuse (negative delays, running twice, ...)."""


class Simulator:
    """A discrete-event simulator with integer-picosecond time.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.at(100, fired.append, "a")
    >>> sim.at(50, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    __slots__ = ("_now", "_queue", "_bulk", "_seq", "_running", "_stopped",
                 "trace")

    def __init__(self) -> None:
        self._now = 0
        self._queue: List[Tuple[int, int, Callable[..., Any], tuple]] = []
        # descending-sorted bulk run, consumed from the tail via pop();
        # mutated only in place (never rebound) so the run loop's local
        # alias stays valid across at_many() calls from callbacks
        self._bulk: List[Tuple[int, int, Callable[..., Any], tuple]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        #: Optional callable(time_ps, fn, args) invoked before each dispatch;
        #: used by tests and debugging tools.
        #:
        #: Contract (pinned by test_engine.py): the hook fires for *every*
        #: dispatched event — including the event whose callback requests
        #: ``stop()`` and events whose callbacks raise.  ``stop()`` takes
        #: effect only after the current callback returns, and no further
        #: events are dispatched (hence none traced) until the next
        #: ``run()``: dispatch and trace never disagree.  The hook may be
        #: installed or removed mid-run (by a callback); the switch takes
        #: effect at the next dispatched event.
        self.trace: Optional[Callable[[int, Callable, tuple], None]] = None

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    def schedule(self, delay_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay_ps`` after the current time."""
        if delay_ps < 0:
            raise SimulationError("cannot schedule into the past (delay=%d)" % delay_ps)
        seq = self._seq
        heappush(self._queue, (self._now + delay_ps, seq, fn, args))
        self._seq = seq + 1

    def at(self, time_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time_ps``."""
        if time_ps < self._now:
            raise SimulationError(
                "cannot schedule at %d before now=%d" % (time_ps, self._now)
            )
        seq = self._seq
        heappush(self._queue, (time_ps, seq, fn, args))
        self._seq = seq + 1

    def at_many(self,
                events: Iterable[Tuple[int, Callable[..., Any], tuple]]) -> int:
        """Bulk-schedule ``(time_ps, fn, args)`` triples; returns the count.

        Semantically identical to calling :meth:`at` once per triple in
        iteration order (sequence numbers are assigned in that order, so
        ties break exactly the same way) but far cheaper for large
        batches: the batch is sorted once and consumed by O(1) pops
        instead of per-event heap sifts.  The call is atomic — if any
        timestamp lies in the past, ``SimulationError`` is raised and
        *no* event of the batch is scheduled.
        """
        now = self._now
        seq = self._seq
        stamped = []
        append = stamped.append
        for time_ps, fn, args in events:
            if time_ps < now:
                raise SimulationError(
                    "cannot schedule at %d before now=%d" % (time_ps, now)
                )
            append((time_ps, seq, fn, args))
            seq += 1
        if not stamped:
            return 0
        self._seq = seq
        bulk = self._bulk
        if bulk:
            # a bulk run is already being consumed: fall back to the heap
            # (correct for any interleaving, just not O(1) per event)
            queue = self._queue
            for item in stamped:
                heappush(queue, item)
        else:
            # (time, seq) prefixes are unique, so sort never compares fns
            stamped.sort(reverse=True)
            bulk[:] = stamped
        return len(stamped)

    def stop(self) -> None:
        """Stop the run loop after the currently dispatching event returns."""
        self._stopped = True

    def reset(self) -> None:
        """Return to freshly-constructed state so the instance can be
        reused for another run (the warm-start protocol).

        Clears both queue tiers **in place** — ``_bulk`` must never be
        rebound (the run loop holds a local alias) — and rewinds the
        clock and sequence counter, so a reused simulator schedules and
        dispatches exactly like a new one.  Must not be called from
        inside a running dispatch loop.
        """
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        self._now = 0
        self._queue.clear()
        self._bulk.clear()
        self._seq = 0
        self._stopped = False
        self.trace = None

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue) + len(self._bulk)

    def _unpop(self, item) -> None:
        """Return an event popped by the horizon peek to its tier.

        Appending to the bulk tail is valid only while ``item`` precedes
        every remaining bulk event; otherwise the heap absorbs it (tier
        membership is internal — dispatch order only depends on
        ``(time, seq)``).
        """
        bulk = self._bulk
        if bulk and item < bulk[-1]:
            bulk.append(item)
        else:
            heappush(self._queue, item)

    def run(self, until_ps: Optional[int] = None) -> int:
        """Dispatch events in time order.

        Runs until the queue drains, ``stop()`` is called, or the next event
        would fire strictly after ``until_ps``.  When a horizon is given the
        clock is advanced to the horizon on return.  Returns the number of
        events dispatched.

        ``run`` is *resumable*: calling it again with a later horizon
        continues exactly where the previous call left off.  Slicing one
        horizon into ``run(t1); run(t2); ...; run(tN)`` dispatches the
        same events in the same order as a single ``run(tN)``: an event
        peeked past an intermediate horizon is returned to its tier by
        ``_unpop`` untouched, so :meth:`pending` still sees it.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        dispatched = 0
        queue = self._queue
        bulk = self._bulk
        pop = heappop
        horizon = _UNBOUNDED if until_ps is None else until_ps
        try:
            while True:
                if bulk:
                    if queue and queue[0] < bulk[-1]:
                        item = pop(queue)
                    else:
                        item = bulk.pop()
                elif queue:
                    item = pop(queue)
                else:
                    break
                time_ps = item[0]
                if time_ps > horizon:
                    self._unpop(item)
                    break
                self._now = time_ps
                if self.trace is not None:
                    self.trace(time_ps, item[2], item[3])
                item[2](*item[3])
                dispatched += 1
                if self._stopped:
                    break
        finally:
            self._running = False
        if until_ps is not None and not self._stopped and self._now < until_ps:
            self._now = until_ps
        return dispatched
