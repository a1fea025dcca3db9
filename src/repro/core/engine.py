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
* **One event queue**: a binary heap of ``(time, seq, fn, args)`` tuples.
  ``(time, seq)`` prefixes are unique, so the heap never compares
  callbacks.
* **One dispatch loop.**  ``run`` reads ``trace`` before every callback,
  so a hook installed or removed mid-run (by a callback) takes effect at
  the next dispatched event; an unbounded run compares against a horizon
  no event time reaches.
* **The clock is a plain attribute.**  ``now`` is a slot that only
  ``run`` writes; every other reader takes it as it is, without a
  property call per read.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


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

    __slots__ = ("now", "_queue", "_seq", "_running", "_stopped", "trace")

    def __init__(self) -> None:
        #: current simulation time in picoseconds; written only by
        #: :meth:`run`, read-only to everyone else
        self.now = 0
        self._queue: List[Tuple[int, int, Callable[..., Any], tuple]] = []
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

    def schedule(self, delay_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay_ps`` after the current time."""
        if delay_ps < 0:
            raise SimulationError("cannot schedule into the past (delay=%d)" % delay_ps)
        seq = self._seq
        heappush(self._queue, (self.now + delay_ps, seq, fn, args))
        self._seq = seq + 1

    def at(self, time_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise SimulationError(
                "cannot schedule at %d before now=%d" % (time_ps, self.now)
            )
        seq = self._seq
        heappush(self._queue, (time_ps, seq, fn, args))
        self._seq = seq + 1

    def stop(self) -> None:
        """Stop the run loop after the currently dispatching event returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

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
        popped past an intermediate horizon is pushed back onto the heap
        untouched (it is still the minimum), so :meth:`pending` still sees
        it.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        dispatched = 0
        queue = self._queue
        pop = heappop
        horizon = _UNBOUNDED if until_ps is None else until_ps
        try:
            # ``while True`` with the emptiness test inside is measurably
            # cheaper on CPython than ``while queue:`` with the same body
            while True:
                if queue:
                    item = pop(queue)
                else:
                    break
                time_ps = item[0]
                if time_ps > horizon:
                    heappush(queue, item)
                    break
                self.now = time_ps
                if self.trace is not None:
                    self.trace(time_ps, item[2], item[3])
                item[2](*item[3])
                dispatched += 1
                if self._stopped:
                    break
        finally:
            self._running = False
        if until_ps is not None and not self._stopped and self.now < until_ps:
            self.now = until_ps
        return dispatched
