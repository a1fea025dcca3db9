"""Discrete-event simulation kernel.

A small, fast, deterministic event engine.  Design choices:

* **Callback style**, not coroutine style: each event is a callback and
  its arguments, ``(fn, args)``.  Callback dispatch is the cheapest
  process model in CPython and the networks in this package are
  naturally written as state machines.
* **Integer picosecond timestamps**, with scheduling order as the
  tie-breaker: simultaneous events fire in the order they were
  scheduled, so runs are exactly reproducible.  Dispatch order is
  ``(time, seq)``, where ``seq`` is an event's position in the order of
  all ``at``/``schedule`` calls.
* ``Simulator.run`` supports an optional horizon and an explicit ``stop()``
  for open-ended workloads (e.g. load sweeps that stop after N packets).
* **One heap entry per distinct time.**  The queue is a binary heap of
  the distinct pending times (plain ints) and a dict from each time to
  its *batch*: its events in scheduling order.  Scheduling only ever
  appends, so a batch is already in ``seq`` order and nothing is sorted.
  A time with one event stores its ``(fn, args)`` tuple; the batch
  becomes a list when a second event arrives.  Slotted and cycle-timed
  networks bunch their events onto few times, so most events cost a
  list append and a list step instead of a heap push and pop.
* **One dispatch loop.**  ``run`` pops a time and dispatches its batch
  in order.  A list batch stays in the dict while it runs, so an event
  scheduled for the current time joins its end; a lone event leaves the
  dict first, and one scheduled for its time starts a new batch, which
  runs next.  ``run`` reads ``trace`` before every callback, so a hook
  installed or removed mid-run (by a callback) takes effect at the next
  dispatched event; an unbounded run compares against a horizon no
  event time reaches.
* **The clock is a plain attribute.**  ``now`` is a slot that only
  ``run`` writes; every other reader takes it as it is, without a
  property call per read.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

#: one queued event: the callback and its arguments
_Event = Tuple[Callable[..., Any], tuple]

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
    2
    >>> fired
    ['b', 'a']
    """

    __slots__ = ("now", "_times", "_batches", "_cursor", "_running",
                 "_stopped", "trace")

    def __init__(self) -> None:
        #: current simulation time in picoseconds; written only by
        #: :meth:`run`, read-only to everyone else
        self.now = 0
        #: heap of the distinct pending times
        self._times: List[int] = []
        #: time -> its events in scheduling order: one ``(fn, args)``
        #: tuple, or a list of them once a second event arrives
        self._batches: Dict[int, Union[_Event, List[_Event]]] = {}
        #: while a list batch dispatches, the iterator over it (how far
        #: it got is how many of its events are spent); None otherwise
        self._cursor: Optional[Iterator[_Event]] = None
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
        time_ps = self.now + delay_ps
        event = (fn, args)
        batch = self._batches.setdefault(time_ps, event)
        if batch is event:
            heappush(self._times, time_ps)
        elif batch.__class__ is list:
            batch.append(event)
        else:
            self._batches[time_ps] = [batch, event]

    def at(self, time_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise SimulationError(
                "cannot schedule at %d before now=%d" % (time_ps, self.now)
            )
        event = (fn, args)
        batch = self._batches.setdefault(time_ps, event)
        if batch is event:
            heappush(self._times, time_ps)
        elif batch.__class__ is list:
            batch.append(event)
        else:
            self._batches[time_ps] = [batch, event]

    def stop(self) -> None:
        """Stop the run loop after the currently dispatching event returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of events still queued."""
        count = 0
        for batch in self._batches.values():
            count += 1 if batch.__class__ is tuple else len(batch)
        if self._cursor is not None:
            # called from a callback of a list batch, which still holds
            # the events it has dispatched
            count -= self._spent()
        return count

    def clear(self) -> None:
        """Drop every queued event (the clock stays where it is)."""
        if self._running:
            raise SimulationError("cannot clear a running simulator")
        self._times.clear()
        self._batches.clear()

    def _spent(self) -> int:
        """How many events of the list batch at ``now`` a run has taken
        for dispatch: as far as the cursor got."""
        return len(self._batches[self.now]) - self._cursor.__length_hint__()

    def _requeue_rest(self) -> None:
        """Leave the list batch at ``now`` part-dispatched (``stop()`` or a
        raising callback): drop its spent events and keep the rest
        queued at ``now``, ahead of anything scheduled there later."""
        now = self.now
        batch = self._batches[now]
        spent = self._spent()
        self._cursor = None
        if spent < len(batch):
            del batch[:spent]
            heappush(self._times, now)
        else:
            del self._batches[now]

    def run(self, until_ps: Optional[int] = None) -> int:
        """Dispatch events in time order.

        Runs until the queue drains, ``stop()`` is called, or the next event
        would fire strictly after ``until_ps``.  When a horizon is given the
        clock is advanced to the horizon on return.  Returns the number of
        events dispatched.

        ``run`` is *resumable*: calling it again with a later horizon
        continues exactly where the previous call left off.  Slicing one
        horizon into ``run(t1); run(t2); ...; run(tN)`` dispatches the
        same events in the same order as a single ``run(tN)``: a time
        popped past an intermediate horizon is pushed back onto the heap
        untouched (it is still the minimum), so :meth:`pending` still sees
        its events.  A batch that ``stop()`` or a raising callback leaves
        part-dispatched keeps its remaining events queued at its time.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        dispatched = 0
        times = self._times
        batches = self._batches
        pop = heappop
        horizon = _UNBOUNDED if until_ps is None else until_ps
        try:
            # ``while True`` with the emptiness test inside is measurably
            # cheaper on CPython than ``while times:`` with the same body
            while True:
                if times:
                    time_ps = pop(times)
                else:
                    break
                if time_ps > horizon:
                    heappush(times, time_ps)
                    break
                self.now = time_ps
                batch = batches.pop(time_ps)
                if batch.__class__ is tuple:
                    # a lone event leaves the queue before it runs: an
                    # event its callback schedules at this time comes
                    # after it in any case
                    if self.trace is not None:
                        self.trace(time_ps, batch[0], batch[1])
                    batch[0](*batch[1])
                    dispatched += 1
                    if self._stopped:
                        break
                    continue
                # a list batch stays queued while it runs, so an event
                # scheduled at this time joins its end, and the list
                # iterator reaches it
                batches[time_ps] = batch
                self._cursor = batch = iter(batch)
                for fn, args in batch:
                    if self.trace is not None:
                        self.trace(time_ps, fn, args)
                    fn(*args)
                    dispatched += 1
                    if self._stopped:
                        break
                else:
                    del batches[time_ps]
                    self._cursor = None
                    continue
                self._requeue_rest()
                break
        except BaseException:
            if self._cursor is not None:
                # a callback (or the trace hook) raised in a list batch
                self._requeue_rest()
            raise
        finally:
            self._running = False
        if until_ps is not None and not self._stopped and self.now < until_ps:
            self.now = until_ps
        return dispatched
