"""Process-parallel execution of independent simulation shards.

The experiment grid behind the paper's evaluation — load points in a
Figure 6 sweep, (workload, network) replay pairs in Figures 7-10 — is
embarrassingly parallel: every simulation is independent, seeded, and
returns a small result record.  This module provides the shared harness
that shards such grids across worker processes:

* :func:`derive_seed` — stable, collision-resistant derivation of
  per-shard (and per-site) RNG streams from one base seed, so a shard
  produces *bit-identical* results no matter which worker runs it, in
  what order, or whether it runs in-process.
* :class:`Shard` — one picklable unit of work (a module-level callable
  plus arguments).
* :func:`run_sharded` — execute a list of shards in-process or on a
  local ``multiprocessing`` pool, returning results in submission order
  together with per-shard telemetry (:class:`ShardReport`).  Both paths
  are *fault-tolerant*: a raising shard, a vanished (OOM-killed,
  crashed) worker, or a hung shard degrades to a per-shard
  :class:`ShardError` result slot — never a run-wide abort that loses
  the completed results.
* :class:`WorkerPool` — a persistent pool of worker processes that lives
  *across* ``run_sharded`` calls (pass it as ``pool=``), so a multi-call
  driver (figure sweeps, campaigns, benchmarks) pays process spin-up
  once instead of per call.
* :class:`SimContext` / :func:`get_context` — the warm-start context
  registry: one constructed ``(network, config)`` simulation instance
  per process, keyed by config fingerprint and reset between uses, so an
  entire sweep reuses one network instead of rebuilding channels and
  derived tables per load point (see ``repro.core.sweep``).
  The registry is LRU-bounded (:func:`set_context_cache_limit`) so
  long-lived workers never grow it without limit.

Determinism contract
--------------------
``run_sharded`` guarantees that the *results* list is a pure function of
the shards themselves: execution order, worker count, start method,
serial or pool execution, retries, and worker deaths never leak into
it.  Shard callables must therefore derive any randomness from their
own arguments (see :func:`derive_seed`) and must not mutate shared
state.  This is
what makes fault tolerance cheap: a shard re-executed after its worker
vanished — on a rebuilt pool or serially in the parent — is
*bit-identical* to the run that was lost, so recovery never needs to
checkpoint partial simulation state, only to re-run the shard.  A shard
that fails identically on every attempt yields the same
:class:`ShardError` slot serially or on a pool.  Telemetry (wall-clock,
pids, attempt counts) is reported separately and is explicitly *not*
deterministic.

Error policy
------------
Serial and pool runs apply the same per-shard policy (``on_error=``):

* ``'raise'`` (default) — re-raise the first shard exception in the
  caller, matching the historical behavior;
* ``'collect'`` — store a :class:`ShardError` in the failing shard's
  result slot and keep going: a 1000-shard campaign with one bad shard
  returns 999 results plus one structured failure record;
* ``'retry'`` — re-execute the failing shard up to ``max_retries``
  times (bit-identical by the determinism contract), then collect.

``timeout_s`` bounds each shard's execution on pool runs: a shard
that exceeds it is recorded as a ``'timeout'`` :class:`ShardError`, the
hung worker is destroyed, and the pool is rebuilt (timeouts are never
retried — a deterministic hang would just hang again).  A serial run
cannot preempt in-process work and documents ``timeout_s`` as
best-effort-ignored.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import threading
import time
import traceback as _traceback
import warnings
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

__all__ = [
    "available_cpus",
    "clear_contexts",
    "context_cache_limit",
    "derive_seed",
    "get_context",
    "resolve_workers",
    "set_context_cache_limit",
    "ErrorPolicy",
    "Shard",
    "ShardError",
    "ShardExecutionError",
    "ShardReport",
    "ShardTimeoutError",
    "ShardedRun",
    "SimContext",
    "run_sharded",
    "WorkerPool",
]

#: seeds are kept inside 63 bits so they stay exact in JSON and C longs
_SEED_MASK = (1 << 63) - 1


def derive_seed(base: int, *components: Any) -> int:
    """Derive a deterministic 63-bit seed from ``base`` and a component path.

    ``derive_seed(seed, "gap", site)`` gives every site of every load
    point its own independent RNG stream: two distinct component paths
    collide with negligible probability (SHA-256), and the result depends
    only on the values, never on process, platform, or hash
    randomization (unlike ``hash()``).
    """
    digest = hashlib.sha256()
    digest.update(repr(int(base)).encode("utf-8"))
    for component in components:
        digest.update(b"\x1f")
        digest.update(repr(component).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") & _SEED_MASK


def available_cpus() -> int:
    """CPUs actually available to this process, never less than 1.

    Prefers the scheduling affinity mask (which respects cgroup/taskset
    limits on Linux); on hosts without ``os.sched_getaffinity`` — macOS,
    Windows — or where the call fails, falls back to ``os.cpu_count()``,
    and to 1 when even that is unknown.  Shared by the parallel runner
    and the benchmark harness so both report cores the same way.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` request: ``None``/``0`` means one worker
    per available CPU; anything else is clamped to at least 1."""
    if workers is None or workers == 0:
        return available_cpus()
    return max(1, int(workers))


@dataclass(frozen=True)
class Shard:
    """One unit of parallel work.

    ``fn`` must be a module-level callable (picklable by reference) and
    ``args``/``kwargs`` must be picklable values; ``label`` is used for
    progress messages and telemetry only.
    """

    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""


@dataclass(frozen=True)
class ShardReport:
    """Telemetry for one executed shard (never affects results)."""

    index: int
    label: str
    wall_clock_s: float
    events_dispatched: int
    worker_pid: int
    #: executions that produced an outcome (1 unless the shard was
    #: retried); worker-loss re-runs that never returned are not counted
    attempts: int = 1


@dataclass(frozen=True)
class ShardError:
    """Structured record of one failed shard.

    Under ``on_error='collect'`` (or ``'retry'``, after the retry budget
    is exhausted) this object occupies the shard's slot in
    ``ShardedRun.results`` instead of a result — it is a *value*, never
    raised.  ``kind`` is ``'exception'`` for a raising shard and
    ``'timeout'`` for one that exceeded ``timeout_s``; ``traceback`` is
    the formatted worker-side traceback text (empty for timeouts — a
    hung worker is killed, not introspected).
    """

    index: int
    label: str
    kind: str  # 'exception' | 'timeout'
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    worker_pid: int = 0

    def __str__(self) -> str:
        return ("shard %d (%s) failed [%s] after %d attempt(s): %s: %s"
                % (self.index, self.label or "unlabeled", self.kind,
                   self.attempts, self.error_type, self.message))


class ShardExecutionError(RuntimeError):
    """Raised under ``on_error='raise'`` when the original worker
    exception could not be transported back (unpicklable); the message
    embeds the worker-side traceback."""


class ShardTimeoutError(TimeoutError):
    """Raised under ``on_error='raise'`` when a shard exceeds the
    policy's ``timeout_s`` on a pool run."""


@dataclass(frozen=True)
class ErrorPolicy:
    """Per-shard failure policy shared by serial and pool runs.

    ``on_error`` is ``'raise'`` (propagate the first failure — the
    historical behavior and the default), ``'collect'`` (a failing shard
    becomes a :class:`ShardError` result slot; the rest of the run
    completes), or ``'retry'`` (re-execute up to ``max_retries`` extra
    times — bit-identical re-runs by the determinism contract — then
    collect).  ``timeout_s`` bounds a shard's execution on pool runs;
    ``None`` disables the bound.  Timeouts are terminal under every
    policy: retrying a deterministic hang would only hang again.
    """

    on_error: str = "raise"
    max_retries: int = 2
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "collect", "retry"):
            raise ValueError("on_error must be 'raise', 'collect' or "
                             "'retry', got %r" % (self.on_error,))
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0, got %r"
                             % (self.max_retries,))
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive or None, got %r"
                             % (self.timeout_s,))


@dataclass
class ShardedRun:
    """Results (in submission order) plus run-level telemetry."""

    results: List[Any]
    reports: List[ShardReport]
    workers: int
    mode: str  # 'serial' | 'fork' | 'spawn' | 'forkserver'
    wall_clock_s: float

    @property
    def total_shard_seconds(self) -> float:
        """Sum of per-shard wall-clock — the serial-equivalent cost."""
        return sum(r.wall_clock_s for r in self.reports)

    @property
    def total_events(self) -> int:
        return sum(r.events_dispatched for r in self.reports)

    @property
    def errors(self) -> List[ShardError]:
        """Every :class:`ShardError` result slot, in submission order."""
        return [r for r in self.results if isinstance(r, ShardError)]

    @property
    def failed(self) -> int:
        """Number of shards that ended in a :class:`ShardError`."""
        return len(self.errors)

    @property
    def ok(self) -> bool:
        """True when every shard produced a real result."""
        return self.failed == 0

    @property
    def speedup(self) -> float:
        """Observed speedup over running the same shards back-to-back.

        Always finite: on very fast runs the wall clock can quantize to
        zero (or, through telemetry arithmetic, go NaN), in which case no
        speedup is measurable and 1.0 is reported instead of ``inf``/
        ``nan`` leaking into reports and JSON artifacts.
        """
        wall = self.wall_clock_s
        if not (wall > 0.0) or not math.isfinite(wall):
            return 1.0
        ratio = self.total_shard_seconds / wall
        if not math.isfinite(ratio):
            return 1.0
        return ratio

    def summary(self) -> str:
        text = ("%d shards on %d worker(s) [%s]: %.2fs wall, %.2fs "
                "aggregate, %.2fx speedup, %d events" %
                (len(self.reports), self.workers, self.mode,
                 self.wall_clock_s, self.total_shard_seconds,
                 self.speedup, self.total_events))
        if self.failed:
            text += ", %d failed" % self.failed
        return text

    def failure_report(self) -> str:
        """Multi-line structured report of every failed shard (empty
        string when the run was clean)."""
        errors = self.errors
        if not errors:
            return ""
        lines = ["%d/%d shard(s) failed:" % (len(errors), len(self.results))]
        lines.extend("  " + str(e) for e in errors)
        return "\n".join(lines)


def _events_of(result: Any) -> int:
    """Best-effort events-dispatched telemetry from a shard result."""
    events = getattr(result, "events_dispatched", 0)
    if isinstance(result, dict):
        events = result.get("events_dispatched", 0)
    try:
        return int(events)
    except (TypeError, ValueError):
        return 0


# -- guarded shard invocation -------------------------------------------------

@dataclass
class _CapturedFailure:
    """Picklable envelope for an exception raised inside a shard: the
    original exception object when it survives a pickle round trip (so
    ``on_error='raise'`` can re-raise the real type), plus the rendered
    type/message/traceback either way."""

    exc: Optional[BaseException]
    error_type: str
    message: str
    traceback_text: str


def _capture_failure(exc: BaseException,
                     require_picklable: bool = True) -> _CapturedFailure:
    tb = "".join(_traceback.format_exception(type(exc), exc,
                                             exc.__traceback__))
    carried: Optional[BaseException] = exc
    if require_picklable:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            carried = None
    return _CapturedFailure(exc=carried, error_type=type(exc).__name__,
                            message=str(exc), traceback_text=tb)


def _invoke_guarded(payload: Tuple[int, Shard]
                    ) -> Tuple[int, bool, Any, float, int]:
    """Run one shard (in a worker or in-process), timing it and trapping
    any exception into a :class:`_CapturedFailure` so a raising shard
    never poisons the pool's result channel.  Returns
    ``(index, ok, result_or_failure, elapsed_s, pid)``."""
    index, shard = payload
    started = time.perf_counter()
    try:
        result = shard.fn(*shard.args, **shard.kwargs)
    except Exception as exc:
        elapsed = time.perf_counter() - started
        return index, False, _capture_failure(exc), elapsed, os.getpid()
    return index, True, result, time.perf_counter() - started, os.getpid()


def _failure_to_error(index: int, shard: Shard, failure: _CapturedFailure,
                      attempts: int, pid: int) -> ShardError:
    return ShardError(index=index, label=shard.label, kind="exception",
                      error_type=failure.error_type,
                      message=failure.message,
                      traceback=failure.traceback_text,
                      attempts=attempts, worker_pid=pid)


def _reraise(failure: _CapturedFailure, shard: Shard) -> None:
    """Re-raise a captured shard failure in the caller (``'raise'``
    policy): the original exception object when it was transportable,
    else a :class:`ShardExecutionError` embedding the worker traceback."""
    if failure.exc is not None:
        raise failure.exc
    raise ShardExecutionError(
        "shard %r raised unpicklable %s: %s\n--- worker traceback ---\n%s"
        % (shard.label, failure.error_type, failure.message,
           failure.traceback_text))


#: signature of the result callback both execution loops report through:
#: emit(index, result_or_ShardError, elapsed_s, worker_pid, attempts)
EmitFn = Callable[[int, Any, float, int, int], None]


def _execute_serially(tasks: Sequence[Tuple[int, Shard]],
                      policy: ErrorPolicy, emit: EmitFn) -> None:
    """The in-process execution loop: used for serial runs and as the
    degradation path when no pool can be created.  ``timeout_s`` is not
    enforceable in-process (a shard cannot be preempted from its own
    thread) and is ignored here."""
    for index, shard in tasks:
        failures = 0
        while True:
            _, ok, value, elapsed, pid = _invoke_guarded((index, shard))
            if ok:
                emit(index, value, elapsed, pid, failures + 1)
                break
            failures += 1
            if policy.on_error == "raise":
                _reraise(value, shard)
            if policy.on_error == "retry" and failures <= policy.max_retries:
                continue
            emit(index, _failure_to_error(index, shard, value, failures, pid),
                 elapsed, pid, failures)
            break


# -- fault-tolerant pool execution --------------------------------------------

@dataclass
class _InFlight:
    """Book-keeping for one shard currently submitted to the pool."""

    shard: Shard
    async_result: Any
    submitted_at: float


#: seconds between pool health checks while no shard has completed
_POLL_INTERVAL_S = 0.01


def _execute_on_pool(pool: WorkerPool, tasks: Sequence[Tuple[int, Shard]],
                     policy: ErrorPolicy, emit: EmitFn) -> None:
    """Fault-tolerant execution of ``tasks`` on ``pool``'s workers.

    Shards are submitted through a sliding window of at most
    ``pool.workers`` concurrent tasks (so a submitted shard is actually
    *running*, which is what makes ``timeout_s`` meaningful), and the
    pool is health-checked whenever no result is ready:

    * **raising shard** — the worker-side guard traps the exception and
      ships it back as data; the pool stays healthy and the policy
      decides (re-raise / collect / retry).
    * **vanished worker** (OOM-killed, segfaulted, ``kill -9``) — the
      loss is noticed by the pid disappearing; the pool is rebuilt and
      the lost in-flight shards re-executed *serially in the parent*:
      by the determinism contract the re-run is bit-identical to the
      run that died, so nothing else is needed.
    * **hung shard** — after ``timeout_s`` the pool is torn down
      (killing the stuck worker) and rebuilt; the hung shard becomes a
      ``'timeout'`` :class:`ShardError` (never retried — a
      deterministic hang would hang again) and innocent in-flight
      shards are resubmitted to the fresh pool.

    The recovery paths may rebuild ``pool`` — worker processes, and
    therefore their warm caches, are expendable by design — but never
    close it.  If no pool can be created at all, execution degrades to
    the serial loop, results unchanged.  A raising run abandons its
    in-flight work hard (the pool is rebuilt on the way out) instead of
    waiting behind the rest of the grid.
    """
    mp_pool = pool.acquire()
    if mp_pool is None:
        _execute_serially(tasks, policy, emit)
        return
    pending: deque = deque(tasks)
    in_flight: Dict[int, _InFlight] = {}
    failures: Dict[int, int] = {}
    known_pids: Set[int] = set(pool.worker_pids())
    window = max(1, pool.workers)

    def finish(index: int, shard: Shard, ok: bool, value: Any,
               elapsed: float, pid: int) -> None:
        """Apply the error policy to one completed execution."""
        if ok:
            emit(index, value, elapsed, pid, failures.get(index, 0) + 1)
            return
        count = failures.get(index, 0) + 1
        failures[index] = count
        if policy.on_error == "raise":
            _reraise(value, shard)
        if policy.on_error == "retry" and count <= policy.max_retries:
            pending.append((index, shard))
            return
        emit(index, _failure_to_error(index, shard, value, count, pid),
             elapsed, pid, count)

    def finish_timeout(index: int, flight: _InFlight) -> None:
        elapsed = time.monotonic() - flight.submitted_at
        attempts = failures.get(index, 0) + 1
        failures[index] = attempts
        message = ("exceeded timeout_s=%.3g (%.2fs elapsed)"
                   % (policy.timeout_s, elapsed))
        if policy.on_error == "raise":
            raise ShardTimeoutError("shard %d (%s) %s"
                                    % (index, flight.shard.label, message))
        emit(index,
             ShardError(index=index, label=flight.shard.label,
                        kind="timeout", error_type="ShardTimeoutError",
                        message=message, attempts=attempts),
             elapsed, 0, attempts)

    def run_in_parent(index: int, shard: Shard) -> None:
        """Serial re-execution fallback for a shard whose worker
        vanished (bit-identical by the determinism contract)."""
        _, ok, value, elapsed, pid = _invoke_guarded((index, shard))
        finish(index, shard, ok, value, elapsed, pid)

    def rebuild() -> Any:
        """Tear down and respawn the workers; returns the fresh pool
        (or None when respawn fails — callers fall back to serial)."""
        nonlocal known_pids
        pool.rebuild()
        fresh = pool.acquire()
        known_pids = set(pool.worker_pids())
        return fresh

    try:
        while pending or in_flight:
            # keep the submission window full: at most `workers` shards
            # in flight, so each is actually running on a worker and the
            # per-shard timeout clock is honest
            while pending and len(in_flight) < window and mp_pool is not None:
                index, shard = pending.popleft()
                in_flight[index] = _InFlight(
                    shard,
                    mp_pool.apply_async(_invoke_guarded, ((index, shard),)),
                    time.monotonic())
            if mp_pool is None:
                # pool could not be rebuilt: drain the rest in-process
                while pending:
                    index, shard = pending.popleft()
                    run_in_parent(index, shard)
                continue

            ready = [i for i, f in in_flight.items()
                     if f.async_result.ready()]
            if ready:
                for index in ready:
                    flight = in_flight.pop(index)
                    try:
                        _, ok, value, elapsed, pid = flight.async_result.get()
                    except Exception as exc:
                        # result transport failed (e.g. the shard's
                        # return value would not pickle): treat as a
                        # shard failure, not a run abort
                        ok = False
                        value = _capture_failure(exc,
                                                 require_picklable=False)
                        elapsed = time.monotonic() - flight.submitted_at
                        pid = 0
                    finish(index, flight.shard, ok, value, elapsed, pid)
                continue

            # nothing completed: health-check before sleeping
            current = set(pool.worker_pids())
            if known_pids - current:
                # a worker vanished without reporting back.  We cannot
                # know which in-flight shard it held, so rebuild the
                # pool and re-run everything in flight serially — cheap
                # (at most `workers` shards) and bit-identical
                lost = sorted(in_flight.items())
                in_flight.clear()
                mp_pool = rebuild()
                for index, flight in lost:
                    run_in_parent(index, flight.shard)
                continue
            known_pids |= current

            if policy.timeout_s is not None:
                now = time.monotonic()
                expired = [i for i, f in in_flight.items()
                           if now - f.submitted_at >= policy.timeout_s]
                if expired:
                    survivors = [(i, f) for i, f in in_flight.items()
                                 if i not in expired]
                    hung = [(i, in_flight[i]) for i in sorted(expired)]
                    in_flight.clear()
                    # destroy the hung worker(s) — terminate is the only
                    # way out of a stuck task — and respawn
                    mp_pool = rebuild()
                    for index, flight in hung:
                        finish_timeout(index, flight)
                    # innocent shards lost to the teardown go back in
                    # the queue (a re-run is bit-identical)
                    for index, flight in survivors:
                        pending.appendleft((index, flight.shard))
                    continue

            time.sleep(_POLL_INTERVAL_S)
    except Exception:
        # a raising run must not wait on (or hang behind) the rest of
        # the grid: abandon in-flight work hard.  The pool object stays
        # reusable — fresh workers spawn on the next acquire()
        pool.rebuild()
        raise


def _submission_order(shards: Sequence[Shard],
                      cost_key: Optional[Callable[[Shard], float]]
                      ) -> List[int]:
    """Pool-submission order: most expensive shards first.

    With a ``cost_key`` the indices are sorted by descending estimated
    cost (ties keep submission order — the sort is stable), so a long
    shard starts immediately instead of serializing the pool's tail.
    Without a key, natural order is kept.  This never affects results:
    they are keyed by original index either way.
    """
    indices = list(range(len(shards)))
    if cost_key is not None:
        indices.sort(key=lambda i: -float(cost_key(shards[i])))
    return indices


class SimContext:
    """One reusable (network, config) simulation instance.

    Owns a :class:`~repro.core.engine.Simulator` and the network built
    on it.  :meth:`reset` rewinds simulator and network to
    freshly-constructed state; :func:`get_context` calls it before every
    reuse, so results are bit-identical to a fresh context (the contract
    ``tests/test_warmstart.py`` locks).
    """

    __slots__ = ("sim", "network", "network_name", "warmup_ps", "uses")

    def __init__(self, network_name: str, config: Any, warmup_ps: int,
                 network_kwargs: Optional[Dict[str, Any]] = None) -> None:
        # deferred import: repro.core must stay importable without the
        # network models (and this avoids a core <-> networks cycle at
        # module-import time)
        from ..core.engine import Simulator
        from ..networks.factory import build_network

        self.network_name = network_name
        self.warmup_ps = warmup_ps
        self.sim = Simulator()
        self.network = build_network(network_name, config, self.sim,
                                     warmup_ps=warmup_ps,
                                     **(network_kwargs or {}))
        #: how many runs this context has served (diagnostics/tests)
        self.uses = 0

    def reset(self) -> None:
        """Rewind simulator and network to as-constructed state."""
        self.sim.reset()
        self.network.reset()


#: per-process warm-start context registry, keyed by the full context
#: fingerprint and LRU-bounded (a long campaign cycling through many
#: configs in persistent workers must not grow memory without limit).
#: Workers forked *before* the parent populated it start empty and build
#: their own; contexts are never shipped across processes (Simulator
#: callbacks are not picklable, and need not be — the registry is looked
#: up inside the shard body).
_CONTEXTS: "OrderedDict[Any, SimContext]" = OrderedDict()

#: default cap on cached warm contexts per process: a full Figure 6 run
#: needs one per (network, window) pair — six networks a few windows
#: deep fit comfortably; eviction only costs a rebuild on next use
DEFAULT_CONTEXT_CACHE_LIMIT = 32
_context_cache_limit = DEFAULT_CONTEXT_CACHE_LIMIT


def context_cache_limit() -> int:
    """Current LRU cap on the per-process warm-context registry."""
    return _context_cache_limit


def set_context_cache_limit(limit: int) -> int:
    """Set the warm-context LRU cap (>= 1); evicts least-recently-used
    entries immediately if the registry is over the new cap.  Returns
    the previous limit so tests/benchmarks can restore it."""
    global _context_cache_limit
    limit = int(limit)
    if limit < 1:
        raise ValueError("context cache limit must be >= 1, got %r"
                         % (limit,))
    previous = _context_cache_limit
    _context_cache_limit = limit
    while len(_CONTEXTS) > _context_cache_limit:
        _CONTEXTS.popitem(last=False)
    return previous


def _context_key(network_name: str, config: Any, warmup_ps: int,
                 network_kwargs: Optional[Dict[str, Any]]) -> Any:
    """Hashable fingerprint of everything that shapes a built network.
    The config dataclasses are frozen (hashable, value-compared), so
    equal configs — however constructed — share a context."""
    kwargs = tuple(sorted((network_kwargs or {}).items()))
    return (network_name, config, warmup_ps, kwargs)


def get_context(network_name: str, config: Any, warmup_ps: int,
                network_kwargs: Optional[Dict[str, Any]] = None
                ) -> SimContext:
    """The process's warm context for this fingerprint, reset and ready.

    First use constructs (fresh by definition); every later use resets
    the cached instance, which the reset protocol guarantees is
    indistinguishable from fresh construction.  The registry is
    LRU-bounded (:func:`set_context_cache_limit`): evicting a context
    never affects results — only whether the next use pays construction.
    """
    key = _context_key(network_name, config, warmup_ps, network_kwargs)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = SimContext(network_name, config, warmup_ps, network_kwargs)
        _CONTEXTS[key] = ctx
        while len(_CONTEXTS) > _context_cache_limit:
            _CONTEXTS.popitem(last=False)
    else:
        _CONTEXTS.move_to_end(key)
        ctx.reset()
    ctx.uses += 1
    return ctx


def clear_contexts() -> int:
    """Drop every cached warm context (tests / memory pressure);
    returns how many were dropped."""
    n = len(_CONTEXTS)
    _CONTEXTS.clear()
    return n


def _pick_context():
    """Choose a multiprocessing context, preferring ``fork`` (cheap,
    inherits ``sys.path``) and falling back to the platform default."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _join_pool_with_timeout(pool, timeout_s: float) -> bool:
    """Join a multiprocessing pool from a daemon thread so a stuck
    worker cannot hang the caller; True when the join completed."""
    def _join():
        try:
            pool.join()
        except Exception:  # pragma: no cover - defensive
            pass

    joiner = threading.Thread(target=_join, daemon=True,
                              name="workerpool-join")
    joiner.start()
    joiner.join(timeout_s)
    return not joiner.is_alive()


class WorkerPool:
    """A persistent multiprocessing pool that outlives ``run_sharded``.

    ``run_sharded`` normally creates and tears down a fresh pool per
    call; drivers that issue many calls (a figure's per-pattern sweeps,
    a campaign's trace build + replay grid, benchmark loops) pay that
    spin-up each time.  A ``WorkerPool`` is created lazily on first use,
    then passed to any number of ``run_sharded(..., pool=...)`` calls;
    worker processes — and therefore their per-process warm-start
    context registries (:func:`get_context`) and interned tables — stay
    alive between calls.  Close it (or use it as a context manager) when
    the run is over.

    Shutdown is bounded: :meth:`close` joins the workers with
    ``close_timeout_s`` and falls back to ``terminate()`` when a stuck
    worker will not exit, so closing a pool can never hang the caller;
    after shutdown ``mode`` reads ``"serial"`` until the next
    :meth:`acquire` spawns fresh workers.  :meth:`rebuild` is the hard
    variant (terminate first) used by the fault-tolerant pool loop after
    a dead-worker detection or a hung shard.

    Falls back to serial exactly like ``run_sharded`` does when the
    platform cannot provide a pool; ``workers=1`` never creates
    processes at all.
    """

    def __init__(self, workers: Optional[int] = None,
                 close_timeout_s: float = 5.0) -> None:
        self.workers = resolve_workers(workers)
        self._pool = None
        self._failed = False
        self.mode = "serial"
        self.close_timeout_s = close_timeout_s

    def acquire(self):
        """The live multiprocessing pool, created on first use; None
        when serial (workers=1 or pool creation failed)."""
        if self._pool is None and not self._failed and self.workers > 1:
            try:
                context = _pick_context()
                self._pool = context.Pool(processes=self.workers)
                self.mode = context.get_start_method()
            except (ImportError, OSError, ValueError):
                self._failed = True
                self.mode = "serial"
        return self._pool

    def worker_pids(self) -> Tuple[int, ...]:
        """Pids of the live worker processes (empty when serial, or if
        the pool internals are unavailable — health checks then degrade
        to timeout-only detection)."""
        pool = self._pool
        procs = getattr(pool, "_pool", None) if pool is not None else None
        if not procs:
            return ()
        try:
            return tuple(p.pid for p in procs if p.pid is not None)
        except Exception:  # pragma: no cover - pool internals changed
            return ()

    def rebuild(self) -> None:
        """Terminate the current workers *hard* and forget them; the
        next :meth:`acquire` spawns a fresh set.  Used after a worker
        died or a shard hung — queued work on the old pool is lost,
        which the determinism contract makes safe to re-run."""
        pool, self._pool = self._pool, None
        self.mode = "serial"
        if pool is not None:
            pool.terminate()
            _join_pool_with_timeout(pool, self.close_timeout_s)

    def close(self) -> None:
        """Shut the workers down; idempotent and bounded (a stuck worker
        is terminated after ``close_timeout_s`` instead of hanging the
        join forever).  The pool object can be reused afterwards (a new
        set of workers spawns on next use); until then ``mode`` reports
        ``"serial"``."""
        pool, self._pool = self._pool, None
        self.mode = "serial"
        if pool is None:
            return
        pool.close()
        if not _join_pool_with_timeout(pool, self.close_timeout_s):
            pool.terminate()
            _join_pool_with_timeout(pool, self.close_timeout_s)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_sharded(shards: Sequence[Shard],
                workers: Optional[int] = 1,
                progress: Optional[Callable[[str], None]] = None,
                cost_key: Optional[Callable[[Shard], float]] = None,
                pool: Optional[WorkerPool] = None,
                on_error: str = "raise",
                max_retries: int = 2,
                timeout_s: Optional[float] = None) -> ShardedRun:
    """Execute every shard and return results in submission order.

    ``workers=1`` (the default) runs everything in-process — the
    deterministic serial fallback.  ``workers=None`` (or 0) uses one
    worker per available CPU.  If the pool cannot be created (platforms
    without working ``multiprocessing`` primitives), the run silently
    degrades to serial execution; results are identical either way.

    ``on_error`` / ``max_retries`` / ``timeout_s`` form the per-shard
    fault policy (see :class:`ErrorPolicy`): ``'raise'`` propagates the
    first failure like the historical behavior, ``'collect'`` turns each
    failing shard into a :class:`ShardError` result slot while every
    other shard's result survives, and ``'retry'`` re-executes failures
    up to ``max_retries`` times first (a retried shard is bit-identical
    by the determinism contract).  ``timeout_s`` bounds each shard on
    pool runs; hung workers are destroyed and the pool rebuilt.

    ``cost_key`` (optional) estimates a shard's relative cost; when a
    pool is used, shards are *submitted* in descending-cost order so the
    expensive ones never serialize the run's tail.  Because results are
    reassembled by original index, the returned lists are bit-identical
    with or without a cost key — ordering is purely a wall-clock
    optimization (see the determinism contract above).

    ``pool`` (optional) is a :class:`WorkerPool` to run on instead of a
    throwaway per-call pool; the pool's worker count takes precedence
    over ``workers`` and the workers stay alive after the call (the
    caller owns shutdown).  Results are bit-identical either way — a
    persistent pool only changes where process spin-up cost is paid.

    A raising ``progress`` callback is disarmed after its first failure
    and can never corrupt results — telemetry is strictly write-only.
    """
    shards = list(shards)
    policy = ErrorPolicy(on_error=on_error, max_retries=max_retries,
                         timeout_s=timeout_s)
    if pool is not None:
        workers = pool.workers
    n_workers = min(resolve_workers(workers), max(1, len(shards)))
    started = time.perf_counter()
    results: List[Any] = [None] * len(shards)
    reports: List[Optional[ShardReport]] = [None] * len(shards)
    progress_disarmed = False

    def _emit(index: int, value: Any, elapsed: float, pid: int,
              attempts: int) -> None:
        nonlocal progress_disarmed
        results[index] = value
        reports[index] = ShardReport(
            index=index,
            label=shards[index].label,
            wall_clock_s=elapsed,
            events_dispatched=_events_of(value),
            worker_pid=pid,
            attempts=attempts,
        )
        if progress is None or progress_disarmed:
            return
        if isinstance(value, ShardError):
            message = ("shard %d/%d %s FAILED [%s] after %d attempt(s): %s"
                       % (index + 1, len(shards), shards[index].label,
                          value.kind, attempts, value.message))
        else:
            message = ("shard %d/%d %s (%.2fs)"
                       % (index + 1, len(shards),
                          shards[index].label, elapsed))
        try:
            progress(message)
        except Exception:
            # telemetry must never corrupt results: disarm the callback
            # and keep executing
            progress_disarmed = True
            warnings.warn("progress callback raised; suppressing further "
                          "progress messages (results are unaffected)",
                          RuntimeWarning, stacklevel=2)

    if n_workers > 1 and len(shards) > 1:
        # pool runs get the cost-sorted submission order (serial runs
        # keep natural order: results are index-keyed, so ordering is
        # progress-message cosmetics only)
        tasks = [(i, shards[i]) for i in _submission_order(shards, cost_key)]
        run_pool = pool if pool is not None else WorkerPool(n_workers)
        try:
            _execute_on_pool(run_pool, tasks, policy, _emit)
            mode = run_pool.mode
        finally:
            if pool is None:
                run_pool.close()
    else:
        _execute_serially(list(enumerate(shards)), policy, _emit)
        mode = "serial"

    return ShardedRun(
        results=results,
        reports=[r for r in reports if r is not None],
        workers=1 if mode == "serial" else n_workers,
        mode=mode,
        wall_clock_s=time.perf_counter() - started,
    )
