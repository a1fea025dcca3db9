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
  local process pool, returning results in submission order together
  with per-shard telemetry (:class:`ShardReport`).
* :class:`WorkerPool` — a persistent pool of worker processes that lives
  *across* ``run_sharded`` calls (pass it as ``pool=``), so a multi-call
  driver (figure sweeps, campaigns, benchmarks) pays process spin-up
  once instead of per call.
* :class:`SimContext` — one ``(simulator, network)`` pair, built
  fresh for every load point (see ``repro.core.sweep``); the derived
  tables it reads are interned (:mod:`repro.core.interning`), so a
  build costs a few hundredths of a millisecond.

Determinism contract
--------------------
``run_sharded`` guarantees that the *results* list is a pure function of
the shards themselves: execution order, worker count, start method, and
serial or pool execution never leak into it.  Shard callables must
therefore derive any randomness from their own arguments (see
:func:`derive_seed`) and must not mutate shared state.  A failing shard
fails the same way serially or on a pool, and would fail the same way
again if re-run.  Telemetry (wall-clock, pids) is reported separately
and is explicitly *not* deterministic.

Error policy
------------
Serial and pool runs apply the same per-shard policy (``on_error=``):

* ``'raise'`` (default) — re-raise the first shard exception in the
  caller;
* ``'collect'`` — store a :class:`ShardError` in the failing shard's
  result slot and keep going: a 1000-shard grid with one bad shard
  returns 999 results plus one structured failure record.

A worker process that dies (OOM-killed, segfaulted, ``kill -9``) is not
a shard failure: under either policy ``run_sharded`` raises
``concurrent.futures.process.BrokenProcessPool`` naming the shards that
were in flight, and the :class:`WorkerPool` spawns fresh workers on its
next use.  Drivers that must survive a lost worker resume from their own
per-shard results (``run --cache``), which the determinism contract
makes bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
import traceback as _traceback
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "available_cpus",
    "derive_seed",
    "get_context",
    "resolve_workers",
    "Shard",
    "ShardError",
    "ShardExecutionError",
    "ShardReport",
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
    per available CPU; a negative count raises ``ValueError``."""
    if workers is None or workers == 0:
        return available_cpus()
    workers = int(workers)
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 means one per CPU), "
                         "got %r" % (workers,))
    return workers


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


@dataclass(frozen=True)
class ShardError:
    """Structured record of one shard that raised.

    Under ``on_error='collect'`` this object occupies the shard's slot
    in ``ShardedRun.results`` instead of a result — it is a *value*,
    never raised.  ``traceback`` is the formatted worker-side traceback
    text.
    """

    index: int
    label: str
    error_type: str
    message: str
    traceback: str = ""
    worker_pid: int = 0

    def __str__(self) -> str:
        return ("shard %d (%s) failed: %s: %s"
                % (self.index, self.label or "unlabeled", self.error_type,
                   self.message))


class ShardExecutionError(RuntimeError):
    """Raised under ``on_error='raise'`` when the original worker
    exception could not be transported back (unpicklable); the message
    embeds the worker-side traceback."""


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
                      pid: int) -> ShardError:
    return ShardError(index=index, label=shard.label,
                      error_type=failure.error_type,
                      message=failure.message,
                      traceback=failure.traceback_text, worker_pid=pid)


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
#: emit(index, result_or_ShardError, elapsed_s, worker_pid)
EmitFn = Callable[[int, Any, float, int], None]


def _finish(index: int, shard: Shard, ok: bool, value: Any, elapsed: float,
            pid: int, collect: bool, emit: EmitFn) -> None:
    """Apply the error policy to one executed shard and report it."""
    if not ok:
        if not collect:
            _reraise(value, shard)
        value = _failure_to_error(index, shard, value, pid)
    emit(index, value, elapsed, pid)


def _execute_serially(tasks: Sequence[Tuple[int, Shard]], collect: bool,
                      emit: EmitFn) -> None:
    """The in-process execution loop: used for serial runs and when no
    pool can be created."""
    for task in tasks:
        index, ok, value, elapsed, pid = _invoke_guarded(task)
        _finish(index, task[1], ok, value, elapsed, pid, collect, emit)


def _execute_on_pool(pool: WorkerPool, tasks: Sequence[Tuple[int, Shard]],
                     collect: bool, emit: EmitFn) -> None:
    """Run ``tasks`` on ``pool``'s workers, reporting each shard as it
    completes.

    Every shard is submitted up front, in ``tasks`` order; the executor
    feeds its workers first-in first-out.  A raising shard's exception
    travels back as data (:func:`_invoke_guarded`), so ``collect``
    never breaks the pool.  A dead worker does: every unfinished shard
    then fails with ``BrokenProcessPool``, which is re-raised naming the
    shards that were in flight, after the broken executor is dropped so
    the pool's next use spawns fresh workers.  Under ``raise`` the first
    shard exception cancels every shard not yet started.
    """
    executor = pool.acquire()
    if executor is None:
        _execute_serially(tasks, collect, emit)
        return
    from concurrent.futures import as_completed
    from concurrent.futures.process import (EXTRA_QUEUED_CALLS,
                                            BrokenProcessPool)

    futures: Dict[Any, Tuple[int, Shard]] = {}
    try:
        for task in tasks:
            futures[executor.submit(_invoke_guarded, task)] = task
        for future in as_completed(futures):
            index, shard = futures[future]
            try:
                _, ok, value, elapsed, pid = future.result()
            except BrokenProcessPool:
                raise
            except Exception as exc:
                # the result could not travel back (e.g. it would not
                # pickle): a failure of this shard, not of the pool
                ok, elapsed, pid = False, 0.0, 0
                value = _capture_failure(exc, require_picklable=False)
            _finish(index, shard, ok, value, elapsed, pid, collect, emit)
    except BrokenProcessPool as exc:
        pool.close()
        # the executor hands shards to its workers in submission order,
        # keeping EXTRA_QUEUED_CALLS queued beyond them, so the first
        # unfinished shards are the ones that were in flight
        unfinished = [shard.label or "shard %d" % index
                      for future, (index, shard) in futures.items()
                      if isinstance(future.exception(), BrokenProcessPool)]
        in_flight = unfinished[:pool.workers + EXTRA_QUEUED_CALLS]
        raise BrokenProcessPool(
            "a worker process died with shard(s) in flight: %s "
            "(%d of %d shard(s) unfinished)"
            % (", ".join(in_flight) or "none", len(unfinished),
               len(tasks))) from exc
    except BaseException:
        for future in futures:
            future.cancel()
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
    """One (network, config) simulation instance: a
    :class:`~repro.core.engine.Simulator` and the network built on it,
    used for one load point and then dropped."""

    __slots__ = ("sim", "network", "network_name", "warmup_ps")

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


def get_context(network_name: str, config: Any, warmup_ps: int,
                network_kwargs: Optional[Dict[str, Any]] = None
                ) -> SimContext:
    """A new :class:`SimContext`.

    Kept only as the entry point the benchmark's ``parallel.context_*``
    timers wrap; it goes when the benchmark stops timing it.
    """
    return SimContext(network_name, config, warmup_ps, network_kwargs)


def _pick_context():
    """Choose a multiprocessing context, preferring ``fork`` (cheap,
    inherits ``sys.path``) and falling back to the platform default."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerPool:
    """A persistent process pool that outlives ``run_sharded``.

    ``run_sharded`` normally creates and tears down a fresh pool per
    call; drivers that issue many calls (a figure's per-pattern sweeps,
    a suite's trace build + replay grid, benchmark loops) pay that
    spin-up each time.  A ``WorkerPool`` is created lazily on first use,
    then passed to any number of ``run_sharded(..., pool=...)`` calls;
    worker processes — and therefore their interned tables and draw
    banks — stay alive between calls.  Close it (or use it as a context
    manager) when the run is over; after :meth:`close` ``mode`` reads
    ``"serial"`` until the next :meth:`acquire` spawns fresh workers.  A
    run that loses a worker closes the broken pool the same way.

    Falls back to serial exactly like ``run_sharded`` does when the
    platform cannot provide a pool; ``workers=1`` never creates
    processes (nor imports the process machinery) at all.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        self._executor = None
        self._failed = False
        self.mode = "serial"

    def acquire(self):
        """The live ``ProcessPoolExecutor``, created on first use; None
        when serial (workers=1 or pool creation failed)."""
        if self._executor is None and not self._failed and self.workers > 1:
            try:
                from concurrent.futures import ProcessPoolExecutor

                context = _pick_context()
                self._executor = ProcessPoolExecutor(self.workers,
                                                     mp_context=context)
                self.mode = context.get_start_method()
            except (ImportError, OSError, ValueError):
                self._failed = True
                self.mode = "serial"
        return self._executor

    def close(self) -> None:
        """Shut the workers down once their current shards finish,
        cancelling any not yet started; idempotent.  The pool object can
        be reused afterwards (a new set of workers spawns on next use)."""
        executor, self._executor = self._executor, None
        self.mode = "serial"
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_sharded(shards: Sequence[Shard],
                workers: Optional[int] = 1,
                progress: Optional[Callable[[str], None]] = None,
                cost_key: Optional[Callable[[Shard], float]] = None,
                pool: Optional[WorkerPool] = None,
                on_error: str = "raise") -> ShardedRun:
    """Execute every shard and return results in submission order.

    ``workers=1`` (the default) runs everything in-process — the
    deterministic serial fallback.  ``workers=None`` (or 0) uses one
    worker per available CPU; a negative count raises ``ValueError``.
    If the pool cannot be created (platforms without working
    ``multiprocessing`` primitives), the run silently degrades to serial
    execution; results are identical either way.

    ``on_error`` is the per-shard failure policy: ``'raise'`` propagates
    the first shard exception, ``'collect'`` turns each failing shard
    into a :class:`ShardError` result slot while every other shard's
    result survives.  A worker process that dies raises
    ``BrokenProcessPool`` under either policy (see the module docstring).

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
    if on_error not in ("raise", "collect"):
        raise ValueError("on_error must be 'raise' or 'collect', got %r"
                         % (on_error,))
    collect = on_error == "collect"
    shards = list(shards)
    if pool is not None:
        workers = pool.workers
    n_workers = min(resolve_workers(workers), max(1, len(shards)))
    started = time.perf_counter()
    results: List[Any] = [None] * len(shards)
    reports: List[Optional[ShardReport]] = [None] * len(shards)
    progress_disarmed = False

    def _emit(index: int, value: Any, elapsed: float, pid: int) -> None:
        nonlocal progress_disarmed
        results[index] = value
        reports[index] = ShardReport(
            index=index,
            label=shards[index].label,
            wall_clock_s=elapsed,
            events_dispatched=_events_of(value),
            worker_pid=pid,
        )
        if progress is None or progress_disarmed:
            return
        if isinstance(value, ShardError):
            message = ("shard %d/%d %s FAILED: %s"
                       % (index + 1, len(shards), shards[index].label,
                          value.message))
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
            _execute_on_pool(run_pool, tasks, collect, _emit)
            mode = run_pool.mode
        finally:
            if pool is None:
                run_pool.close()
    else:
        _execute_serially(list(enumerate(shards)), collect, _emit)
        mode = "serial"

    return ShardedRun(
        results=results,
        reports=[r for r in reports if r is not None],
        workers=1 if mode == "serial" else n_workers,
        mode=mode,
        wall_clock_s=time.perf_counter() - started,
    )
