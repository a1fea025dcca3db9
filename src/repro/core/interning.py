"""Process-wide interning of expensive, read-only derived tables.

The network models derive a number of tables from the (immutable)
:class:`~repro.macrochip.config.MacrochipConfig` alone: per-pair
forwarder/routing tables, snake-ring geometry, circuit-switched
setup/flight tables, per-size slot and energy memos.  Every one of them
is a pure function of its key, so two network instances built from equal
configs can share a single copy.  This module is the registry that makes
that sharing explicit:

* within one process, every load point of a sweep builds a fresh
  network (:class:`~repro.core.parallel.SimContext`) on the same tables
  instead of recomputing them per construction;
* under the ``fork`` start method, tables built in the parent before the
  worker pool spawns are shared across all workers via copy-on-write —
  they are never written after construction, so the pages stay shared.

Two flavors:

* :func:`intern_table` — build-once immutable values (lists the caller
  must not mutate after construction);
* :func:`intern_memo` — shared *memo dictionaries/lists* that are filled
  lazily with pure values (e.g. per-size serialization times).  Sharing
  a memo is safe exactly because every writer computes the same value
  for a given key, so fills are idempotent.

Keys must be hashable; the frozen config dataclasses qualify.  The
registry is never consulted on a hot path — only at network
construction — so a plain dict probe is all the machinery needed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

__all__ = ["intern_table", "intern_memo", "clear_interned",
           "interned_count"]

_TABLES: Dict[Hashable, Any] = {}


def intern_table(key: Hashable, build: Callable[[], Any]) -> Any:
    """Return the interned value for ``key``, building it on first use.

    ``build`` must be a pure function of ``key`` (same key, same value —
    byte for byte), and callers must treat the result as immutable.
    """
    value = _TABLES.get(key)
    if value is None:
        value = build()
        _TABLES[key] = value
    return value


def intern_memo(key: Hashable, build: Callable[[], Any]) -> Any:
    """Like :func:`intern_table` but the value is a shared lazily-filled
    memo (dict or sentinel-initialized list): callers may fill entries,
    provided every fill is a pure function of the entry key and ``key``.
    """
    return intern_table(key, build)


def clear_interned() -> int:
    """Drop every interned table (tests / memory pressure); returns how
    many entries were dropped.  Safe at any time — live references keep
    their tables, future constructions simply rebuild."""
    n = len(_TABLES)
    _TABLES.clear()
    return n


def interned_count() -> int:
    return len(_TABLES)
