"""The analysis-level plan cache: one lowering, many cost bindings.

A sweep grid typically crosses a handful of *structural* axes (scheme,
pipeline depth, micro-batch count, DP/TP widths, waves, prefetch,
recompute/capacity knobs) with *cost-only* axes (which cluster's
devices and links time the program).  Before this cache every cell paid
the full schedule → compile → collective-annotation → lowering chain;
now structurally identical cells share one compiled
:class:`~repro.actions.program.Program` and one
:class:`~repro.actions.lowering.ExecutablePlan`, and a cost-only cell
merely **re-times** the cached plan against its oracle
(:meth:`ExecutablePlan.retime`) before executing.

Safety of sharing: everything a compiled program carries — action
streams, dependency edges, tensor/gradient byte sizes, resource deltas,
collective groups — derives from the model spec and the layout shape,
never from the cluster's device speeds or topology (those live in the
cost oracle, resolved at re-time) and never from the capacity knob
(enforcement is an execute-time argument).  The cache key therefore
spans ``(scheme, TP, P, D, B, microbatch size, W, collectives compiled
in or not, prefetch, batching, the ModelSpec itself)``; cluster and
capacity are deliberately absent.  Out-of-range layouts are still rejected per call
by the harness-level device-count checks, which run before the cache
is consulted.  The sharing contract is *verifiable*, not assumed:
:attr:`ExecutablePlan.plan_key` content-hashes exactly the structural
arrays execution reads, and the test suite pins that independent
compilations of one cell shape against different clusters (and
capacities) produce plans with equal keys — the oracle for every claim
in this paragraph.

The cache is process-global (each sweep worker process grows its own)
and bounded LRU — an over-capacity sweep keeps the structures it is
actively re-timing and evicts the stalest ones; ``repro sweep
--profile`` surfaces the hit/miss/eviction counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..actions.lowering import ExecutablePlan
from ..actions.program import Program
from ..actions.reorder import OrderEntry, reorder_program
from ..schedules.base import Schedule

#: default bound on retained plans (a full fig09-style grid is ~50)
MAX_PLANS = 256


@dataclass
class PlanEntry:
    """Everything a measurement reuses across cost-only axes."""

    schedule: Schedule
    program: Program
    plan: ExecutablePlan
    #: cost bindings of ``plan`` already produced, keyed by the cost
    #: inputs (cluster, stage costs); a repeated-pass sweep
    #: re-times each (structure, cluster) pair once and thereafter
    #: reuses the bound plan — including its lazily filled duration
    #: column.  Evicted with the entry.
    bindings: dict = field(default_factory=dict)
    #: serializes binding fills so concurrent readers of one entry (the
    #: serving layer's worker threads) agree on a single bound plan per
    #: key instead of racing duplicate re-times
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def bound_plan(self, key: tuple, oracle_factory) -> ExecutablePlan:
        """The plan re-timed under the oracle ``key`` stands for.

        ``oracle_factory`` builds the cost oracle only on a binding
        miss; the key must capture every input the oracle's answers
        depend on (the measurement layer uses ``(cluster, stage
        costs)`` — see :func:`repro.analysis.measure_throughput_batch`).
        Deterministic oracles make the reuse exact: re-timing the same
        structure under an equal oracle yields identical columns.
        """
        with self._lock:
            plan = self.bindings.get(key)
            if plan is None:
                plan = self.plan.retime(oracle_factory())
                self.bindings[key] = plan
            return plan


@dataclass
class PlanCache:
    """Bounded LRU map from structural cell keys to plan entries.

    Insertion order of the backing dict doubles as recency order: a hit
    re-inserts its entry at the back, so eviction (popping the front)
    always discards the least recently used structure.  ``maxsize`` is
    per-instance configurable; ``evictions`` counts entries dropped to
    enforce it.

    All mutation (the LRU re-insert on ``get``, eviction on ``put``,
    the hit/miss/eviction counters) happens under one lock, so the
    cache is safe to share across threads — the serving layer's handler
    threads and its micro-batch dispatcher hit this very instance
    concurrently.  The invariants the stress test pins: every ``get``
    bumps exactly one counter, ``len`` never exceeds ``maxsize``, and
    ``insertions == len + evictions`` at any quiescent point.
    """

    maxsize: int = MAX_PLANS
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: ``put`` calls that added a key not already present (re-puts of a
    #: live key are not insertions); with the lock held this makes the
    #: eviction accounting exactly checkable
    insertions: int = 0
    _store: dict = field(default_factory=dict)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def get(self, key: tuple) -> PlanEntry | None:
        """The cached entry for ``key`` (counts a hit/miss, bumps LRU)."""
        with self._lock:
            found = self._store.pop(key, None)
            if found is not None:
                self._store[key] = found  # re-insert: most recently used
                self.hits += 1
            else:
                self.misses += 1
            return found

    def put(self, key: tuple, entry: PlanEntry) -> PlanEntry:
        """Retain ``entry`` under ``key``, evicting the LRU past maxsize."""
        with self._lock:
            if self._store.pop(key, None) is None:
                self.insertions += 1
            self._store[key] = entry
            while len(self._store) > self.maxsize:
                self._store.pop(next(iter(self._store)))
                self.evictions += 1
            return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.insertions = 0

    def describe(self) -> str:
        with self._lock:
            return (f"plan cache: {len(self._store)}/{self.maxsize} plans, "
                    f"{self.hits} hits, {self.misses} misses, "
                    f"{self.evictions} evictions")


def candidate_plan(
    entry: PlanEntry,
    orders: Mapping[int, Sequence[OrderEntry]],
    costs=None,
) -> ExecutablePlan:
    """A cost-bound plan for a *reordering* of a cached entry's program.

    The schedule-synthesis searcher evaluates thousands of candidate
    orderings against one structural cell; this is the cheap path it
    rides.  The candidate program shares ``ops``/``deps``/byte facts
    with the base (see :func:`repro.actions.reorder.reorder_program`),
    so its lowered compute table — built from ``program.ops`` iteration
    order — is identical index-for-index, and when the oracle is the
    very one the base plan is bound to, the candidate can adopt the
    base's lazily-filled ``comp_cost`` column outright: every duration
    the oracle has ever resolved for this cell is reused by every
    later candidate instead of being re-queried per plan.

    ``costs`` defaults to the base plan's bound oracle; pass an oracle
    explicitly to time candidates against a different cluster (no
    column sharing then).  An unbound base with no ``costs`` yields an
    unbound candidate (still useful for ``plan_key``).
    """
    program = reorder_program(entry.program, orders)
    plan = ExecutablePlan.lower(program)
    oracle = costs if costs is not None else entry.plan.costs
    if oracle is None:
        return plan
    plan = plan.retime(oracle)
    if entry.plan.bound and entry.plan.costs is oracle:
        plan.comp_cost = entry.plan.comp_cost
    return plan


_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-global cache the measurement harnesses share."""
    return _CACHE
