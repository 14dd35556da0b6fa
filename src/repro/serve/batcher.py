"""The continuous micro-batcher: cross-query lockstep measurement.

Handler threads do not measure anything themselves — they submit their
query's measurement requests here and block.  A single dispatcher
thread collects whatever is in flight across *all* concurrent queries
(after a short coalescing window), whatever their TP degree, and
executes it as one :func:`~repro.analysis.measure_throughput_batch`
call.  That harness groups lanes by
:attr:`ExecutablePlan.congruence_key` and advances them through one
vectorized ``PlanBatch`` per group — so two
concurrent "best config?" queries whose grids share structures (they
almost always do: the scheme × layout cross is the same, only batch
sizes and clusters differ) stack into the same ``[N]``-wide NumPy
steps, and the serving layer inherits the 10–25× batched speedups
instead of re-deriving them.

A small pool of dispatcher threads (``workers``) runs concurrently:
coalescing amortizes the per-lane Python overhead (plan lookup,
re-timing, result folding) across a batch, while parallel dispatches
keep multiple cores busy — the lockstep stepper's NumPy kernels release
the GIL, so frozen batches genuinely overlap.

Every outcome is exactly what the caller would have computed itself —
the batch harness is bit-identical to the scalar core per lane — so
coalescing is invisible in answers and only visible in latency.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

from .. import profiling
from ..analysis.throughput import measure_throughput_batch

#: default coalescing window: how long the dispatcher waits after the
#: first pending request for concurrent queries to pile on.  Warm-cache
#: grids execute in single-digit milliseconds, so a couple of
#: milliseconds of gathering buys whole-query coalescing without
#: noticeably moving p50.
DEFAULT_WINDOW_S = 0.002

#: default cap on lanes per dispatch; past this the dispatcher executes
#: what it has and loops (bounds per-dispatch memory and keeps one
#: giant sweep from starving small advise queries for too long)
DEFAULT_MAX_LANES = 512


def default_workers() -> int:
    """Dispatcher pool size: a few threads, bounded by the host."""
    return max(1, min(4, (os.cpu_count() or 2) - 1))


class _Pending:
    """One submission: a request list awaiting its outcome list."""

    __slots__ = ("outcomes", "remaining", "done", "error")

    def __init__(self, n: int):
        self.outcomes: list = [None] * n
        self.remaining = n
        self.done = threading.Event()
        self.error: BaseException | None = None


class MicroBatcher:
    """Continuous micro-batching front end over the batch harness.

    ``coalesce=False`` disables the queue entirely — submissions
    execute synchronously in the calling thread, one harness call per
    submission.  That is the "micro-batcher off" baseline the load
    benchmark compares against: per-query batching still happens (the
    harness batches within one request list), but concurrent queries
    no longer share lockstep batches.
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 max_lanes: int = DEFAULT_MAX_LANES,
                 coalesce: bool = True,
                 workers: int | None = None):
        self.window_s = window_s
        self.max_lanes = max_lanes
        self.coalesce = coalesce
        self._queue: deque = deque()   # (request, index, pending)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._closed = False
        self._threads: list[threading.Thread] = []
        if coalesce:
            count = workers if workers is not None else default_workers()
            self._threads = [
                threading.Thread(target=self._loop,
                                 name=f"repro-serve-batcher-{i}",
                                 daemon=True)
                for i in range(max(1, count))
            ]
            for thread in self._threads:
                thread.start()

    # -- submission ----------------------------------------------------------

    def measure(self, requests: list) -> list:
        """Outcomes for ``requests``, in request order."""
        if not requests:
            return []
        return self._measure(_Pending(len(requests)), requests)

    def _measure(self, pending: _Pending, requests: list) -> list:
        """Submit ``requests`` and block until ``pending`` completes."""
        if not self.coalesce:
            return self._execute(None, list(requests))
        with self._work:
            if self._closed:
                raise RuntimeError("micro-batcher is closed (draining)")
            for i, request in enumerate(requests):
                self._queue.append((request, i, pending))
            self._work.notify_all()
        pending.done.wait()
        if pending.error is not None:
            raise pending.error
        return pending.outcomes

    # -- the dispatcher ------------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._work:
                while not self._queue and not self._closed:
                    self._work.wait()
                if not self._queue and self._closed:
                    return
                # coalescing window: give concurrent queries a moment
                # to add their lanes before the batch freezes
                deadline = time.monotonic() + self.window_s
                while len(self._queue) < self.max_lanes:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._closed:
                        break
                    self._work.wait(timeout=remaining)
                depth = len(self._queue)
                items = [self._queue.popleft()
                         for _ in range(min(depth, self.max_lanes))]
            if not items:
                # a sibling dispatcher froze the queue first
                continue
            try:
                outcomes = self._execute(
                    depth, [request for request, _i, _p in items])
            except BaseException as exc:  # propagate to every waiter
                for _request, _i, pending in items:
                    pending.error = exc
                outcomes = [None] * len(items)
            # a submission's lanes can land in two dispatchers' batches,
            # so completion accounting takes the lock
            ready = []
            with self._lock:
                for (_request, i, pending), outcome in zip(items, outcomes):
                    pending.outcomes[i] = outcome
                    pending.remaining -= 1
                    if pending.remaining == 0:
                        ready.append(pending)
            for pending in ready:
                pending.done.set()

    def _execute(self, depth: int | None, requests: list) -> list:
        """Measure one frozen batch; ``depth`` is the queue depth it was
        drawn from (``None`` for an uncoalesced inline call)."""
        if depth is not None:
            profiling.serve_stats().record_dispatch(len(requests), depth)
        return measure_throughput_batch(requests)

    # -- lifecycle -----------------------------------------------------------

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def close(self) -> None:
        """Stop accepting work, finish what is queued, join the thread.

        Part of graceful drain: submissions racing past the close gate
        still complete (the dispatcher drains the queue before
        exiting); later submissions raise.
        """
        with self._work:
            self._closed = True
            self._work.notify_all()
        for thread in self._threads:
            thread.join(timeout=60)
        self._threads = []
