"""Spans around the public entry points of each ``repro`` layer.

The benchmark measures the program as shipped: nothing under ``src/`` is
instrumented.  A traced run instead wraps the layer entry points from
here, the way the test suite wraps the sweep engine's measurement
globals with counters: a function is replaced by a timing wrapper in
every loaded ``repro`` module that bound it, and a method on its class.

Spans are kept in memory (one tuple per call) and written out when the
run ends.  A span records its name, start, end, the span that was open
on the same thread when it started (its parent), the operation id the
thread was working on, and a few attributes.  Self time — a span's
duration minus its children's — is what the per-layer metrics sum.

``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, a clock
shared by every process, so spans written by the CLI and server
children merge with the parent's on one timeline.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

#: (module, attribute path, span name) per layer group.  A dotted
#: attribute path names a method; everything else is a module function.
TARGETS = {
    "core": (
        ("repro.models.costs", "stage_costs", "models.stage_costs"),
        ("repro.cluster.topology", "Topology.effective_link", "cluster.route"),
        ("repro.schedules.factory", "build_schedule", "schedules.build"),
        ("repro.analysis.throughput", "compile_cluster_program",
         "actions.compile"),
        ("repro.actions.lowering", "ExecutablePlan.lower", "actions.lower"),
        ("repro.actions.lowering", "ExecutablePlan.retime", "actions.retime"),
        ("repro.actions.reorder", "Reorderer.reorder", "actions.reorder"),
        ("repro.runtime.events", "execute_plan", "runtime.step"),
        ("repro.runtime.batched", "execute_batch", "runtime.step"),
        ("repro.runtime.batched", "execute_many", "runtime.step"),
        ("repro.runtime.simulator", "sim_result_from_events",
         "runtime.materialize"),
        ("repro.analysis.throughput", "measure_throughput", "analysis.measure"),
        ("repro.analysis.throughput", "measure_throughput_batch",
         "analysis.measure"),
        ("repro.analysis.hybrid", "measure_hybrid_throughput",
         "analysis.measure"),
        ("repro.analysis.hybrid", "measure_hybrid_throughput_batch",
         "analysis.measure"),
        ("repro.analysis.throughput", "throughput_from_simulation",
         "analysis.fold"),
        ("repro.analysis.throughput", "static_oom_result",
         "analysis.static_oom"),
        ("repro.sweep.engine", "run_sweep", "sweep.run"),
        ("repro.sweep.engine", "assemble_table", "sweep.assemble"),
        ("repro.sweep.spec", "SweepSpec.expand", "sweep.expand"),
        ("repro.sweep.cache", "cache_key", "sweep.key"),
        ("repro.sweep.cache", "ResultCache.get", "sweep.cache_get"),
        ("repro.sweep.cache", "ResultCache.put", "sweep.cache_put"),
        ("repro.sweep.table", "SweepTable.format", "cli.format"),
    ),
    "serve": (
        ("repro.serve.server", "_Handler.do_POST", "serve.http"),
        ("repro.serve.server", "_Handler._read_query_payload", "serve.decode"),
        ("repro.serve.codec", "AdviseQuery.from_payload", "serve.decode"),
        ("repro.serve.codec", "SweepQuery.from_payload", "serve.decode"),
        ("repro.serve.codec", "dumps_canonical", "serve.encode"),
        ("repro.serve.queries", "advise_answer", "serve.answer"),
        ("repro.serve.queries", "sweep_answer", "serve.answer"),
        ("repro.serve.batcher", "MicroBatcher._measure", "serve.submit"),
        ("repro.serve.batcher", "MicroBatcher._execute", "serve.dispatch"),
    ),
    "synthesis": (
        ("repro.synthesis.search", "synthesize", "synthesis.search"),
        ("repro.synthesis.search", "SynthesisContext.evaluate",
         "synthesis.score"),
        ("repro.synthesis.search", "SynthesisContext.evaluate_round",
         "synthesis.score"),
        ("repro.synthesis.legality", "LegalityChecker.check",
         "synthesis.legality"),
        ("repro.synthesis.mutations", "propose_mutation", "synthesis.mutate"),
    ),
}


class Tracer:
    """In-memory span store; safe to record into from many threads."""

    def __init__(self) -> None:
        #: (sid, parent, name, t0, t1, op, tid, attrs) per finished span
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = 0
        return local

    def set_op(self, op: int) -> None:
        """Tag the spans this thread records from now on with ``op``."""
        self._state().op = op

    def record(self, name: str, fn, args, kwargs, attrs=None,
               op: int | None = None):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        state = self._state()
        if op is not None:
            state.op = op
        stack = state.stack
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, state.op,
                               threading.get_ident(), attrs))

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span; for code the benchmark itself calls."""
        return self.record(name, fn, args, kwargs)

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans (plus ``extra``) as JSON for the parent."""
        payload = {"pid": os.getpid(), "spans": self.spans}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- per-call attributes ----------------------------------------------------


def _run_arg(args, kwargs, index):
    run = kwargs.get("run", args[index] if len(args) > index else None)
    return bool(run is not None and run.contention)


def _step_attrs(fn_name: str, args, kwargs):
    """(args, attrs) of a stepper call: contention mode, lanes, events."""
    if fn_name == "execute_plan":
        plans = [args[0]]
    elif fn_name == "execute_batch":
        plans = args[0].plans
    else:  # execute_many takes any iterable of (plan, capacity) pairs
        items = list(args[0])
        args = (items,) + tuple(args[1:])
        plans = [plan for plan, _cap in items]
    attrs = {"contention": _run_arg(args, kwargs, 1),
             "lanes": len(plans),
             "events": sum(plan.n_actions for plan in plans)}
    return args, attrs


def _request_ids(args) -> dict:
    """Identity of the request objects a batcher call carries."""
    return {"reqs": [id(r) for r in args[2]]}


# -- installation -----------------------------------------------------------


def _wrapper(tracer: Tracer, fn, name: str, attr: str):
    if name == "runtime.step":
        @functools.wraps(fn)
        def step(*args, **kwargs):
            args, attrs = _step_attrs(attr, args, kwargs)
            return tracer.record(name, fn, args, kwargs, attrs)
        return step
    if name in ("serve.submit", "serve.dispatch"):
        @functools.wraps(fn)
        def batcher(*args, **kwargs):
            return tracer.record(name, fn, args, kwargs, _request_ids(args))
        return batcher
    if name == "serve.http":
        ops = itertools.count(1)

        @functools.wraps(fn)
        def handler(*args, **kwargs):
            return tracer.record(name, fn, args, kwargs, op=next(ops))
        return handler

    @functools.wraps(fn)
    def plain(*args, **kwargs):
        return tracer.record(name, fn, args, kwargs)
    return plain


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (``from x import f`` copies the reference)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer, groups=("core",)) -> None:
    """Wrap the entry points of ``groups`` (importing their modules)."""
    import importlib

    for group in groups:
        for mod_name, path, name in TARGETS[group]:
            module = importlib.import_module(mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(
                        _wrapper(tracer, raw.__func__, name, attr)))
                else:
                    setattr(cls, attr, _wrapper(tracer, raw, name, attr))
            else:
                original = getattr(module, path)
                _rebind(original, _wrapper(tracer, original, name, path))


# -- aggregation ------------------------------------------------------------


def self_times(spans: list) -> dict:
    """Per-layer totals over ``spans`` from one process.

    Returns ``{name: {"self": s, "calls": n, ...}}``.  ``calls`` counts
    entries into a layer: a span nested (at any depth) inside a span of
    the same name is part of the outer call.  ``runtime.step`` also
    carries ``lanes`` / ``events`` of its outermost calls and self time
    split by contention mode; ``serve.submit`` / ``serve.dispatch``
    carry the matching needed to take measuring time out of waiting.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _name, t0, t1, *_rest in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out: dict[str, dict] = {}
    for span in spans:
        sid, parent, name, t0, t1, _op, _tid, attrs = span
        own = (t1 - t0) - child_time.get(sid, 0.0)
        entry = out.setdefault(name, {"self": 0.0, "calls": 0})
        entry["self"] += own
        outer = True
        up = by_id.get(parent)
        while up is not None:
            if up[2] == name:
                outer = False
                break
            up = by_id.get(up[1])
        if name == "runtime.step":
            mode = "contended" if attrs["contention"] else "uncontended"
            entry[mode] = entry.get(mode, 0.0) + own
        if not outer:
            continue
        entry["calls"] += 1
        if name == "runtime.step":
            entry["lanes"] = entry.get("lanes", 0) + attrs["lanes"]
            entry["events"] = entry.get("events", 0) + attrs["events"]
    return out


def dispatch_share(spans: list) -> float:
    """Seconds of batcher measuring done for the lanes of submit spans.

    A handler thread's ``serve.submit`` span lasts while its lanes wait
    *and* while a dispatch measures them.  The dispatch's own spans
    account for the measuring; a submit's share of a dispatch inside it
    is the fraction of the dispatch's lanes that are its own.  Taking
    the shares out of the submit spans leaves waiting — for the batch
    window, and for the measuring of other queries' lanes
    (``serve.batch_wait_s``).
    """
    dispatches = [(s[3], s[4], set(s[7]["reqs"])) for s in spans
                  if s[2] == "serve.dispatch"]
    total = 0.0
    for s in spans:
        if s[2] != "serve.submit":
            continue
        reqs = set(s[7]["reqs"])
        for d0, d1, dreqs in dispatches:
            if d0 >= s[3] and d1 <= s[4] and dreqs:
                total += (d1 - d0) * len(reqs & dreqs) / len(dreqs)
    return total


def in_window(spans: list, start: float, end: float) -> list:
    """Spans that started and finished inside ``[start, end]``."""
    return [s for s in spans if s[3] >= start and s[4] <= end]


def merge(total: dict, part: dict) -> dict:
    """Add one :func:`self_times` result into another."""
    for name, entry in part.items():
        into = total.setdefault(name, {})
        for key, value in entry.items():
            into[key] = into.get(key, 0) + value
    return total


def chrome_events(spans: list, pid: int, process_name: str) -> list:
    """Chrome trace-event records (as ``repro.viz.trace`` writes them)."""
    events = [{"name": "process_name", "ph": "M", "pid": pid,
               "args": {"name": process_name}}]
    tids: dict[int, int] = {}
    for sid, parent, name, t0, t1, op, tid, _attrs in spans:
        events.append({
            "name": name,
            "cat": name.split(".")[0],
            "ph": "X",
            "pid": pid,
            "tid": tids.setdefault(tid, len(tids)),
            "ts": t0 * 1e6,
            "dur": (t1 - t0) * 1e6,
            "args": {"span": sid, "parent": parent, "op": op},
        })
    return events


def write_chrome_trace(path: str, events: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                  separators=(",", ":"))
