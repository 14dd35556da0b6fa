"""The benchmark's metric catalogue and the per-layer metric assembly.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json``
declares; the smoke test holds the two in agreement.  Each per-layer
metric names the end-to-end metrics (``workload:metric``) it is
expected to move — the prediction a later change is checked against.
"""

from __future__ import annotations

WORKLOADS = ("cold_sweep", "serve_closed_loop", "synth_search")

#: name -> unit; every workload prints all of them (see README.md for
#: what an operation and a work item are on each workload)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "cells/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "qps": "1/s",
    "candidates_per_s": "candidates/s",
    "peak_rss_mb": "MB",
}

_COLD = "cold_sweep:wall_s"
_SERVE = "serve_closed_loop:p50_ms"
_SERVE_ALL = ("serve_closed_loop:p50_ms", "serve_closed_loop:p99_ms",
              "serve_closed_loop:qps")
_SYNTH = "synth_search:candidates_per_s"
_SETUP = tuple(f"{w}:setup_s" for w in WORKLOADS)

#: span layers whose self times, with ``unattributed_s``, add up to the
#: traced wall of one operation: (layer, targets)
SPAN_LAYERS = (
    ("cli.start", (_COLD,)),
    ("cli.import", (_COLD,) + _SETUP),
    ("cli.main", (_COLD,)),
    ("cli.format", (_COLD,)),
    ("cli.exit", (_COLD,)),
    ("models.stage_costs", (_COLD, _SERVE)),
    ("cluster.route", (_COLD, _SERVE)),
    ("schedules.build", (_COLD, _SYNTH)),
    ("actions.compile", (_COLD,)),
    ("actions.lower", (_COLD, _SYNTH)),
    ("actions.retime", (_SERVE, "serve_closed_loop:peak_rss_mb")),
    ("actions.reorder", (_SYNTH,)),
    ("runtime.step", _SERVE_ALL + (_SYNTH,)),
    ("runtime.materialize", (_SERVE, _SYNTH)),
    ("analysis.measure", (_COLD, _SERVE)),
    ("analysis.fold", (_COLD, _SERVE)),
    ("analysis.static_oom", (_COLD, _SERVE)),
    ("sweep.run", (_COLD,)),
    ("sweep.expand", (_COLD,)),
    ("sweep.key", (_COLD,)),
    ("sweep.cache_get", (_COLD,)),
    ("sweep.cache_put", (_COLD,)),
    ("sweep.assemble", (_COLD,)),
    ("serve.http", _SERVE_ALL),
    ("serve.decode", _SERVE_ALL),
    ("serve.answer", _SERVE_ALL),
    ("serve.encode", _SERVE_ALL),
    ("serve.batch_wait", _SERVE_ALL),
    ("serve.dispatch", _SERVE_ALL),
    ("serve.transport", _SERVE_ALL),
    ("synthesis.search", (_SYNTH,)),
    ("synthesis.score", (_SYNTH,)),
    ("synthesis.legality", (_SYNTH,)),
    ("synthesis.mutate", (_SYNTH,)),
)

#: layers whose entry count per operation is reported as ``<layer>_calls``
COUNTED = ("models.stage_costs", "cluster.route", "schedules.build",
           "actions.compile", "actions.lower", "actions.retime",
           "actions.reorder", "runtime.step", "synthesis.legality")

_IMPORT = _SETUP + (_COLD,)

#: metrics that are not a span layer's self time: (name, unit, better,
#: targets)
DERIVED = (
    # no workload runs contention lanes: the contended share and the
    # replayed-lane share read 0, kept for a workload that does
    ("runtime.step_contended_s", "s/op", "lower", ()),
    ("runtime.step_uncontended_s", "s/op", "lower", (_SERVE, _SYNTH)),
    ("runtime.lanes", "lanes/op", "lower", (_SERVE, _SYNTH)),
    ("runtime.events", "events/op", "lower", (_SERVE, _SYNTH)),
    ("runtime.events_per_s", "events/s", "higher", _SERVE_ALL + (_SYNTH,)),
    ("runtime.batch_occupancy_mean", "lanes", "higher", (_COLD, _SERVE)),
    ("runtime.replay_lane_share", "fraction", "lower", ()),
    ("runtime.fallback_lane_share", "fraction", "lower", (_COLD, _SERVE)),
    ("analysis.plan_cache_hit_ratio", "fraction", "higher", (_SERVE,)),
    ("serve.dispatch_lanes_mean", "lanes", "higher", _SERVE_ALL),
    ("serve.dedup_share", "fraction", "higher", _SERVE_ALL),
    ("serve.drift_ratio", "ratio", "lower",
     ("serve_closed_loop:p99_ms", "serve_closed_loop:qps")),
    ("synthesis.legal_share", "fraction", "higher", (_SYNTH,)),
    ("import.total_s", "s", "lower", _IMPORT),
    ("import.numpy_s", "s", "lower", _IMPORT),
    ("import.networkx_s", "s", "lower", _IMPORT),
    ("import.repro_s", "s", "lower", _IMPORT),
    ("unattributed_s", "s/op", "lower", ()),
    ("process.peak_rss_mb", "MB", "lower",
     ("serve_closed_loop:peak_rss_mb",)),
    ("trace.wall_s", "s/op", "lower", ()),
    ("trace.ops", "count", "higher", ()),
    ("trace_overhead", "ratio", "lower", ()),
    ("error_rate", "fraction", "lower", ()),
)


def per_layer_catalogue() -> list[tuple[str, str, str, tuple]]:
    """Every per-layer metric as (name, unit, better, targets)."""
    out = [(f"{layer}_s", "s/op", "lower", targets)
           for layer, targets in SPAN_LAYERS]
    targets = dict(SPAN_LAYERS)
    out += [(f"{layer}_calls", "calls/op", "lower", targets[layer])
            for layer in COUNTED]
    out += list(DERIVED)
    return out


PER_LAYER = {name: unit for name, unit, _b, _t in per_layer_catalogue()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, ops: int, wall_per_op: float,
                  extra: dict) -> dict:
    """Build every per-layer metric from aggregated spans.

    ``agg`` is a :func:`tracing.self_times` result over the traced
    operations (``serve.batch_wait`` and ``serve.transport`` already
    folded in by the caller); ``extra`` carries the counters that do not
    come from spans: ``batching`` and ``plan_cache`` deltas, ``import``
    times, and the workload's ``drift_ratio``, ``dedup_share``,
    ``dispatch_lanes_mean``, ``legal_share``, ``trace_overhead``,
    ``error_rate`` and ``peak_rss_mb`` (of the untraced process that
    ran ``repro``, where the run has one).  Layers that do not run on a workload read 0.
    """
    out: dict[str, tuple[float, str]] = {}

    def get(layer: str, key: str = "self") -> float:
        return agg.get(layer, {}).get(key, 0)

    attributed = 0.0
    for layer, _t in SPAN_LAYERS:
        value = get(layer) / ops
        attributed += value
        out[f"{layer}_s"] = (value, "s/op")
    for layer in COUNTED:
        out[f"{layer}_calls"] = (get(layer, "calls") / ops, "calls/op")

    batching = extra.get("batching", {})
    lanes = batching.get("lanes", 0)
    all_lanes = lanes + batching.get("scalar_cells", 0)
    cache = extra.get("plan_cache", {})
    imports = extra.get("import", {})
    values = {
        "runtime.step_contended_s": get("runtime.step", "contended") / ops,
        "runtime.step_uncontended_s":
            get("runtime.step", "uncontended") / ops,
        "runtime.lanes": get("runtime.step", "lanes") / ops,
        "runtime.events": get("runtime.step", "events") / ops,
        "runtime.events_per_s": _ratio(get("runtime.step", "events"),
                                       get("runtime.step")),
        "runtime.batch_occupancy_mean":
            _ratio(lanes, batching.get("batches", 0)),
        "runtime.replay_lane_share":
            _ratio(batching.get("recovered_lanes", 0), all_lanes),
        "runtime.fallback_lane_share":
            _ratio(batching.get("scalar_cells", 0), all_lanes),
        "analysis.plan_cache_hit_ratio":
            _ratio(cache.get("hits", 0),
                   cache.get("hits", 0) + cache.get("misses", 0)),
        "serve.dispatch_lanes_mean": extra.get("dispatch_lanes_mean", 0.0),
        "serve.dedup_share": extra.get("dedup_share", 0.0),
        "serve.drift_ratio": extra.get("drift_ratio", 0.0),
        "synthesis.legal_share": extra.get("legal_share", 0.0),
        "import.total_s": imports.get("total", 0.0),
        "import.numpy_s": imports.get("numpy", 0.0),
        "import.networkx_s": imports.get("networkx", 0.0),
        "import.repro_s": imports.get("repro", 0.0),
        "unattributed_s": wall_per_op - attributed,
        "process.peak_rss_mb": extra.get("peak_rss_mb", 0.0),
        "trace.wall_s": wall_per_op,
        "trace.ops": ops,
        "trace_overhead": extra.get("trace_overhead", 0.0),
        "error_rate": extra.get("error_rate", 0.0),
    }
    for name, unit, _better, _targets in DERIVED:
        out[name] = (values[name], unit)
    return out
