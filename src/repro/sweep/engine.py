"""The sweep executor: cache lookups, worker-pool fan-out, assembly.

:func:`run_sweep` takes a declarative :class:`~repro.sweep.spec.SweepSpec`
and produces a :class:`~repro.sweep.table.SweepTable`:

1. expand the spec to concrete grid cells,
2. resolve each cell against the on-disk cache (when one is given),
3. group the misses into work units — cells that share every
   *structural* axis (scheme, P, B, micro-batch size, D, W, TP) and
   differ only in cost axes (cluster, model) become one unit, measured
   as one :class:`~repro.analysis.ThroughputRequest` list through
   :func:`repro.analysis.measure_throughput_batch` (a lone cell is a
   one-lane unit),
4. fan the units out over a ``multiprocessing`` pool (``workers > 1``)
   or evaluate them inline — process sharding keeps structural variety
   across workers, lockstep batching amortizes within one,
5. persist fresh results — including *infeasible* verdicts, so re-runs
   skip the whole grid — and assemble rows in spec order.

Every actual measurement goes through this module's
``measure_throughput_batch`` global, so tests can wrap it with a lane
counter to prove that a warm cache performs **zero** simulator work
(and that batch units really batch).

Below the result cache sits a second, in-process reuse layer: the
measurement harness shares compiled programs + lowered
:class:`~repro.actions.ExecutablePlan` objects through
:func:`repro.analysis.plan_cache`, so cache-missing cells that differ
only in cost axes (the cluster) re-time one plan per structure instead
of recompiling — per worker process, since the cache is process-global.
``repro sweep --profile`` surfaces the per-cell build/lower/simulate
split this produces.
"""

from __future__ import annotations

import multiprocessing

from ..analysis.throughput import (
    ThroughputRequest,
    measure_throughput_batch,
)
from ..errors import ConfigError
from .cache import (
    ResultCache,
    cache_key,
    cluster_fingerprint,
    infeasible_record,
    model_fingerprint,
    record_to_result,
    result_to_record,
)
from .spec import SweepPoint, SweepSpec
from .table import SweepRow, SweepStats, SweepTable

__all__ = [
    "MAX_WORKERS",
    "assemble_table",
    "evaluate_unit_requests",
    "point_key",
    "run_sweep",
    "unit_requests",
]

#: cap on pool size; one process per cell is never useful beyond this
MAX_WORKERS = 32


def unit_requests(unit: list[tuple]) -> list[ThroughputRequest]:
    """The measurement requests of one work unit, in job order."""
    return [
        ThroughputRequest(
            scheme=point.scheme, cluster=cluster, model=model,
            p=point.p, num_microbatches=point.num_microbatches,
            d=point.d, w=point.w, microbatch_size=point.microbatch_size,
            enforce_memory=enforce_memory, overlap=overlap,
            capacity_bytes=capacity_bytes, contention=contention,
            tp=point.tp,
        )
        for (_index, point, cluster, model, overlap, enforce_memory,
             capacity_bytes, contention) in unit
    ]


def evaluate_unit_requests(unit: list[tuple],
                           measure=None) -> list[tuple[int, dict]]:
    """Measure one work unit; must stay module-level (pool pickling).

    ``measure`` executes a request list and returns outcomes in request
    order; it defaults to this module's ``measure_throughput_batch``
    global (so test wrappers and monkeypatches keep seeing every call),
    and the serving layer passes its micro-batcher's instead.
    Infeasible verdicts come back as outcomes, so one rejected cell
    never aborts its unit.
    """
    outcomes = (measure or measure_throughput_batch)(unit_requests(unit))
    return [
        (job[0], infeasible_record(str(out))
         if isinstance(out, ConfigError) else result_to_record(out))
        for job, out in zip(unit, outcomes)
    ]


def _evaluate(job: tuple) -> tuple[int, dict]:
    """The record of one grid cell: a one-lane unit.

    Kept for the benchmark's cold-sweep output check
    (``perfbench/run.py``), which measures sampled cells by this name.
    """
    return evaluate_unit_requests([job])[0]


def _batch_units(misses: list[tuple]) -> list[list[tuple]]:
    """Group miss jobs into work units, preserving first-seen order.

    Cells agreeing on every structural axis — scheme, P, B,
    micro-batch size, D, W and TP (the harness's plan-key axes
    plus run-config constants) — form one unit whatever their cluster
    *or model*: those are cost axes, and the batched runtime's
    congruence grouping stacks equal-structure lanes across models
    (distinct plan keys) into one lockstep batch.
    """
    units: list[list[tuple]] = []
    by_structure: dict[tuple, list[tuple]] = {}
    for job in misses:
        point = job[1]
        gkey = (point.scheme, point.p, point.num_microbatches,
                point.microbatch_size, point.d, point.w, point.tp)
        group = by_structure.get(gkey)
        if group is None:
            group = by_structure[gkey] = []
            units.append(group)
        group.append(job)
    return units


def point_key(spec: SweepSpec, point: SweepPoint,
              cluster_fp: dict | None = None,
              model_fp: dict | None = None) -> str:
    """Content-hash cache key for one cell of ``spec``."""
    return cache_key(
        point.scheme,
        spec.clusters[point.cluster_index],
        spec.models[point.model_index],
        p=point.p, d=point.d, w=point.w, tp=point.tp,
        num_microbatches=point.num_microbatches,
        microbatch_size=point.microbatch_size,
        overlap=spec.overlap,
        enforce_memory=spec.enforce_memory,
        capacity_bytes=spec.capacity_bytes,
        contention=spec.contention,
        cluster_fp=cluster_fp, model_fp=model_fp,
    )


def run_sweep(
    spec: SweepSpec,
    cache: ResultCache | None = None,
    workers: int | None = None,
) -> SweepTable:
    """Evaluate a sweep spec, reusing cached cells.

    ``workers=None`` or ``1`` evaluates inline (deterministic, easiest
    to debug and to instrument); ``workers > 1`` runs misses on a
    process pool.  Row order is the spec's expansion order either way.
    """
    points = spec.expand()
    stats = SweepStats(total=len(points))
    records: dict[int, tuple[dict, bool]] = {}

    keys: list[str | None] = [None] * len(points)
    misses: list[tuple] = []
    if cache is not None:
        # hash each distinct cluster/model once, not once per cell
        cluster_fps = [cluster_fingerprint(c) for c in spec.clusters]
        model_fps = [model_fingerprint(m) for m in spec.models]
    for i, point in enumerate(points):
        if cache is not None:
            keys[i] = point_key(spec, point,
                                cluster_fp=cluster_fps[point.cluster_index],
                                model_fp=model_fps[point.model_index])
            hit = cache.get(keys[i])
            if hit is not None:
                records[i] = (hit, True)
                stats.cached += 1
                continue
        misses.append((
            i, point,
            spec.clusters[point.cluster_index],
            spec.models[point.model_index],
            spec.overlap, spec.enforce_memory, spec.capacity_bytes,
            spec.contention,
        ))

    if misses:
        def finish(index: int, record: dict) -> None:
            # persist immediately so an interrupted sweep keeps every
            # cell that already finished
            records[index] = (record, False)
            if cache is not None:
                cache.put(keys[index], record)

        units = _batch_units(misses)
        if workers is not None and workers > 1:
            pool_size = min(workers, MAX_WORKERS, len(units))
            with multiprocessing.Pool(pool_size) as pool:
                for unit_records in pool.imap_unordered(evaluate_unit_requests,
                                                        units):
                    for index, record in unit_records:
                        finish(index, record)
        else:
            for unit in units:
                for index, record in evaluate_unit_requests(unit):
                    finish(index, record)
        stats.computed += len(misses)

    return assemble_table(spec, points, records, stats=stats)


def assemble_table(
    spec: SweepSpec,
    points: list[SweepPoint],
    records: dict[int, tuple[dict, bool]],
    stats: SweepStats | None = None,
) -> SweepTable:
    """Fold per-point records into a :class:`SweepTable`, in spec order.

    The one assembly path: :func:`run_sweep` and the serving layer's
    sweep endpoint both finish here, so a served table and a batch
    table of the same grid cannot drift in row content or stats
    accounting.  ``records`` maps point index to ``(record,
    was_cached)``; ``stats`` carries the caller's computed/cached
    tallies (a fresh one is derived when omitted — every record then
    counts as computed).
    """
    if stats is None:
        stats = SweepStats(total=len(points), computed=len(records))
    rows: list[SweepRow] = []
    for i, point in enumerate(points):
        record, was_cached = records[i]
        result = record_to_result(record)
        if result is None:
            stats.infeasible += 1
            continue
        if result.statically_pruned:
            stats.pruned += 1
        rows.append(SweepRow(
            scheme=point.scheme,
            cluster=spec.clusters[point.cluster_index].name,
            model=spec.models[point.model_index].name,
            p=point.p, d=point.d, w=point.w, tp=point.tp,
            num_microbatches=point.num_microbatches,
            microbatch_size=point.microbatch_size,
            total_batch=point.total_batch,
            result=result,
            cached=was_cached,
        ))
    return SweepTable(rows=rows, stats=stats)
