"""Query expansion and answer folding — one path for CLI and server.

``repro advise`` and the server's ``/advise`` endpoint both call
:func:`advise_answer`; ``repro sweep``-shaped served queries go through
:func:`sweep_answer`, which assembles its table with the same
:func:`repro.sweep.engine.assemble_table` the batch engine uses.  Every
cell of any TP degree is one :class:`ThroughputRequest`, and the
measurement step is one pluggable callable: the CLI passes nothing
(direct :func:`~repro.analysis.measure_throughput_batch` calls), the
server passes the micro-batcher's ``measure`` — and because every lane
the batched runtime produces is bit-identical to the scalar core, a
served answer equals the batch answer byte for byte once both sides
serialize canonically.
"""

from __future__ import annotations

from ..analysis.report import format_table
from ..analysis.scaling import layouts_for
from ..analysis.throughput import (
    ThroughputRequest,
    ThroughputResult,
    measure_throughput_batch,
)
from ..cluster.presets import get_cluster
from ..errors import ConfigError
from ..sweep.spec import SweepSpec, feasible_waves, split_batch
from .codec import ADVISE_SCHEMES, CODEC_VERSION, AdviseQuery, SweepQuery

#: model factories by query name (import deferred — models are cheap,
#: but keeping one table makes the valid set obvious)
def _model(name: str):
    from ..models import bert_64, gpt_128, tiny_model

    return {"bert": bert_64, "gpt": gpt_128, "tiny": tiny_model}[name]()


def advise_requests(
    query: AdviseQuery,
) -> tuple[list[tuple[str, int, int, int, int]], list]:
    """Expand a query to measurement requests.

    Returns ``(cells, requests)`` aligned index-for-index: ``cells``
    carries the ``(scheme, p, d, tp, w)`` identity of each request.
    Raises :class:`ConfigError` when no
    (P, D) layout fits the device budget (same verdict and message as
    the original per-cell CLI loop).
    """
    model = _model(query.model)
    cluster = get_cluster(query.cluster, query.devices)
    budget = query.devices // query.tp
    layouts = tuple(
        (p, d) for p, d in layouts_for(budget)
        if query.dp is None or d in query.dp
    )
    if not layouts:
        raise ConfigError(
            f"no (P, D) layout fits {query.devices} devices with "
            f"--tp {query.tp}"
            + (f" --dp {list(query.dp)}" if query.dp else "")
        )
    cells: list[tuple[str, int, int, int, int]] = []
    requests: list = []
    for scheme in ADVISE_SCHEMES:
        for p, d in layouts:
            shape = split_batch(query.batch, d, p, scheme)
            if shape is None:
                continue
            waves = (feasible_waves(model, p) if scheme == "hanayo"
                     else [1])
            for w in waves:
                cells.append((scheme, p, d, query.tp, w))
                requests.append(ThroughputRequest(
                    scheme=scheme, cluster=cluster, model=model,
                    p=p, num_microbatches=shape[0], d=d, w=w,
                    microbatch_size=shape[1],
                    capacity_bytes=query.capacity_bytes,
                    contention=query.contention, tp=query.tp,
                ))
    return cells, requests


def advise_answer(query: AdviseQuery, measure=None) -> dict:
    """The full answer payload for one advise query.

    ``measure`` executes a request list and returns outcomes in request
    order (default: :func:`~repro.analysis.measure_throughput_batch`
    directly; the server passes the micro-batcher's).  Rows
    are ranked by throughput — OOM cells sink to the bottom — with a
    deterministic structural tie-break, truncated to ``query.top``.
    """
    cells, requests = advise_requests(query)
    outcomes = (measure or measure_throughput_batch)(requests) \
        if requests else []
    rows = []
    for (scheme, p, d, tp, w), outcome in zip(cells, outcomes):
        if isinstance(outcome, ConfigError):
            # infeasible cell (layout/node-size limits) — the paper's
            # empty grid slots; anything else propagated already
            continue
        result: ThroughputResult = outcome
        rows.append({
            "scheme": scheme, "p": p, "d": d, "tp": tp, "w": w,
            "seq_per_s": result.seq_per_s,
            "oom": result.oom,
            "statically_pruned": result.statically_pruned,
        })
    rows.sort(key=lambda r: (
        -(r["seq_per_s"] if r["seq_per_s"] is not None else float("-inf")),
        r["scheme"], r["p"], r["d"], r["tp"], r["w"],
    ))
    return {
        "kind": "advise",
        "version": CODEC_VERSION,
        "query": query.to_payload(),
        "rows": rows[: query.top],
        "considered": len(rows),
    }


def format_advise(payload: dict) -> str:
    """Render an advise answer payload as the CLI table."""
    query = payload["query"]
    body = [
        [r["scheme"], r["p"], r["d"], r["tp"], r["w"],
         None if r["oom"] else f"{r['seq_per_s']:.2f}"]
        for r in payload["rows"]
    ]
    title = (f"{query['model']} on cluster {query['cluster']} "
             f"({query['devices']} devices), batch {query['batch']}")
    if query.get("capacity_gib") is not None:
        title += f", capacity {query['capacity_gib']:g} GiB"
    return format_table(["scheme", "P", "D", "TP", "W", "seq/s"],
                        body, title=title)


# -- sweep queries ------------------------------------------------------------


def sweep_spec(query: SweepQuery) -> SweepSpec:
    """Lower a served sweep query to the engine's declarative spec."""
    return SweepSpec(
        schemes=query.schemes,
        clusters=(get_cluster(query.cluster, query.devices),),
        models=tuple(_model(name) for name in query.models),
        layouts=(query.layouts if query.layouts is not None
                 else layouts_for(query.devices)),
        total_batches=query.batches,
        waves=query.waves,
        tensor_parallel=query.tp,
        capacity_bytes=query.capacity_bytes,
        contention=query.contention,
    )


def sweep_answer(
    query: SweepQuery,
    measure=None,
    progress=None,
) -> dict:
    """Evaluate a served sweep and fold it into the table payload.

    The grid expands and groups exactly like the batch engine
    (:func:`repro.sweep.engine.run_sweep` with no on-disk cache): cells
    sharing every structural axis form one work unit measured through
    ``measure`` (as in :func:`advise_answer`).  After each unit
    finishes, ``progress(done, total)`` fires — the server streams these
    as chunked frames.  The
    final payload's ``result`` is exactly ``SweepTable.to_json``
    content for the same spec.
    """
    from ..sweep.engine import assemble_table, evaluate_unit_requests

    spec = sweep_spec(query)
    points = spec.expand()
    jobs = [
        (i, point, spec.clusters[point.cluster_index],
         spec.models[point.model_index], spec.overlap,
         spec.enforce_memory, spec.capacity_bytes, spec.contention)
        for i, point in enumerate(points)
    ]
    from ..sweep.engine import _batch_units

    units = _batch_units(jobs)
    records: dict[int, tuple[dict, bool]] = {}
    done = 0
    for unit in units:
        for index, record in evaluate_unit_requests(unit, measure):
            records[index] = (record, False)
        done += len(unit)
        if progress is not None:
            progress(done, len(points))
    table = assemble_table(spec, points, records)
    import json as _json

    return {
        "kind": "sweep",
        "version": CODEC_VERSION,
        "query": query.to_payload(),
        "result": _json.loads(table.to_json()),
    }
