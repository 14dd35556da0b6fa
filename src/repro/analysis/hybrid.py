"""Hybrid tensor × pipeline × data parallelism (paper Secs. 1 and 6).

The paper positions pipeline parallelism inside the standard Megatron
recipe: tensor parallelism *within* a node (cheap collectives over
NVLink), pipeline parallelism *across* nodes (cheap P2P), data
parallelism on top.  The tensor-parallel degree is a field of the one
throughput harness (:class:`~repro.analysis.ThroughputRequest` ``tp``),
so this module only adds the (TP, PP, DP) vocabulary on top of it: the
one-cell :func:`measure_hybrid_throughput` call and the factorization
search :func:`hybrid_search`.

Both communication dimensions are *compiled into the program*: TP
boundary all-reduces become blocking ring collectives after every
compute action (:func:`repro.actions.with_tp_sync`, two per layer per
pass) and DP gradient syncs become asynchronous per-stage rings
(:func:`repro.actions.with_gradient_sync`).  The closed-form model
(:func:`apply_tensor_parallel` with ``include_comm=True``, plus
:func:`~repro.analysis.dp_allreduce_seconds`) is retained as the
analytic cross-check and the ``overlap="model"`` fallback.
"""

from __future__ import annotations

from ..cluster.presets import Cluster
from ..config import RunConfig
from ..errors import ConfigError
from ..models.spec import ModelSpec
from .throughput import (
    HybridCell,
    HybridLayout,
    ThroughputRequest,
    ThroughputResult,
    apply_tensor_parallel,
    build_hybrid_simulation,
    measure_request,
    measure_throughput_batch,
    tp_allreduce_seconds,
    tp_rank_groups,
)

__all__ = [
    "HybridCell",
    "HybridLayout",
    "apply_tensor_parallel",
    "build_hybrid_simulation",
    "hybrid_search",
    "measure_hybrid_throughput",
    "measure_hybrid_throughput_batch",
    "tp_allreduce_seconds",
    "tp_rank_groups",
]

#: the batch entry point under its (TP, PP, DP) name — the one core
measure_hybrid_throughput_batch = measure_throughput_batch


def measure_hybrid_throughput(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    layout: HybridLayout,
    num_microbatches: int,
    w: int = 1,
    microbatch_size: int = 1,
    run: RunConfig | None = None,
    overlap: str = "simulated",
    enforce_memory: bool = True,
    capacity_bytes: int | None = None,
) -> ThroughputResult:
    """Throughput of one (TP, PP, DP) layout on a cluster.

    TP groups occupy contiguous in-node ranks; the pipeline's P2P hops
    then connect *node-distance* peers, which is modeled by spacing
    pipeline ranks ``tp`` apart in the cluster topology.  Under the
    default ``overlap="simulated"`` both the TP boundary all-reduces
    and the DP gradient rings are compiled into the program and timed
    by the event core; ``overlap="model"`` keeps the closed-form
    folding + :data:`~repro.analysis.ANALYTIC_DP_OVERLAP` discount.
    A one-cell call into :func:`~repro.analysis.measure_throughput_batch`.
    """
    return measure_request(ThroughputRequest(
        scheme=scheme, cluster=cluster, model=model, p=layout.p,
        num_microbatches=num_microbatches, d=layout.d, w=w,
        microbatch_size=microbatch_size, enforce_memory=enforce_memory,
        overlap=overlap, capacity_bytes=capacity_bytes, tp=layout.tp,
    ), run)


def hybrid_search(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    total_batch: int,
    waves: tuple[int, ...] = (1, 2, 4),
    overlap: str = "simulated",
) -> list[tuple[HybridLayout, int, ThroughputResult]]:
    """Sweep (TP, PP, DP) factorizations of the cluster's device count."""
    n = cluster.num_devices
    out = []
    tp = 1
    while tp <= cluster.gpus_per_node:
        rest = n // tp
        p = rest
        while p >= 2:
            d = rest // p
            if tp * p * d == n:
                b = max(1, min(total_batch // d, p))
                mb = max(1, (total_batch // d) // b)
                wave_opts = (waves if scheme == "hanayo" else (1,))
                for w in wave_opts:
                    if 2 * w * p > model.num_layers + 2:
                        continue
                    try:
                        r = measure_hybrid_throughput(
                            scheme, cluster, model,
                            HybridLayout(tp, p, d), b, w=w,
                            microbatch_size=mb, overlap=overlap,
                        )
                    except ConfigError:
                        continue
                    out.append((HybridLayout(tp, p, d), w, r))
            p //= 2
        tp *= 2
    return out
