"""End-to-end throughput measurement on a modeled cluster.

This is the harness behind Figs. 9–12: pick a scheme and a parallel
layout — ``TP`` tensor-parallel ranks per pipeline device, ``P``
pipeline devices, ``D`` data-parallel replicas — lower the model onto
the cluster's GPUs, compile the schedule **plus its collectives** into
one Program, simulate the iteration, gate it against GPU memory, and
convert the result into sequences/second.  A flat ``P x D`` layout is
the ``TP = 1`` point of the same harness: one request type
(:class:`ThroughputRequest`), one plan-cache key, one cost oracle and
one compile step serve every layout.

Gradient-sync overlap is **measured, not assumed**: the compiler
inserts a ring all-reduce after each stage's last backward
(:func:`repro.actions.with_gradient_sync`), the event core schedules
its ``2 * (D - 1)`` chunk steps against the same link model as the
pipeline P2P, and the iteration ends when both compute and the last
collective finish.  TP boundary all-reduces are compiled in the same
way as blocking rings (:func:`repro.actions.with_tp_sync`).  The
closed-form ring model (:func:`dp_allreduce_seconds`, plus
:func:`apply_tensor_parallel` with ``include_comm=True``) is retained
as an upper-bound cross-check and as the explicitly-named
``overlap="model"`` analytic fallback.

:func:`measure_throughput_batch` is the only measurement core; the
scalar :func:`measure_throughput` (and
:func:`repro.analysis.measure_hybrid_throughput`) are one-cell calls
into it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..actions.collectives import with_gradient_sync, with_tp_sync
from ..actions.lowering import ExecutablePlan
from ..actions.ops import CollectiveKind
from ..actions.program import Program, compile_program
from ..actions.resources import StageResources
from .. import profiling
from ..cluster.comm_model import CommModel
from ..cluster.presets import Cluster
from ..cluster.topology import ring_transfer_chain
from ..config import PipelineConfig, RunConfig
from ..errors import ConfigError
from ..models.costs import StageCosts, stage_costs
from ..models.spec import ModelSpec
from ..runtime.batched import execute_many
from ..runtime.costs import ConcreteCosts
from ..runtime.memory import static_memory
from ..runtime.metrics import bubble_stats
from ..runtime.simulator import SimResult, sim_result_from_events
from ..schedules.base import Schedule
from ..schedules.factory import build_schedule
from .plans import PlanEntry, plan_cache

#: gradient-sync fraction the *analytic* fallback assumes is hidden
#: under backward compute (bucketed all-reduce as in Megatron /
#: DeepSpeed).  Only ``overlap="model"`` reads this; the default
#: ``overlap="simulated"`` path measures the fraction from events.
ANALYTIC_DP_OVERLAP = 0.9

#: accepted values of the ``overlap`` knob
OVERLAP_MODES = ("simulated", "model")


@dataclass
class ThroughputResult:
    """One measured configuration."""

    config: PipelineConfig
    cluster_name: str
    model_name: str
    seq_per_s: float | None          # None ⇔ OOM
    bubble_ratio: float | None
    peak_mem_bytes: float | None
    iteration_s: float | None
    oom_device: int | None = None
    #: True when the static residency bytes alone exceeded capacity —
    #: the cell was rejected in O(P) without entering the event loop.
    #: OOM cells with ``False`` were aborted mid-simulation instead.
    statically_pruned: bool = False
    #: gradient-sync seconds the busiest device spends in ring steps
    #: (0 for D == 1)
    sync_s: float = 0.0
    #: gradient-sync seconds that extend the iteration past the compute
    #: makespan — the part pipeline bubbles could *not* hide
    sync_exposed_s: float = 0.0
    #: fraction of ``sync_s`` hidden under compute; None when there is
    #: no sync to hide (D == 1)
    sync_overlap: float | None = None
    #: closed-form ring upper bound (``dp_allreduce_seconds``), kept as
    #: a cross-check against the simulated ``sync_s``
    sync_model_s: float = 0.0
    #: "simulated" (overlap measured from events) or "model" (analytic
    #: ``ANALYTIC_DP_OVERLAP`` fallback)
    overlap_mode: str = "simulated"

    @property
    def oom(self) -> bool:
        return self.seq_per_s is None

    def describe(self) -> str:
        if self.oom:
            tag = "static" if self.statically_pruned else "runtime"
            return (f"{self.config.describe():40s} {self.cluster_name:5s} "
                    f"OOM (device {self.oom_device}, {tag})")
        text = (f"{self.config.describe():40s} {self.cluster_name:5s} "
                f"{self.seq_per_s:6.2f} seq/s  "
                f"bubble={self.bubble_ratio * 100:4.1f}%  "
                f"peak={self.peak_mem_bytes / 2**30:5.1f} GiB")
        if self.sync_overlap is not None:
            text += f"  sync-overlap={self.sync_overlap * 100:4.1f}%"
        return text


def static_oom_result(cfg: PipelineConfig, cluster: Cluster,
                      model: ModelSpec, schedule, costs,
                      capacity: int) -> ThroughputResult | None:
    """The O(P) static-memory pre-check, as a pruned result.

    Returns a ``statically_pruned`` OOM :class:`ThroughputResult` for
    the lowest device whose resident weights alone exceed ``capacity``,
    or ``None`` when every device's static footprint fits (the cell
    must then be simulated to get a verdict).
    """
    static = static_memory(schedule, costs)
    for device in sorted(static):
        if static[device] > capacity:
            return ThroughputResult(
                config=cfg, cluster_name=cluster.name,
                model_name=model.name, seq_per_s=None, bubble_ratio=None,
                peak_mem_bytes=static[device], iteration_s=None,
                oom_device=device, statically_pruned=True,
            )
    return None


def dp_rank_groups(cluster: Cluster, p: int, d: int,
                   spacing: int = 1) -> dict[int, tuple[int, ...]]:
    """Global-rank DP ring for every in-pipeline device.

    Device ``g`` of pipeline 0 sits at cluster rank ``g * spacing``
    (``spacing`` is the tensor-parallel degree in hybrid layouts) and
    reduces with its mirrors one pipeline block — ``p * spacing`` ranks
    — apart.  Raises :class:`~repro.errors.ConfigError` when any group
    member falls outside the cluster, instead of letting the rank leak
    surface later as a raw networkx routing error.
    """
    groups: dict[int, tuple[int, ...]] = {}
    for g in range(p):
        ranks = tuple(g * spacing + i * p * spacing for i in range(d))
        for rank in ranks:
            if rank >= cluster.num_devices:
                raise ConfigError(
                    f"DP group {list(ranks)} of pipeline device {g} "
                    f"references rank {rank}, but cluster "
                    f"{cluster.name} has {cluster.num_devices} devices "
                    f"(layout P={p} x D={d}"
                    + (f" x TP={spacing}" if spacing > 1 else "") + ")"
                )
        groups[g] = ranks
    return groups


def dp_allreduce_seconds(cluster: Cluster, p: int, d: int,
                         grad_bytes_per_device: float) -> float:
    """Closed-form ring all-reduce of one device's gradient shard.

    DP groups are the ranks ``{g, g+P, 2P+g, ...}``; the slowest group
    bounds the iteration.  Returns 0 for D == 1.  This is the analytic
    upper bound the simulated path cross-checks against (and the whole
    story under ``overlap="model"``).
    """
    if d <= 1:
        return 0.0
    if p * d > cluster.num_devices:
        raise ConfigError(
            f"DP layout P={p} x D={d} references rank {p * d - 1}, but "
            f"cluster {cluster.name} has {cluster.num_devices} devices"
        )
    worst = 0.0
    for g in range(p):
        ranks = [g + i * p for i in range(d)]
        worst = max(worst, ring_transfer_chain(
            cluster.topology, ranks, grad_bytes_per_device
        ))
    return worst


def stage_grad_bytes(costs: StageCosts) -> dict[int, float]:
    """fp32 gradient bytes per stage.

    ``weight_bytes`` bundles params+grads+optimizer at 16 B/param;
    the all-reduced gradients alone are 4 B/param.
    """
    return {s: w / 16.0 * 4.0 for s, w in enumerate(costs.weight_bytes)}


def tp_allreduce_seconds(cluster: Cluster, tp: int,
                         nbytes: float) -> float:
    """One tensor-parallel all-reduce over the first TP group's ranks."""
    if tp <= 1:
        return 0.0
    if tp > cluster.num_devices:
        raise ConfigError(
            f"TP group of {tp} ranks exceeds cluster {cluster.name} "
            f"of {cluster.num_devices} devices"
        )
    ranks = list(range(tp))
    return ring_transfer_chain(cluster.topology, ranks, nbytes)


def apply_tensor_parallel(
    costs: StageCosts,
    cluster: Cluster,
    model: ModelSpec,
    tp: int,
    microbatch_size: int,
    layers_per_stage: float,
    include_comm: bool = True,
) -> StageCosts:
    """Shard stage costs over a TP group.

    ``include_comm=True`` (the closed-form model) folds the boundary
    all-reduce seconds into every stage duration; the simulated path
    passes ``False`` and lets the compiled :class:`CollectiveOp`\\ s
    carry exactly those seconds instead — the parity the hybrid tests
    pin down.
    """
    if tp < 1:
        raise ConfigError("tensor-parallel degree must be >= 1")
    if tp == 1:
        return costs
    if tp > cluster.gpus_per_node:
        raise ConfigError(
            f"TP degree {tp} exceeds the node size "
            f"{cluster.gpus_per_node} (TP wants NVLink locality)"
        )
    per_stage_comm = 0.0
    if include_comm:
        ar = tp_allreduce_seconds(cluster, tp,
                                  model.boundary_bytes(microbatch_size))
        # 2 all-reduces per layer per pass; backward mirrors them.
        per_stage_comm = 2.0 * layers_per_stage * ar
    return StageCosts(
        forward=tuple(f / tp + per_stage_comm for f in costs.forward),
        backward=tuple(b / tp + per_stage_comm for b in costs.backward),
        boundary_bytes=costs.boundary_bytes,
        weight_bytes=tuple(w / tp for w in costs.weight_bytes),
        activation_bytes=tuple(a / tp for a in costs.activation_bytes),
    )


@dataclass(frozen=True)
class HybridLayout:
    """A full 3D layout: tensor x pipeline x data parallel."""

    tp: int
    p: int
    d: int

    @property
    def devices(self) -> int:
        return self.tp * self.p * self.d

    def describe(self) -> str:
        return f"TP={self.tp} x PP={self.p} x DP={self.d}"


def tp_rank_groups(cluster: Cluster, layout: HybridLayout
                   ) -> dict[int, tuple[int, ...]]:
    """Global-rank TP group for every in-pipeline device.

    Pipeline device ``g`` owns cluster ranks ``[g*tp, (g+1)*tp)`` —
    contiguous in-node ranks, the Megatron placement.  Raises
    :class:`~repro.errors.ConfigError` when the layout references
    ranks the topology does not have.
    """
    groups: dict[int, tuple[int, ...]] = {}
    for g in range(layout.p):
        ranks = tuple(g * layout.tp + j for j in range(layout.tp))
        if ranks and ranks[-1] >= cluster.num_devices:
            raise ConfigError(
                f"TP group {list(ranks)} of pipeline device {g} "
                f"references rank {ranks[-1]}, but cluster "
                f"{cluster.name} has {cluster.num_devices} devices "
                f"({layout.describe()})"
            )
        groups[g] = ranks
    return groups


class _SpacedCosts(ConcreteCosts):
    """Cost oracle of one pipeline inside a (TP, PP, DP) layout.

    Pipeline peers sit ``tp`` ranks apart in the cluster topology
    (rank = tp_rank + tp * pp_rank), so both pipeline transfers and the
    program-local → global rank mapping space by the TP degree — which
    is what routes DP/TP collective rings and link contention onto the
    *physical* ranks.  At ``tp = 1`` this is plain
    ``ConcreteCosts(costs, CommModel.from_cluster(cluster))``: pipeline
    0 owns ranks ``[0, P)``.
    """

    def __init__(self, stage_costs: StageCosts, cluster: Cluster,
                 tp: int) -> None:
        super().__init__(stage_costs,
                         CommModel(topology=cluster.topology))
        self._tp = tp

    def global_rank(self, device: int) -> int:
        return device * self._tp

    def transfer_time(self, src: int, dst: int, stage: int) -> float:
        if src == dst:
            return 0.0
        return self.comm.topology.transfer_time(
            self.global_rank(src), self.global_rank(dst),
            self.stage_costs.boundary_bytes,
        )

    def link_latency(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return self.comm.topology.effective_link(
            self.global_rank(src), self.global_rank(dst)
        ).latency


def compile_cluster_program(
    schedule: Schedule,
    cluster: Cluster,
    costs: StageCosts,
    d: int = 1,
    run: RunConfig | None = None,
    spacing: int = 1,
) -> Program:
    """Lower a schedule onto a cluster, gradient collectives included.

    The first half of the harness's compile step: compile the schedule
    with byte-accurate tensors and memory resources, then — for
    ``d > 1`` — insert the per-stage DP gradient rings over their
    concrete cluster rank groups (``spacing`` is the tensor-parallel
    degree of hybrid layouts).
    """
    run = run or RunConfig()
    program = compile_program(
        schedule,
        prefetch=run.prefetch,
        batch_cross_comm=run.batch_cross_comm,
        add_step=False,
        boundary_bytes=float(costs.boundary_bytes),
        resources=StageResources.from_stage_costs(costs),
    )
    if d > 1:
        groups = dp_rank_groups(cluster, schedule.num_devices, d,
                                spacing=spacing)
        program = with_gradient_sync(program, groups,
                                     stage_grad_bytes(costs))
    return program


def sync_accounting(result: SimResult) -> tuple[float, float, float | None]:
    """``(sync_s, exposed_s, overlap)`` measured from simulator events.

    ``sync_s`` is the busiest device's total gradient-ring seconds,
    ``exposed_s`` the iteration extension past ``result.busy_end`` (the
    end of compute plus blocking communication — trailing TP
    all-reduces are *busy* time, not sync exposure), and ``overlap``
    the hidden fraction ``1 - exposed / sync`` — the number the paper's
    Sec. 3.2 claim is about.
    """
    per_device: dict[int, float] = {}
    for c in result.collectives:
        if c.op.kind is CollectiveKind.GRAD_SYNC:
            per_device[c.device] = per_device.get(c.device, 0.0) + c.duration
    if not per_device:
        return 0.0, 0.0, None
    sync_s = max(per_device.values())
    exposed = max(0.0, result.sync_done() - result.busy_end)
    overlap = 1.0 - exposed / sync_s if sync_s > 0 else None
    return sync_s, exposed, overlap


def throughput_from_simulation(
    cfg: PipelineConfig,
    cluster: Cluster,
    model: ModelSpec,
    schedule: Schedule,
    costs: StageCosts,
    result: SimResult,
    *,
    ring_p: int,
    overlap: str,
) -> ThroughputResult:
    """Fold one simulated iteration into a :class:`ThroughputResult`.

    The harness's accounting tail — bubble stats, the closed-form ring
    cross-check over ``ring_p`` in-ring devices (``P * TP``), the
    simulated-vs-analytic overlap branch, and the iteration =
    ``busy_end + exposed sync`` conversion.
    """
    d = cfg.data_parallel
    stats = bubble_stats(result.timeline)
    mem = result.memory
    per_stage = stage_grad_bytes(costs)
    grad_bytes = max(
        sum(per_stage[stage]
            for stage, _r in schedule.placement.stages_on(dev))
        for dev in range(schedule.num_devices)
    )
    sync_model = dp_allreduce_seconds(cluster, ring_p, d, grad_bytes)
    if overlap == "simulated":
        sync_s, exposed, frac = sync_accounting(result)
    else:
        sync_s = sync_model
        exposed = sync_model * (1.0 - ANALYTIC_DP_OVERLAP)
        frac = ANALYTIC_DP_OVERLAP if d > 1 else None
    iteration = result.busy_end + exposed
    seqs = cfg.num_microbatches * cfg.microbatch_size * d
    return ThroughputResult(
        config=cfg,
        cluster_name=cluster.name,
        model_name=model.name,
        seq_per_s=seqs / iteration,
        bubble_ratio=stats.bubble_ratio,
        peak_mem_bytes=mem.highest_peak,
        iteration_s=iteration,
        sync_s=sync_s,
        sync_exposed_s=exposed,
        sync_overlap=frac,
        sync_model_s=sync_model,
        overlap_mode=overlap,
    )


@dataclass(frozen=True)
class ThroughputRequest:
    """One cell of a measurement: scheme, cluster, model and layout.

    Field-for-field the keyword surface of :func:`measure_throughput`
    plus the tensor-parallel degree ``tp`` — a flat ``P x D`` cell is
    ``tp = 1``.  A list of these is what :func:`measure_throughput_batch`
    groups by structural plan key and executes in lockstep.
    """

    scheme: str
    cluster: Cluster
    model: ModelSpec
    p: int
    num_microbatches: int
    d: int = 1
    w: int = 1
    microbatch_size: int = 1
    enforce_memory: bool = True
    overlap: str = "simulated"
    capacity_bytes: int | None = None
    #: arbitrate shared wires for this cell even when the batch-wide
    #: RunConfig leaves contention off (ORed with ``run.contention``)
    contention: bool = False
    #: tensor-parallel ranks per pipeline device (pipeline peers then
    #: sit ``tp`` cluster ranks apart)
    tp: int = 1

    def config(self) -> PipelineConfig:
        return PipelineConfig(
            scheme=self.scheme,
            num_devices=self.p,
            num_microbatches=self.num_microbatches,
            num_waves=self.w,
            data_parallel=self.d,
            microbatch_size=self.microbatch_size,
        )

    def capacity(self) -> int | None:
        """Bytes the cell is held to; ``None`` when memory is not enforced."""
        if not self.enforce_memory:
            return None
        return (self.cluster.device.memory_bytes
                if self.capacity_bytes is None else self.capacity_bytes)


def _request_error(req: ThroughputRequest) -> ConfigError | None:
    """The up-front verdict on a cell whose knobs cannot be measured."""
    if req.overlap not in OVERLAP_MODES:
        return ConfigError(
            f"unknown overlap mode {req.overlap!r}; expected one of "
            f"{OVERLAP_MODES}"
        )
    devices = req.cluster.num_devices
    if req.tp * req.p * req.d <= devices:
        return None
    if req.tp == 1:
        return ConfigError(
            f"layout P={req.p} x D={req.d} exceeds cluster of {devices}")
    layout = HybridLayout(req.tp, req.p, req.d)
    return ConfigError(
        f"{layout.describe()} needs {layout.devices} devices; "
        f"cluster has {devices}")


def _plan_key(req: ThroughputRequest, run: RunConfig) -> tuple:
    """The structural plan-cache key of one cell.

    Everything the compiled program + lowered plan depend on; the
    cluster and the capacity knob are deliberately absent — devices,
    links and enforcement are per-call concerns resolved at re-time /
    execute, never compiled into the plan (see :mod:`.plans`).
    ``collectives`` says whether DP/TP rings are compiled in (simulated
    overlap with ``D > 1`` or ``TP > 1``).  Cells with equal keys are
    the lanes the batch stacks.
    """
    collectives = req.overlap == "simulated" and (req.d > 1 or req.tp > 1)
    return (req.scheme, req.tp, req.p, req.d, req.num_microbatches,
            req.microbatch_size, req.w, collectives, run.prefetch,
            run.batch_cross_comm, req.model)


def _layers_per_stage(model: ModelSpec, schedule: Schedule) -> float:
    return (model.num_layers + 2) / schedule.num_stages


def _lane_costs(req: ThroughputRequest,
                schedule: Schedule) -> StageCosts | ConfigError:
    """Per-stage costs of one lane, TP-sharded; a rejection is returned."""
    try:
        base = stage_costs(req.model, schedule.num_stages,
                           req.cluster.device, req.microbatch_size)
        return apply_tensor_parallel(
            base, req.cluster, req.model, req.tp, req.microbatch_size,
            _layers_per_stage(req.model, schedule),
            include_comm=req.overlap != "simulated")
    except ConfigError as exc:
        return exc


def _compile(req: ThroughputRequest, schedule: Schedule,
             costs: StageCosts, run: RunConfig) -> PlanEntry:
    """The one compile step: schedule → cluster program (+ DP rings) →
    TP boundary all-reduces when ``tp > 1`` → lowered plan.

    Under ``overlap="model"`` the program stays collective-free (sync
    is charged in closed form by :func:`throughput_from_simulation`).
    """
    simulated = req.overlap == "simulated"
    program = compile_cluster_program(
        schedule, req.cluster, costs, d=req.d if simulated else 1,
        run=run, spacing=req.tp)
    if simulated and req.tp > 1:
        program = with_tp_sync(
            program,
            tp_rank_groups(req.cluster, HybridLayout(req.tp, req.p, req.d)),
            nbytes=req.model.boundary_bytes(req.microbatch_size),
            count_per_pass=2.0 * _layers_per_stage(req.model, schedule),
        )
    return PlanEntry(schedule, program, ExecutablePlan.lower(program))


def _bind(entry: PlanEntry, req: ThroughputRequest,
          costs: StageCosts) -> ExecutablePlan:
    """The entry's plan re-timed for one lane (the TP degree is part of
    the entry's key, so cluster + costs pin the oracle)."""
    return entry.bound_plan(
        (req.cluster, costs),
        lambda: _SpacedCosts(costs, req.cluster, req.tp))


@dataclass
class HybridCell:
    """One compiled cell, ready to simulate.

    ``plan`` is the lowered + cost-bound execution plan of ``program``
    (shared through the analysis plan cache across cost-only axes);
    pass both to :func:`~repro.runtime.simulate_program`.
    """

    cfg: PipelineConfig
    schedule: Schedule
    costs: StageCosts
    program: Program
    oracle: ConcreteCosts
    plan: ExecutablePlan


def build_hybrid_simulation(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    layout: HybridLayout,
    num_microbatches: int,
    w: int = 1,
    microbatch_size: int = 1,
    run: RunConfig | None = None,
    simulated: bool = True,
) -> HybridCell:
    """Compile one (TP, PP, DP) cell into a :class:`HybridCell`.

    ``repro trace --cluster`` uses this to time a single cell with full
    detail: the same validation, plan-cache key, compile step and cost
    binding as :func:`measure_throughput_batch`.  ``simulated=True``
    compiles TP boundary and DP gradient collectives into the program
    (comm excluded from stage durations); ``simulated=False`` folds TP
    comm into durations and leaves the program collective-free (the
    closed-form model).
    """
    run = run or RunConfig()
    req = ThroughputRequest(
        scheme=scheme, cluster=cluster, model=model, p=layout.p,
        num_microbatches=num_microbatches, d=layout.d, w=w,
        microbatch_size=microbatch_size,
        overlap="simulated" if simulated else "model", tp=layout.tp,
    )
    error = _request_error(req)
    if error is not None:
        raise error
    cfg = req.config()
    plans = plan_cache()
    key = _plan_key(req, run)
    entry = plans.get(key)
    with profiling.phase("build"):
        schedule = entry.schedule if entry is not None else \
            build_schedule(cfg)
        costs = _lane_costs(req, schedule)
        if isinstance(costs, ConfigError):
            raise costs
    with profiling.phase("lower"):
        if entry is None:
            entry = plans.put(key, _compile(req, schedule, costs, run))
        plan = _bind(entry, req, costs)
    return HybridCell(cfg=cfg, schedule=schedule, costs=costs,
                      program=entry.program, oracle=plan.costs, plan=plan)


def measure_throughput_batch(
    requests: list[ThroughputRequest],
    run: RunConfig | None = None,
) -> list[ThroughputResult | ConfigError]:
    """Measure many cells at once, batching structure-sharing lanes.

    The measurement core every entry point goes through.  Outcomes are
    returned in request order; a cell that cannot be measured raises
    nothing here — its :class:`~repro.errors.ConfigError` is returned
    *as the outcome* so one infeasible cell cannot abort the batch (the
    sweep engine turns it into an infeasible record; the scalar
    wrappers raise it).

    Cells sharing a plan key share one schedule build and one
    compile/lower (through the plan cache); *all* groups' lanes then go
    through a single :func:`repro.runtime.batched.execute_many` call
    per contention mode, which re-groups them by control-flow
    congruence — so cells of *different* plan keys whose structures
    agree (e.g. two models on one layout) still stack into one lockstep
    batch.  Per lane the only remaining work is the cost re-time, the
    lazy duration fill and the lean result fold.  A lone lane runs
    through the scalar event core (recorded as a ``singleton``
    fallback); its result is bit-identical either way.

    Memory is enforced *live*: statically-infeasible cells (weights +
    grads + optimizer alone exceed capacity) are rejected in O(P)
    before any simulation, and all other OOM cells abort the event loop
    at a violating allocation.
    """
    run = run or RunConfig()
    outcomes: list[ThroughputResult | ConfigError | None] = \
        [None] * len(requests)
    groups: dict[tuple, list[int]] = {}
    for i, req in enumerate(requests):
        outcomes[i] = _request_error(req)
        if outcomes[i] is None:
            groups.setdefault(_plan_key(req, run), []).append(i)

    plans = plan_cache()
    #: items for the global execute_many calls, partitioned by the
    #: lane's effective contention mode (plan structure is shared, the
    #: event core is not)
    items_by: dict[bool, list[tuple]] = {False: [], True: []}
    #: per-group fold context: (entry, cfg, lane_ids, live positions,
    #: lane_costs, per-lane (contention, index) slots)
    pending: list[tuple] = []
    for key, lane_ids in groups.items():
        head = requests[lane_ids[0]]
        label = (f"{head.scheme}/{head.model.name} TP{head.tp} P{head.p} "
                 f"D{head.d} W{head.w} B{head.num_microbatches}"
                 f"x{head.microbatch_size} [{len(lane_ids)} lanes]")
        with profiling.cell(label):
            entry = plans.get(key)
            with profiling.phase("build"):
                try:
                    # every structural field config() reads is part of
                    # the group key
                    cfg = head.config()
                    schedule = entry.schedule if entry is not None else \
                        build_schedule(cfg)
                except ConfigError as exc:
                    # structural rejection: the verdict (and message)
                    # is identical for every lane of the group
                    for i in lane_ids:
                        outcomes[i] = exc
                    continue
                lane_costs = [_lane_costs(requests[i], schedule)
                              for i in lane_ids]
            live: list[int] = []     # positions into lane_ids
            for pos, i in enumerate(lane_ids):
                req, costs = requests[i], lane_costs[pos]
                if isinstance(costs, ConfigError):
                    # per lane: e.g. TP degree vs *this* cluster's node
                    outcomes[i] = costs
                    continue
                capacity = req.capacity()
                if capacity is not None:
                    outcomes[i] = static_oom_result(
                        cfg, req.cluster, req.model, schedule, costs,
                        capacity)
                if outcomes[i] is None:
                    live.append(pos)
            if not live:
                continue
            with profiling.phase("lower"):
                if entry is None:
                    pos = live[0]
                    entry = plans.put(key, _compile(
                        requests[lane_ids[pos]], schedule, lane_costs[pos],
                        run))
                slots: list[tuple[bool, int]] = []
                for pos in live:
                    req = requests[lane_ids[pos]]
                    mode = run.contention or req.contention
                    slots.append((mode, len(items_by[mode])))
                    items_by[mode].append(
                        (_bind(entry, req, lane_costs[pos]), req.capacity()))
            pending.append((entry, cfg, lane_ids, live, lane_costs, slots))

    batches: dict[bool, object] = {}
    n_lanes = len(items_by[False]) + len(items_by[True])
    if n_lanes:
        with profiling.cell(f"simulate [{n_lanes} lanes]"):
            with profiling.phase("simulate"):
                for mode, items in items_by.items():
                    if items:
                        mode_run = run if mode == run.contention else \
                            replace(run, contention=mode)
                        batches[mode] = execute_many(items, mode_run,
                                                     detail="lean")
    for entry, cfg, lane_ids, live, lane_costs, slots in pending:
        for pos, (mode, idx) in zip(live, slots):
            i = lane_ids[pos]
            req = requests[i]
            batch = batches[mode]
            err = batch.errors[idx]
            if err is not None:
                outcomes[i] = ThroughputResult(
                    config=cfg, cluster_name=req.cluster.name,
                    model_name=req.model.name, seq_per_s=None,
                    bubble_ratio=None,
                    peak_mem_bytes=float(err.peak_bytes),
                    iteration_s=None, oom_device=err.device,
                )
                continue
            sim = sim_result_from_events(entry.program,
                                         batch.results[idx],
                                         schedule=entry.schedule)
            outcomes[i] = throughput_from_simulation(
                cfg, req.cluster, req.model, entry.schedule,
                lane_costs[pos], sim, ring_p=req.p * req.tp,
                overlap=req.overlap)
    return outcomes


def measure_request(request: ThroughputRequest,
                    run: RunConfig | None = None) -> ThroughputResult:
    """One cell through :func:`measure_throughput_batch`; a rejected
    cell raises its :class:`~repro.errors.ConfigError`."""
    (outcome,) = measure_throughput_batch([request], run)
    if isinstance(outcome, ConfigError):
        raise outcome
    return outcome


def measure_throughput(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    p: int,
    num_microbatches: int,
    d: int = 1,
    w: int = 1,
    microbatch_size: int = 1,
    run: RunConfig | None = None,
    enforce_memory: bool = True,
    overlap: str = "simulated",
    capacity_bytes: int | None = None,
) -> ThroughputResult:
    """Simulate one flat ``P x D`` configuration (or report its OOM).

    ``overlap`` selects how data-parallel gradient synchronisation is
    charged.  ``"simulated"`` (the default) compiles the per-stage ring
    all-reduces into the program and lets the event core measure how
    much of them pipeline bubbles hide; ``"model"`` is the analytic
    fallback — closed-form ring time discounted by the assumed
    :data:`ANALYTIC_DP_OVERLAP` fraction — kept for cross-checks and
    for comparison with the paper's own estimates.  ``capacity_bytes``
    overrides the cluster device's memory (a ``--capacity-gib``
    what-if).  A one-cell call into :func:`measure_throughput_batch`.
    """
    return measure_request(ThroughputRequest(
        scheme=scheme, cluster=cluster, model=model, p=p,
        num_microbatches=num_microbatches, d=d, w=w,
        microbatch_size=microbatch_size, enforce_memory=enforce_memory,
        overlap=overlap, capacity_bytes=capacity_bytes,
    ), run)
