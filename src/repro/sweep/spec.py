"""Declarative sweep specifications.

A :class:`SweepSpec` names a full cartesian grid of throughput
measurements — schemes × clusters × models × (P, D) layouts × total
batch sizes, with the wave dimension searched automatically for Hanayo
— and :meth:`SweepSpec.expand` lowers it to concrete
:class:`SweepPoint`\\ s, one measured cell each.

The expansion owns the Sec. 5.3 **fairness rule**: every grid cell must
process exactly the same number of sequences so throughputs are
comparable.  :func:`split_batch` therefore rejects layouts whose
data-parallel degree does not divide the total batch, and rebalances
the micro-batch count to an exact divisor of the per-pipeline batch
instead of silently dropping remainder sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.throughput import OVERLAP_MODES
from ..cluster.presets import Cluster
from ..config import KNOWN_SCHEMES
from ..errors import ConfigError
from ..models.spec import ModelSpec

#: wave counts the paper explores (H-2 / H-4 / H-8 in Fig. 9)
DEFAULT_WAVES = (1, 2, 4, 8)

#: schemes that run micro-batches in two directions and therefore need
#: an even micro-batch count
BIDIRECTIONAL_SCHEMES = ("chimera", "chimera-wave", "gems")


def feasible_waves(model: ModelSpec, p: int,
                   waves: tuple[int, ...] = DEFAULT_WAVES) -> list[int]:
    """Wave counts with at least one layer per stage.

    >>> from repro.models import bert_64
    >>> feasible_waves(bert_64(), 8)     # W=8 would need 128 stages
    [1, 2, 4]
    """
    total_layers = model.num_layers + 2  # embedding + head
    return [w for w in waves if 2 * w * p <= total_layers]


def split_batch(total_batch: int, d: int, p: int, scheme: str,
                target_microbatches: int | None = None) -> tuple[int, int] | None:
    """(num_microbatches, microbatch_size) for one pipeline shard.

    Enforces the Sec. 5.3 fairness rule: a cell is only valid when its
    ``D`` pipelines can each process exactly ``total_batch / D``
    sequences, split into micro-batches with **no remainder** — so
    every searched cell does identical work and throughputs compare.

    Returns ``None`` when the layout cannot host the batch fairly:
    ``D`` does not divide the total batch, there are fewer sequences
    than pipelines, or a bidirectional scheme cannot get an even
    micro-batch count.

    The micro-batch count ``b`` is the largest divisor of the
    per-pipeline batch that does not exceed the target (``P`` by
    default, the paper's ``B = P`` regime), rather than a blunt
    ``min(per_pipeline, target)`` that could drop sequences:

    >>> split_batch(16, 2, 4, "dapple")      # 8 per pipeline, B = P
    (4, 2)
    >>> split_batch(48, 2, 4, "dapple", target_microbatches=16)
    (12, 2)
    >>> split_batch(1, 2, 4, "dapple") is None   # fewer seqs than shards
    True
    >>> split_batch(10, 4, 4, "dapple") is None  # 4 does not divide 10
    True
    >>> split_batch(6, 2, 4, "chimera") is None  # odd per-pipeline batch
    True
    >>> split_batch(12, 2, 4, "chimera")         # even split exists
    (2, 3)
    """
    if d < 1 or total_batch < d or total_batch % d:
        return None
    per_pipeline = total_batch // d
    target = target_microbatches if target_microbatches else p
    need_even = scheme in BIDIRECTIONAL_SCHEMES
    for b in range(min(per_pipeline, target), 0, -1):
        if per_pipeline % b:
            continue
        if need_even and b % 2:
            continue
        return b, per_pipeline // b
    return None


@dataclass(frozen=True)
class SweepPoint:
    """One concrete measurement: a cell of the expanded sweep grid.

    ``cluster_index`` / ``model_index`` refer back into the owning
    spec's tuples, keeping points small and hashable.
    """

    scheme: str
    cluster_index: int
    model_index: int
    p: int
    d: int
    w: int
    num_microbatches: int
    microbatch_size: int
    total_batch: int
    tp: int = 1


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of throughput measurements.

    Attributes
    ----------
    schemes:
        Pipeline schemes to evaluate (see ``repro.config.KNOWN_SCHEMES``).
    clusters:
        :class:`~repro.cluster.presets.Cluster` objects to evaluate on.
    models:
        :class:`~repro.models.spec.ModelSpec` objects to evaluate.
    layouts:
        ``(P, D)`` pairs — pipeline depth × data-parallel width — or
        ``(P, D, TP)`` triples that pin a cell to one tensor-parallel
        degree.  Pairs are crossed with every ``tensor_parallel``
        degree; triples are not (the CLI's ``--dp``/``--tp`` layout
        derivation uses triples so each degree gets exactly the
        pipeline depth that fills the cluster).
    total_batches:
        Total sequences per iteration for the whole job; each layout
        splits a total batch per the Sec. 5.3 fairness rule.
    waves:
        Wave counts searched for Hanayo (other schemes run ``W = 1``).
    tensor_parallel:
        Tensor-parallel degrees to cross with every layout (default:
        TP = 1 only).  Cells with TP > 1 run through the hybrid
        harness; layouts whose ``TP * P * D`` exceeds a cluster, or
        whose TP degree exceeds the node size, are skipped (or raise,
        per ``skip_oversized``).
    target_microbatches:
        Preferred micro-batch count per pipeline (default: ``P``).
    overlap / enforce_memory / capacity_bytes:
        Forwarded to ``measure_throughput``.  ``overlap`` selects how
        gradient-sync time is charged: ``"simulated"`` (measured from
        compiled collectives by the event core) or ``"model"`` (the
        analytic closed-form fallback).  ``capacity_bytes`` overrides
        each cluster device's memory for capacity what-ifs (the
        ``repro sweep --capacity-gib`` knob); ``None`` uses the
        device's own capacity.
    contention:
        Arbitrate shared links during simulation (the ``repro sweep
        --contention`` knob).  Contended cells still batch: lanes whose
        wire grants leave structural order go through the time-ordered
        vector replay instead of falling back scalar.
    skip_oversized:
        When true (the default), layouts that do not fit a cluster are
        silently dropped — useful for one spec spanning clusters of
        different sizes.  When false, :meth:`expand` raises
        :class:`~repro.errors.ConfigError` instead.

    >>> from repro.cluster import make_fc
    >>> from repro.models import tiny_model
    >>> spec = SweepSpec(schemes=("gpipe", "hanayo"),
    ...                  clusters=(make_fc(4),),
    ...                  models=(tiny_model(num_layers=16),),
    ...                  layouts=((4, 1),), total_batches=(8,),
    ...                  waves=(1, 2))
    >>> points = spec.expand()
    >>> [(pt.scheme, pt.w) for pt in points]   # waves searched for Hanayo
    [('gpipe', 1), ('hanayo', 1), ('hanayo', 2)]
    >>> points[0].num_microbatches, points[0].microbatch_size
    (4, 2)
    """

    schemes: tuple[str, ...]
    clusters: tuple[Cluster, ...]
    models: tuple[ModelSpec, ...]
    layouts: tuple[tuple[int, int], ...]
    total_batches: tuple[int, ...]
    waves: tuple[int, ...] = DEFAULT_WAVES
    tensor_parallel: tuple[int, ...] = (1,)
    target_microbatches: int | None = None
    overlap: str = "simulated"
    enforce_memory: bool = True
    capacity_bytes: int | None = None
    contention: bool = False
    skip_oversized: bool = True

    def __post_init__(self) -> None:
        for name in ("schemes", "clusters", "models", "layouts",
                     "total_batches", "waves", "tensor_parallel"):
            if not getattr(self, name):
                raise ConfigError(f"sweep spec has empty {name}")
        for scheme in self.schemes:
            if scheme not in KNOWN_SCHEMES:
                raise ConfigError(
                    f"unknown scheme {scheme!r}; expected one of {KNOWN_SCHEMES}"
                )
        for layout in self.layouts:
            if (len(layout) not in (2, 3) or any(v < 1 for v in layout)):
                raise ConfigError(
                    f"bad layout {layout!r}; want (P, D) or (P, D, TP) >= 1"
                )
        for tp in self.tensor_parallel:
            if tp < 1:
                raise ConfigError(f"tensor-parallel degree {tp} must be >= 1")
        if self.overlap not in OVERLAP_MODES:
            raise ConfigError(
                f"unknown overlap mode {self.overlap!r}; expected one of "
                f"{OVERLAP_MODES}"
            )
        if self.capacity_bytes is not None and self.capacity_bytes < 1:
            raise ConfigError("capacity_bytes must be >= 1 (or None)")

    @property
    def grid_size(self) -> int:
        """Upper bound on the cell count before feasibility filtering."""
        return (len(self.schemes) * len(self.clusters) * len(self.models)
                * len(self.layouts) * len(self.total_batches)
                * len(self.tensor_parallel) * max(len(self.waves), 1))

    def expand(self) -> list[SweepPoint]:
        """Lower the grid to feasible :class:`SweepPoint` s, in a
        deterministic order (clusters, models, schemes, batches,
        layouts, TP degrees, waves — slowest to fastest)."""
        points: list[SweepPoint] = []
        for ci, cluster in enumerate(self.clusters):
            for mi, model in enumerate(self.models):
                for scheme in self.schemes:
                    for total_batch in self.total_batches:
                        for layout in self.layouts:
                            p, d = layout[0], layout[1]
                            tp_options = (
                                (layout[2],) if len(layout) == 3
                                else self.tensor_parallel
                            )
                            for tp in tp_options:
                                points.extend(self._expand_cell(
                                    ci, cluster, mi, model, scheme,
                                    total_batch, p, d, tp,
                                ))
        return points

    def _expand_cell(self, ci, cluster, mi, model, scheme,
                     total_batch, p, d, tp) -> list[SweepPoint]:
        if tp * p * d > cluster.num_devices or tp > cluster.gpus_per_node:
            if self.skip_oversized or tp > 1:
                # TP degrees are a crossed axis: a degree that does not
                # fit one layout may fit the next, so oversized hybrid
                # cells are always dropped rather than fatal.
                return []
            raise ConfigError(
                f"layout ({p},{d}) exceeds cluster {cluster.name}"
            )
        shape = split_batch(total_batch, d, p, scheme,
                            self.target_microbatches)
        if shape is None:
            return []
        b, mb_size = shape
        wave_options = (feasible_waves(model, p, self.waves)
                        if scheme == "hanayo" else [1])
        return [
            SweepPoint(
                scheme=scheme, cluster_index=ci, model_index=mi,
                p=p, d=d, w=w, num_microbatches=b,
                microbatch_size=mb_size, total_batch=total_batch,
                tp=tp,
            )
            for w in wave_options
        ]

    def describe(self) -> str:
        return (f"sweep[{'/'.join(self.schemes)} on "
                f"{'/'.join(c.name for c in self.clusters)} x "
                f"{'/'.join(m.name for m in self.models)}; "
                f"{len(self.layouts)} layouts, "
                f"batches {'/'.join(map(str, self.total_batches))}]")
