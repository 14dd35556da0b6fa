"""Cost oracles: what the simulator asks about op durations and transfers.

Two implementations cover the two experiment families:

* :class:`AbstractCosts` — the paper's symbolic ``T_F``/``T_B``/``T_C``
  model (Table 1).  Used for bubble-ratio figures where hardware is
  abstracted away.
* :class:`ConcreteCosts` — per-stage seconds from a model spec lowered
  onto a device (:func:`repro.models.stage_costs`) plus a topology-aware
  :class:`~repro.cluster.CommModel`.  Used for throughput figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.comm_model import CommModel
from ..config import CostConfig
from ..errors import ConfigError
from ..models.costs import StageCosts
from ..types import OpKind, ScheduleOp


class CostOracle:
    """Interface the simulator consumes."""

    def duration(self, op: ScheduleOp) -> float:
        raise NotImplementedError

    def transfer_time(self, src: int, dst: int, stage: int) -> float:
        """Seconds to move one boundary tensor (activation or gradient)."""
        raise NotImplementedError

    def link_latency(self, src: int, dst: int) -> float:
        """Launch latency of the link — the part one batched
        ``isend_irecv`` group pays once.  Zero for abstract models."""
        return 0.0

    def tensor_nbytes(self, stage: int) -> float:
        """Payload size of one boundary tensor, for program sizing and
        traces.  Abstract models have no byte notion (unit size)."""
        return 1.0

    def global_rank(self, device: int) -> int:
        """Cluster rank of a program-local device.

        Programs are compiled for one pipeline's workers ``0..P-1``;
        oracles that place the pipeline elsewhere in a cluster (rank
        blocks, TP spacing) override this so transfer times, link
        latencies and link contention resolve against *physical* ranks.
        """
        return device

    def collective_link_time(self, a: int, b: int, nbytes: float) -> float:
        """Seconds for one ring-step chunk between **global** ranks.

        Collective groups address cluster ranks directly (they span
        pipelines), so this bypasses the program-local view that
        :meth:`transfer_time` resolves.
        """
        raise ConfigError(
            f"{type(self).__name__} cannot time collectives "
            "(no topology route between global ranks)"
        )


@dataclass
class AbstractCosts(CostOracle):
    """Symbolic unit costs; durations follow Table 1 conventions.

    ``T_F`` is one device-worth of forward compute, so a single chunk
    stage costs ``T_F * P / S`` (each device holds ``S / P`` chunks).
    """

    costs: CostConfig
    num_devices: int
    num_stages: int

    def __post_init__(self) -> None:
        if self.num_stages % self.num_devices:
            raise ConfigError(
                f"S={self.num_stages} not divisible by P={self.num_devices}"
            )
        self._per_stage = self.num_devices / self.num_stages

    def duration(self, op: ScheduleOp) -> float:
        base = self.costs.t_f if op.kind is OpKind.FORWARD else self.costs.t_b
        return base * self._per_stage

    def transfer_time(self, src: int, dst: int, stage: int) -> float:
        return 0.0 if src == dst else self.costs.t_c

    def collective_link_time(self, a: int, b: int, nbytes: float) -> float:
        # Abstract comm is per-message: a ring chunk costs one t_c hop.
        return 0.0 if a == b else self.costs.t_c


@dataclass
class ConcreteCosts(CostOracle):
    """Seconds from a lowered model + a cluster communication model."""

    stage_costs: StageCosts
    comm: CommModel
    #: Chimera holds two replicas of every stage; duration lookups are
    #: by global stage index regardless of replica.

    def duration(self, op: ScheduleOp) -> float:
        table = (self.stage_costs.forward if op.kind is OpKind.FORWARD
                 else self.stage_costs.backward)
        if not (0 <= op.stage < len(table)):
            raise ConfigError(
                f"op stage {op.stage} outside cost table of {len(table)}"
            )
        return table[op.stage]

    def transfer_time(self, src: int, dst: int, stage: int) -> float:
        return self.comm.rank_transfer_time(
            self.global_rank(src), self.global_rank(dst),
            self.stage_costs.boundary_bytes,
        )

    def link_latency(self, src: int, dst: int) -> float:
        if src == dst or self.comm.topology is None:
            return 0.0
        return self.comm.topology.effective_link(
            self.global_rank(src), self.global_rank(dst)
        ).latency

    def tensor_nbytes(self, stage: int) -> float:
        return self.stage_costs.boundary_bytes

    def collective_link_time(self, a: int, b: int, nbytes: float) -> float:
        return self.comm.rank_transfer_time(a, b, nbytes)
