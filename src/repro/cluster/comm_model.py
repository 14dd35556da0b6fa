"""Communication-time model used by the discrete-event simulator.

Resolves a (source rank, destination rank, bytes) triple to seconds via
the cluster topology, or to one flat per-message cost.  The paper's
batched cross-communication (Sec. 4.2) — opposing transfers in one
``batch_isend_irecv`` sharing a single launch latency — is modeled by
the event core (:mod:`repro.runtime.events`) from these per-transfer
times and the oracle's ``link_latency``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .presets import Cluster
from .topology import Topology


@dataclass(frozen=True)
class Transfer:
    """One point-to-point message."""

    src: int
    dst: int
    nbytes: float

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ConfigError("negative transfer size")


class CommModel:
    """Transfer-time oracle over a topology.

    ``uniform_tc`` overrides the topology with a flat per-message cost —
    this is how abstract-cost experiments (Fig. 1 style, ``T_C``
    symbolics) run through the same simulator code path.
    """

    def __init__(self, topology: Topology | None = None,
                 uniform_tc: float | None = None):
        if topology is None and uniform_tc is None:
            raise ConfigError("CommModel needs a topology or a uniform cost")
        self.topology = topology
        self.uniform_tc = uniform_tc

    @classmethod
    def from_cluster(cls, cluster: Cluster) -> "CommModel":
        return cls(topology=cluster.topology)

    @classmethod
    def uniform(cls, t_c: float) -> "CommModel":
        if t_c < 0:
            raise ConfigError("t_c must be >= 0")
        return cls(uniform_tc=t_c)

    def transfer_time(self, transfer: Transfer) -> float:
        if transfer.src == transfer.dst:
            return 0.0
        if self.uniform_tc is not None:
            return self.uniform_tc
        assert self.topology is not None
        return self.topology.transfer_time(transfer.src, transfer.dst,
                                           transfer.nbytes)

    def rank_transfer_time(self, a: int, b: int, nbytes: float) -> float:
        """Transfer seconds between two cluster ranks.

        Cost oracles map program-local devices to cluster ranks before
        calling this; collective rings address cluster ranks directly.
        """
        if a == b:
            return 0.0
        if self.uniform_tc is not None:
            return self.uniform_tc
        assert self.topology is not None
        return self.topology.transfer_time(a, b, nbytes)
