"""Device interconnect topology.

A :class:`Topology` is an undirected graph of devices: a link table
mapping each rank to its neighbours, each edge carrying one
:class:`LinkClass` (NVLink generation, PCIe, inter-node fabric).
Communication cost between two ranks is resolved by the direct link
or, failing that, the bottleneck link on the bandwidth-shortest path —
a deliberate simplification of NCCL ring construction that preserves
the ordering the paper relies on: NVLink pairs ≫ PCIe ≫ cross-node.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from ..errors import ConfigError


@dataclass(frozen=True)
class LinkClass:
    """A class of interconnect with an alpha-beta cost model."""

    name: str
    bandwidth: float   # bytes / second, effective
    latency: float     # seconds per message

    def transfer_time(self, nbytes: float) -> float:
        if nbytes < 0:
            raise ConfigError(f"negative transfer size {nbytes}")
        return self.latency + nbytes / self.bandwidth


# Effective (not peak) bandwidths under training congestion; see
# DESIGN.md §6.  The inter-node figure reflects a shared, contended NIC
# per 3-GPU Lonestar6 node, not the fabric's line rate.
NVLINK3 = LinkClass("nvlink3", 200e9, 5e-6)
NVLINK2 = LinkClass("nvlink2", 100e9, 8e-6)
PCIE4 = LinkClass("pcie4", 6e9, 15e-6)
INTER_NODE = LinkClass("ib-shared", 1.5e9, 25e-6)
CLOUD_NET = LinkClass("cloud-vpc", 2.5e9, 30e-6)


class Topology:
    """Interconnect graph over ``num_devices`` ranks."""

    def __init__(self, name: str, num_devices: int):
        if num_devices < 1:
            raise ConfigError("num_devices must be >= 1")
        self.name = name
        self.num_devices = num_devices
        #: ``{a: {b: link}}``, symmetric; neighbours in declaration order
        self._adj: dict[int, dict[int, LinkClass]] = {
            rank: {} for rank in range(num_devices)
        }

    def add_link(self, a: int, b: int, link: LinkClass) -> None:
        if not (0 <= a < self.num_devices and 0 <= b < self.num_devices):
            raise ConfigError(f"link ({a},{b}) outside device range")
        if a == b:
            raise ConfigError("self links are implicit (zero cost)")
        existing = self._adj[a].get(b)
        # Keep the fastest link if several are declared between a pair;
        # a re-declared pair keeps its first declaration's position.
        if existing is None or existing.bandwidth < link.bandwidth:
            self._adj[a][b] = link
            self._adj[b][a] = link

    def link_between(self, a: int, b: int) -> LinkClass | None:
        """Direct link between two ranks, if any."""
        nbrs = self._adj.get(a)
        return None if nbrs is None else nbrs.get(b)

    def effective_link(self, a: int, b: int) -> LinkClass:
        """Link class governing a transfer from ``a`` to ``b``.

        Direct edge if present; otherwise the bottleneck (slowest) link
        along the bandwidth-shortest path, with per-hop latency summed.
        Same-rank transfers are free and must be filtered by callers.
        """
        if a == b:
            raise ConfigError("effective_link called for a self transfer")
        direct = self.link_between(a, b)
        if direct is not None:
            return direct
        for rank in (a, b):
            if rank not in self._adj:
                raise ConfigError(
                    f"{self.name}: no route between {a} and {b} (rank "
                    f"{rank} is outside 0..{self.num_devices - 1})"
                )
        path = self._shortest_path(a, b)
        links = [self._adj[u][v] for u, v in zip(path, path[1:])]
        bottleneck = min(links, key=lambda l: l.bandwidth)
        total_latency = sum(l.latency for l in links)
        return LinkClass(
            name=f"path({bottleneck.name}x{len(links)})",
            bandwidth=bottleneck.bandwidth,
            latency=total_latency,
        )

    def _shortest_path(self, source: int, target: int) -> list[int]:
        """Ranks on the path of least total ``1 / bandwidth``.

        Bidirectional Dijkstra, expanding the two searches alternately
        with one shared push counter as the heap tie-break, and
        stopping when a rank is settled from both sides.  Equal-weight
        paths are common (few link classes), and which one wins decides
        the route's name and latency sum, so that expansion order is
        part of the result: ``tests/golden/routes.json`` pins it pair
        by pair.
        """
        adj = self._adj
        dists: list[dict[int, float]] = [{}, {}]      # settled
        seen: list[dict[int, float]] = [{source: 0}, {target: 0}]
        preds: list[dict[int, int | None]] = [{source: None},
                                              {target: None}]
        c = count()
        fringe: list[list] = [[(0, next(c), source)],
                              [(0, next(c), target)]]
        finaldist: float | None = None
        meetnode = source
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heappop(fringe[direction])
            if v in dists[direction]:
                continue
            dists[direction][v] = dist
            if v in dists[1 - direction]:
                path, node = [], meetnode
                while node is not None:
                    path.append(node)
                    node = preds[0][node]
                path.reverse()
                node = preds[1][meetnode]
                while node is not None:
                    path.append(node)
                    node = preds[1][node]
                return path
            for w, link in adj[v].items():
                if w in dists[direction]:
                    continue
                length = dist + 1.0 / link.bandwidth
                if w not in seen[direction] or length < seen[direction][w]:
                    seen[direction][w] = length
                    heappush(fringe[direction], (length, next(c), w))
                    preds[direction][w] = v
                    if w in seen[1 - direction]:
                        total = length + seen[1 - direction][w]
                        if finaldist is None or finaldist > total:
                            finaldist, meetnode = total, w
        raise ConfigError(f"{self.name}: no route between {source} and "
                          f"{target}")

    def transfer_time(self, a: int, b: int, nbytes: float) -> float:
        if a == b:
            return 0.0
        return self.effective_link(a, b).transfer_time(nbytes)

    def links(self) -> list[tuple[int, int, LinkClass]]:
        """All declared links as sorted ``(low_rank, high_rank, link)``
        triples — a canonical, order-independent dump used by cache
        fingerprinting and debugging."""
        return sorted(
            (a, b, link)
            for a, nbrs in self._adj.items()
            for b, link in nbrs.items() if a < b
        )

    def is_connected(self) -> bool:
        reached = {0}
        frontier = [0]
        while frontier:
            rank = frontier.pop()
            for peer in self._adj[rank]:
                if peer not in reached:
                    reached.add(peer)
                    frontier.append(peer)
        return len(reached) == self.num_devices

    def __repr__(self) -> str:
        edges = sum(len(nbrs) for nbrs in self._adj.values()) // 2
        return (f"Topology({self.name!r}, devices={self.num_devices}, "
                f"links={edges})")


def ring_transfer_chain(topology: Topology, ranks: list[int], nbytes: float) -> float:
    """Time for a chain of P2P transfers along consecutive rank pairs.

    Used by the data-parallel all-reduce model: a ring all-reduce of
    ``nbytes`` over ``len(ranks)`` devices costs ``2*(n-1)/n * nbytes``
    over the slowest link in the ring.
    """
    n = len(ranks)
    if n < 2:
        return 0.0
    slowest = max(
        topology.effective_link(a, b).transfer_time(nbytes / n)
        for a, b in zip(ranks, ranks[1:] + ranks[:1])
    )
    return 2 * (n - 1) * slowest
