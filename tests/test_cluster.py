"""Topology graphs, cluster presets, and the communication model."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.cluster import (
    INTER_NODE,
    NVLINK3,
    PCIE4,
    CommModel,
    LinkClass,
    Topology,
    Transfer,
    all_clusters,
    get_cluster,
    make_fc,
    make_pc,
    make_tacc,
    make_tc,
    ring_transfer_chain,
)
from repro.errors import ConfigError


class TestLinkClass:
    def test_alpha_beta(self):
        link = LinkClass("x", bandwidth=1e9, latency=1e-6)
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_negative_bytes(self):
        with pytest.raises(ConfigError):
            NVLINK3.transfer_time(-1)


class TestTopology:
    def test_direct_link_preferred(self):
        t = Topology("t", 3)
        t.add_link(0, 1, NVLINK3)
        t.add_link(1, 2, NVLINK3)
        t.add_link(0, 2, PCIE4)
        assert t.effective_link(0, 2).name == PCIE4.name

    def test_multihop_bottleneck(self):
        t = Topology("t", 3)
        t.add_link(0, 1, NVLINK3)
        t.add_link(1, 2, PCIE4)
        eff = t.effective_link(0, 2)
        assert eff.bandwidth == PCIE4.bandwidth
        assert eff.latency == pytest.approx(NVLINK3.latency + PCIE4.latency)

    def test_fastest_link_kept_on_duplicate(self):
        t = Topology("t", 2)
        t.add_link(0, 1, PCIE4)
        t.add_link(0, 1, NVLINK3)
        assert t.link_between(0, 1).name == NVLINK3.name

    def test_self_transfer_free(self):
        t = Topology("t", 2)
        t.add_link(0, 1, NVLINK3)
        assert t.transfer_time(1, 1, 1e6) == 0.0

    def test_self_link_rejected(self):
        t = Topology("t", 2)
        with pytest.raises(ConfigError):
            t.add_link(1, 1, NVLINK3)

    def test_out_of_range_link(self):
        t = Topology("t", 2)
        with pytest.raises(ConfigError):
            t.add_link(0, 5, NVLINK3)

    def test_disconnected_raises(self):
        t = Topology("t", 3)
        t.add_link(0, 1, NVLINK3)
        with pytest.raises(ConfigError, match="no route"):
            t.effective_link(0, 2)
        assert not t.is_connected()

    def test_rank_outside_topology_raises(self):
        t = Topology("t", 2)
        t.add_link(0, 1, NVLINK3)
        assert t.link_between(0, 5) is None
        with pytest.raises(ConfigError, match="no route.*outside 0..1"):
            t.effective_link(0, 5)

    def test_link_table(self):
        t = Topology("t", 4)
        t.add_link(2, 1, PCIE4)
        t.add_link(0, 1, NVLINK3)
        t.add_link(1, 2, NVLINK3)   # faster: replaces the PCIe link
        t.add_link(1, 0, PCIE4)     # slower: ignored
        assert t.links() == [(0, 1, NVLINK3), (1, 2, NVLINK3)]
        assert repr(t) == "Topology('t', devices=4, links=2)"
        assert not t.is_connected()
        t.add_link(3, 2, INTER_NODE)
        assert t.is_connected()
        assert Topology("one", 1).is_connected()


class TestPresets:
    @pytest.mark.parametrize("factory", [make_fc, make_pc, make_tacc, make_tc])
    def test_connected(self, factory):
        cluster = factory(8)
        assert cluster.topology.is_connected()
        assert cluster.num_devices == 8

    def test_fc_uniform_nvlink(self):
        fc = make_fc(8)
        for b in range(1, 8):
            assert fc.topology.link_between(0, b).name == NVLINK3.name

    def test_pc_pairs_faster_than_cross(self):
        pc = make_pc(8)
        paired = pc.topology.transfer_time(0, 1, 1e7)
        cross = pc.topology.transfer_time(0, 2, 1e7)
        assert paired < cross

    def test_pc_odd_devices_rejected(self):
        with pytest.raises(ConfigError):
            make_pc(7)

    def test_tacc_cross_node_slowest(self):
        tacc = make_tacc(6)  # 2 nodes of 3 GPUs
        intra = tacc.topology.transfer_time(0, 2, 1e7)
        inter = tacc.topology.transfer_time(2, 3, 1e7)
        assert inter > intra
        assert tacc.node_of(2) == 0 and tacc.node_of(3) == 1

    def test_ordering_across_clusters(self):
        """FC fastest; PC's unpaired hop slower; TACC's cross-node worst."""
        n = 1e7
        fc = make_fc(8).topology.transfer_time(3, 4, n)
        pc = make_pc(8).topology.transfer_time(3, 4, n)       # PCIe hop
        tacc = make_tacc(8).topology.transfer_time(2, 3, n)   # cross-node
        assert fc < pc < tacc

    def test_get_cluster_lookup(self):
        assert get_cluster("tacc", 8).name == "TACC"
        with pytest.raises(ConfigError, match="unknown cluster"):
            get_cluster("nope")

    def test_all_clusters_order(self):
        names = [c.name for c in all_clusters(8)]
        assert names == ["PC", "FC", "TACC", "TC"]


class TestCommModel:
    def test_uniform_mode(self):
        cm = CommModel.uniform(0.5)
        assert cm.transfer_time(Transfer(0, 5, 123456)) == 0.5
        assert cm.transfer_time(Transfer(2, 2, 99)) == 0.0

    def test_uniform_negative(self):
        with pytest.raises(ConfigError):
            CommModel.uniform(-0.1)

    def test_needs_some_model(self):
        with pytest.raises(ConfigError):
            CommModel()

    def test_topology_mode(self):
        cm = CommModel.from_cluster(make_fc(4))
        t = cm.transfer_time(Transfer(0, 1, 1e9))
        assert t == pytest.approx(NVLINK3.transfer_time(1e9))


class TestRingTransfer:
    def test_single_rank_free(self):
        topo = make_fc(4).topology
        assert ring_transfer_chain(topo, [0], 1e9) == 0.0

    def test_grows_with_ring_size(self):
        topo = make_fc(8).topology
        two = ring_transfer_chain(topo, [0, 1], 1e9)
        four = ring_transfer_chain(topo, [0, 1, 2, 3], 1e9)
        assert two < four


class TestNoNetworkx:
    """Routing is self-contained: nothing imports networkx."""

    @staticmethod
    def _run(script: str) -> str:
        env = {**os.environ,
               "PYTHONPATH": os.path.join(os.getcwd(), "src")}
        out = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return out.stdout

    def test_cli_import_leaves_networkx_unloaded(self):
        out = self._run("""
            import sys
            import repro.cli
            print("networkx" in sys.modules)
        """)
        assert out.split() == ["False"]

    def test_route_and_sweep_cell_with_networkx_blocked(self):
        out = self._run("""
            import sys
            sys.modules["networkx"] = None   # any import of it now fails
            import repro.cli
            from repro.cluster import NVLINK3, PCIE4, Cluster, Topology
            from repro.models import A100_80G, tiny_model
            from repro.sweep import SweepSpec, run_sweep

            # a 4-ring 0-2-1-3-0: pipeline neighbours 0->1 and 2->3 are
            # two hops apart
            topo = Topology("ring", 4)
            for a, b, link in [(0, 2, NVLINK3), (2, 1, PCIE4),
                               (1, 3, NVLINK3), (3, 0, PCIE4)]:
                topo.add_link(a, b, link)
            print(topo.effective_link(0, 1).name)
            cluster = Cluster("ring", A100_80G, topo, gpus_per_node=4)
            table = run_sweep(SweepSpec(
                schemes=("gpipe",), clusters=(cluster,),
                models=(tiny_model(),), layouts=((4, 1),),
                total_batches=(8,)))
            print(table.stats.describe())
            print([m for m in sys.modules
                   if m.split(".")[0] == "networkx"
                   and sys.modules[m] is not None])
        """)
        assert out.splitlines() == [
            "path(pcie4x2)",
            "1 cells: 1 computed, 0 cached, 0 infeasible",
            "[]",
        ]
