"""Tests for cluster construction and the paper's presets."""

import pytest

from repro.cluster import (
    Cluster,
    build_nodes,
    heterogeneity_preset,
    make_cluster,
    scaled_cluster,
    testbed_cluster as _testbed_cluster,
)
from repro.core import GPUModel
from repro.core.errors import ConfigurationError


class TestNodes:
    def test_build_nodes_packs(self):
        nodes = build_nodes(["V100"] * 6, gpus_per_node=4)
        assert [n.num_gpus for n in nodes] == [4, 2]

    def test_gpu_ids_dense_across_nodes(self):
        nodes = build_nodes(["V100", "T4", "K80", "M60", "V100"], gpus_per_node=2)
        ids = [g.gpu_id for n in nodes for g in n.gpus]
        assert ids == list(range(5))

    def test_invalid_gpus_per_node(self):
        with pytest.raises(ConfigurationError):
            build_nodes(["V100"], gpus_per_node=0)


class TestTestbed:
    def test_testbed_composition(self):
        """§7.1: 8 V100, 4 T4, 1 K80, 2 M60 = 15 GPUs on 4 nodes."""
        c = _testbed_cluster()
        counts = c.type_counts()
        assert c.num_gpus == 15
        assert counts[GPUModel.V100] == 8
        assert counts[GPUModel.T4] == 4
        assert counts[GPUModel.K80] == 1
        assert counts[GPUModel.M60] == 2
        assert len(c.nodes) == 4

    def test_labels_unique(self):
        labels = _testbed_cluster().labels()
        assert len(set(labels)) == 15

    def test_device_lookup(self):
        c = _testbed_cluster()
        for m in range(c.num_gpus):
            assert c.device(m).gpu_id == m
        with pytest.raises(ConfigurationError):
            c.device(15)


class TestScaledCluster:
    @pytest.mark.parametrize("n", [1, 15, 40, 160])
    def test_size(self, n):
        assert scaled_cluster(n).num_gpus == n

    def test_mix_proportions_preserved(self):
        c = scaled_cluster(150)  # 10 full testbed mixes
        counts = c.type_counts()
        assert counts[GPUModel.V100] == 80
        assert counts[GPUModel.K80] == 10

    def test_small_prefix_is_heterogeneous(self):
        assert len(scaled_cluster(8).type_counts()) >= 3

    def test_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            scaled_cluster(0)


class TestHeterogeneityPresets:
    def test_low_is_homogeneous(self):
        c = heterogeneity_preset("low", 16)
        assert len(c.type_counts()) == 1
        assert set(c.gpu_models()) == {GPUModel.V100}

    def test_mid_has_two_types(self):
        assert len(heterogeneity_preset("mid", 16).type_counts()) == 2

    def test_high_has_four_types(self):
        assert len(heterogeneity_preset("high", 16).type_counts()) == 4

    def test_unknown_level(self):
        with pytest.raises(ConfigurationError):
            heterogeneity_preset("extreme", 8)


class TestClusterInvariants:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(nodes=())

    def test_make_cluster_accepts_strings(self):
        c = make_cluster(["V100", "K80"])
        assert c.gpu_models() == [GPUModel.V100, GPUModel.K80]
