"""Tests for the PS synchronization time model."""

import pytest

from repro.cluster import NetworkConfig
from repro.core import GBPS
from repro.core.errors import ConfigurationError


class TestNetworkConfig:
    def test_default_is_25gbps(self):
        assert NetworkConfig().nic_bandwidth == pytest.approx(25 * GBPS)

    def test_with_bandwidth_gbps(self):
        net = NetworkConfig().with_bandwidth_gbps(10)
        assert net.nic_bandwidth == pytest.approx(10 * GBPS)
        # other knobs preserved
        assert net.ps_shards == NetworkConfig().ps_shards

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nic_bandwidth=0),
            dict(ps_shards=0),
            dict(duplex_factor=0),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises((ConfigurationError, ValueError)):
            NetworkConfig(**kwargs)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(latency_s=-1e-3)


class TestSyncTime:
    def test_zero_bytes_costs_latency_only(self):
        net = NetworkConfig(latency_s=0.002)
        assert net.sync_time(0.0, 15.75e9) == pytest.approx(0.002)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig().sync_time(-1.0, 15.75e9)

    def test_monotone_in_model_size(self):
        net = NetworkConfig()
        assert net.sync_time(2e9, 15.75e9) > net.sync_time(1e9, 15.75e9)

    def test_faster_network_is_faster(self):
        slow = NetworkConfig().with_bandwidth_gbps(10)
        fast = NetworkConfig().with_bandwidth_gbps(25)
        assert fast.sync_time(5e8, 15.75e9) < slow.sync_time(5e8, 15.75e9)

    def test_pcie_can_be_the_bottleneck(self):
        # Very fast network: PCIe limits the transfer.
        net = NetworkConfig(nic_bandwidth=1000 * GBPS, ps_shards=8, latency_s=0)
        t = net.sync_time(15.75e9, 15.75e9)
        assert t == pytest.approx(net.duplex_factor * 1.0)

    def test_sharding_multiplies_bandwidth(self):
        one = NetworkConfig(ps_shards=1, latency_s=0)
        four = NetworkConfig(ps_shards=4, latency_s=0)
        # Below the PCIe cap, 4 shards → 4x faster.
        assert one.sync_time(1e8, 1e12) == pytest.approx(
            4 * four.sync_time(1e8, 1e12)
        )

    def test_training_exceeds_sync_for_zoo_defaults(self):
        """§5.1's standing assumption holds for the calibrated defaults."""
        from repro.core.types import GPUModel, ModelName
        from repro.workload import batch_time, model_spec

        net = NetworkConfig()
        for name in ModelName:
            spec = model_spec(name)
            ts = net.sync_time(spec.model_bytes, 15.75e9)
            # On the slowest GPU the batch far exceeds sync; check V100 too.
            assert batch_time(name, GPUModel.K80) > ts
