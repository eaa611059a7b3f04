"""Tests for the PS / All-Reduce aggregation substrates."""

import pytest

from repro.cluster import NetworkConfig
from repro.core.errors import ConfigurationError
from repro.sync import ps_round_sync_time, ring_allreduce_time

NET = NetworkConfig(ps_shards=4)
MB400 = 4e8


class TestCostModels:
    def test_single_worker_free_for_collectives(self):
        assert ring_allreduce_time(MB400, 1, NET) == 0.0

    def test_ring_bandwidth_term_saturates(self):
        """Ring transfer time approaches 2×bytes/bw as k grows."""
        lat_free = NetworkConfig(ps_shards=4, latency_s=0.0)
        t64 = ring_allreduce_time(MB400, 64, lat_free)
        t1024 = ring_allreduce_time(MB400, 1024, lat_free)
        limit = 2 * MB400 / lat_free.nic_bandwidth
        assert t64 < t1024 <= limit * 1.001

    def test_ps_server_becomes_bottleneck(self):
        small = ps_round_sync_time(MB400, 2, NET)
        big = ps_round_sync_time(MB400, 64, NET)
        assert big > 4 * small

    def test_ring_beats_ps_at_scale(self):
        assert ring_allreduce_time(MB400, 64, NET) < ps_round_sync_time(
            MB400, 64, NET
        )

    def test_ps_beats_ring_for_tiny_groups(self):
        # 2 workers: the sharded PS parallelizes, the ring pays 2 steps
        assert ps_round_sync_time(MB400, 2, NET) < ring_allreduce_time(
            MB400, 2, NET
        )

    def test_invalid_worker_counts(self):
        with pytest.raises(ConfigurationError):
            ps_round_sync_time(MB400, 0, NET)
        with pytest.raises(ConfigurationError):
            ring_allreduce_time(MB400, 0, NET)
