"""Tests for composable fault scenarios and their validation."""

import pytest

from repro.core.errors import ConfigurationError
from repro.faults import (
    FaultScenario,
    GpuCrash,
    GpuRestart,
    GpuSlowdown,
    NetworkPartition,
    RpcFlakiness,
)


class TestFaultEvents:
    def test_crash_rejects_negative_time(self):
        with pytest.raises(ConfigurationError, match="time must be >= 0"):
            GpuCrash(time=-1.0, gpu_id=0)

    def test_crash_rejects_negative_gpu(self):
        with pytest.raises(ConfigurationError, match="gpu_id must be >= 0"):
            GpuCrash(time=1.0, gpu_id=-2)

    def test_restart_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            GpuRestart(time=1.0, gpu_id=0, restart_delay_s=-0.1)

    def test_slowdown_rejects_bad_factor(self):
        with pytest.raises(ConfigurationError, match="factor must be >= 1"):
            GpuSlowdown(gpu_id=0, start=0.0, duration=5.0, factor=0.9)

    def test_slowdown_end(self):
        s = GpuSlowdown(gpu_id=0, start=2.0, duration=3.0)
        assert s.end == 5.0

    def test_flakiness_rejects_certain_drop(self):
        with pytest.raises(ConfigurationError, match="drop_rate"):
            RpcFlakiness(drop_rate=1.0)

    def test_partition_needs_positive_duration(self):
        with pytest.raises(ConfigurationError):
            NetworkPartition(start=1.0, duration=0.0)


class TestFaultScenario:
    def test_duplicate_permanent_crash_rejected(self):
        with pytest.raises(ConfigurationError, match="twice"):
            FaultScenario(
                crashes=(GpuCrash(1.0, 0), GpuCrash(2.0, 0))
            )

    def test_validate_checks_gpu_references(self):
        scenario = FaultScenario(crashes=(GpuCrash(1.0, 5),))
        with pytest.raises(ConfigurationError, match="GPU 5"):
            scenario.validate(num_gpus=4)
        assert scenario.validate(num_gpus=6) is scenario

    def test_validate_requires_survivors(self):
        scenario = FaultScenario(
            crashes=(GpuCrash(1.0, 0), GpuCrash(2.0, 1))
        )
        with pytest.raises(ConfigurationError, match="no survivors"):
            scenario.validate(num_gpus=2)

    def test_lists_normalized_to_tuples(self):
        scenario = FaultScenario(crashes=[GpuCrash(1.0, 0)])
        assert isinstance(scenario.crashes, tuple)

    def test_network_none_when_reliable(self):
        assert FaultScenario().network() is None

    def test_network_compiles_flakiness_and_partitions(self):
        scenario = FaultScenario(
            flakiness=RpcFlakiness(drop_rate=0.5, seed=3),
            partitions=(NetworkPartition(start=10.0, duration=5.0),),
        )
        net = scenario.network()
        assert net.drop_rate == 0.5
        assert net.partitions == ((10.0, 15.0),)

    def test_partition_drops_everything_inside_window(self):
        net = FaultScenario(
            partitions=(NetworkPartition(start=10.0, duration=5.0),)
        ).network()
        assert net.drops("a", "b", 12.0)
        assert not net.drops("a", "b", 15.0)  # window is half-open
        assert net.considered == 2 and net.dropped == 1

    def test_flaky_drops_are_seed_deterministic(self):
        def outcomes(seed):
            net = FaultScenario(
                flakiness=RpcFlakiness(drop_rate=0.4, seed=seed)
            ).network()
            return [net.drops("a", "b", float(t)) for t in range(50)]

        assert outcomes(1) == outcomes(1)
        assert any(outcomes(1))
        assert not all(outcomes(1))

    def test_ordered_crashes(self):
        scenario = FaultScenario(
            crashes=(GpuCrash(9.0, 1), GpuCrash(2.0, 0))
        )
        assert [c.time for c in scenario.ordered_crashes()] == [2.0, 9.0]

    def test_slowdown_windows(self):
        scenario = FaultScenario(
            slowdowns=(GpuSlowdown(gpu_id=2, start=1.0, duration=4.0,
                                   factor=3.0),)
        )
        assert scenario.slowdown_windows() == [(1.0, 5.0, 2, 3.0)]
