"""Tests for the recovery report and its accumulator."""

import pytest

from repro.faults import ChaosTelemetry, GpuCrash


class TestChaosTelemetry:
    def test_lost_rounds_accumulate(self):
        t = ChaosTelemetry()
        t.record_lost_round(0, 2)
        t.record_lost_round(0, 1)
        t.record_lost_round(1, 0)  # zero is a no-op
        assert t.lost_rounds == {0: 3}

    def test_report_snapshot(self):
        t = ChaosTelemetry()
        t.replans = 2
        t.record_lost_round(1, 4)
        report = t.report(
            crashes=(GpuCrash(1.0, 0),),
            failure_free_weighted_jct=100.0,
            degraded_weighted_jct=150.0,
            failure_free_makespan=10.0,
            degraded_makespan=14.0,
        )
        assert report.replans == 2
        assert report.total_lost_rounds == 4
        assert report.jct_degradation == pytest.approx(1.5)
        assert report.detection_latencies == ()

    def test_degradation_guards_zero_baseline(self):
        report = ChaosTelemetry().report(
            crashes=(),
            failure_free_weighted_jct=0.0,
            degraded_weighted_jct=5.0,
            failure_free_makespan=0.0,
            degraded_makespan=0.0,
        )
        assert report.jct_degradation == 1.0
