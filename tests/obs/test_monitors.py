"""Streaming monitors: invariants on real runs, pinned violations on
corrupted fixtures, routing, and heuristic detectors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.faults import FaultScenario, GpuCrash, GpuRestart, HeartbeatConfig
from repro.obs import Severity, default_monitors, diagnose_schedule
from repro.core.errors import ScheduleValidationError
from repro.core.schedule import (
    TIME_EPS,
    Schedule,
    merge_intervals,
    validate_schedule,
)
from repro.obs.monitors import (
    CellImbalanceMonitor,
    CommitmentMonotonicityMonitor,
    DiagnosisContext,
    JobStarvationMonitor,
    ReplanStormMonitor,
    UtilizationCollapseMonitor,
    collect_findings,
    realized_schedule,
    replay_monitors,
)
from repro.obs.recorder import Record, load_flight_log
from tests.conftest import make_uniform_instance
from tests.core.oracles import schedule_of


def span(seq, name, track, t, dur, **args):
    return Record(seq, "span", "sim", name, track, t, dur, args)


def instant(seq, cat, name, track, t, **args):
    return Record(seq, "instant", cat, name, track, t, 0.0, args)


class TestCleanRuns:
    def test_planned_run_has_no_findings(self):
        r = api.run_experiment(
            gpus=4, jobs=5, scheduler="hare", seed=3, rounds_scale=0.2,
            trace=False, monitors=True,
        )
        assert r.diagnosis is not None
        assert r.diagnosis.ok
        assert r.diagnosis.invariant_violations() == []
        assert r.diagnosis.records_seen > 0

    @pytest.mark.parametrize(
        "name",
        ["gavel_fifo", "gavel_ts", "hare", "hare_online", "sched_allox",
         "sched_homo", "srtf"],
    )
    def test_streaming_run_no_invariant_violations(self, name):
        """Acceptance pin: every registered scheduler, driven through the
        kernel with monitors attached, violates no invariant."""
        r = api.run_experiment(
            gpus=5, jobs=5, scheduler=name, seed=11, rounds_scale=0.2,
            arrivals="streaming", trace=False, monitors=True,
        )
        assert r.diagnosis is not None
        assert r.diagnosis.invariant_violations() == []


class TestCorruptedSchedule:
    def test_double_booked_schedule_trips_invariant(self):
        """Acceptance pin: cloning one assignment onto another task's GPU
        and start time produces a schedule_constraints ERROR naming the
        overlap (8) on the donor's GPU."""
        r = api.run_experiment(
            gpus=4, jobs=5, scheduler="hare", seed=3, rounds_scale=0.2,
            simulate=False, trace=False,
        )
        sched = r.plan
        tasks = sorted(sched.assignments)
        victim, donor = tasks[0], tasks[1]
        moved = dataclasses.replace(
            sched[victim], gpu=sched[donor].gpu, start=sched[donor].start
        )
        sched = schedule_of(
            sched.instance,
            (
                moved if t == victim else a
                for t, a in sched.assignments.items()
            ),
        )
        report = diagnose_schedule(sched)
        assert not report.ok
        assert report.monitors == ("schedule_constraints",)
        (booked,) = report.invariant_violations()
        assert booked.monitor == "schedule_constraints"
        assert booked.severity is Severity.ERROR
        assert booked.invariant
        assert booked.details == {"constraint": 8}
        assert booked.message.startswith(
            f"constraint (8): GPU {sched[donor].gpu}: {donor} starts at"
        )
        assert f"inside {victim} which computes" in booked.message

    def test_clean_schedule_diagnoses_ok(self):
        r = api.run_experiment(
            gpus=4, jobs=5, scheduler="hare", seed=3, rounds_scale=0.2,
            simulate=False, trace=False,
        )
        report = diagnose_schedule(r.plan)
        assert report.ok
        assert report.findings == ()
        assert report.monitors == ("schedule_constraints",)


class TestRunValidatesItsReplay:
    @pytest.fixture
    def overlapping(self, monkeypatch):
        """``api.simulate_plan`` returning realized rows that overlap on
        one GPU."""
        real = api.simulate_plan

        def overlapping(cluster, instance, plan, **kwargs):
            sim = real(cluster, instance, plan, **kwargs)
            done = sim.realized
            start, train = done.start, done.train
            # Row j starts while row i computes on another GPU: move j
            # onto i's GPU, leaving every start (so (4) and (7)) as is.
            i, j = next(
                (i, j)
                for i in range(len(done)) for j in range(len(done))
                if done.gpu[i] != done.gpu[j]
                and start[i] < start[j] < start[i] + train[i] - 1e-6
            )
            gpu = done.gpu.copy()
            gpu[j] = gpu[i]
            return dataclasses.replace(sim, realized=Schedule(
                instance, done.job, done.rnd, done.slot, gpu, start, train,
                done.sync,
            ))

        monkeypatch.setattr(api, "simulate_plan", overlapping)

    def test_overlapping_realized_rows_raise(self, overlapping):
        """A plain simulated run checks the schedule it replayed: a
        replay whose realized rows overlap on one GPU fails (8)."""
        with pytest.raises(ScheduleValidationError) as err:
            api.run_experiment(
                gpus=4, jobs=5, scheduler="hare", seed=3, rounds_scale=0.2,
                simulate=True, trace=False,
            )
        assert err.value.constraint == 8

    def test_simulate_checks_what_it_replays(self, overlapping):
        """``api.simulate`` checks its replay as a simulated run does."""
        r = api.run_experiment(
            gpus=4, jobs=5, scheduler="hare", seed=3, rounds_scale=0.2,
            simulate=False, trace=False,
        )
        with pytest.raises(ScheduleValidationError) as err:
            api.simulate(r.cluster, r.instance, r.plan, trace=False)
        assert err.value.constraint == 8


class TestCommitmentMonotonicity:
    def test_regressing_commit_without_retract_fires(self):
        mon = CommitmentMonotonicityMonitor()
        mon.observe(
            instant(0, "sched", "kernel.commit", "kernel", 1.0,
                    job=0, rounds_done=3)
        )
        mon.observe(
            instant(1, "sched", "kernel.commit", "kernel", 2.0,
                    job=0, rounds_done=2)
        )
        assert mon.findings
        assert mon.findings[0].invariant

    def test_retract_licenses_the_rollback(self):
        mon = CommitmentMonotonicityMonitor()
        mon.observe(
            instant(0, "sched", "kernel.commit", "kernel", 1.0,
                    job=0, rounds_done=3)
        )
        mon.observe(
            instant(1, "sched", "kernel.retract", "kernel", 1.5,
                    job=0, rounds_done=1, gpu=2)
        )
        mon.observe(
            instant(2, "sched", "kernel.commit", "kernel", 2.0,
                    job=0, rounds_done=2)
        )
        assert mon.findings == []


class TestHeuristics:
    def test_replan_storm_fires_on_burst(self):
        mon = ReplanStormMonitor(window_s=5.0, max_replans=3)
        for i in range(5):
            mon.observe(
                instant(i, "sched", "kernel.replan", "kernel",
                        1.0 + 0.1 * i, pass_idx=i)
            )
        assert mon.findings
        assert mon.findings[0].severity is Severity.WARNING
        assert not mon.findings[0].invariant

    def test_spread_out_replans_are_quiet(self):
        mon = ReplanStormMonitor(window_s=5.0, max_replans=3)
        for i in range(5):
            mon.observe(
                instant(i, "sched", "kernel.replan", "kernel",
                        10.0 * i, pass_idx=i)
            )
        assert mon.findings == []

    def test_starvation_fires_on_outlier_wait(self):
        mon = JobStarvationMonitor(factor=5.0, min_wait_s=1.0, min_jobs=3)
        records = []
        seq = 0
        for job in range(4):
            records.append(
                instant(seq, "sched", "JOB_ARRIVED", "kernel", 0.0, job=job)
            )
            seq += 1
        # Jobs 0-2 start promptly; job 3 waits 50 s.
        for job, start in [(0, 0.1), (1, 0.2), (2, 0.3), (3, 50.0)]:
            records.append(
                span(seq, f"j{job} r0", f"gpu/{job}", start, 1.0,
                     job=job, round=0)
            )
            seq += 1
        for rec in records:
            mon.observe(rec)
        report = collect_findings(
            [mon], records_seen=len(records), instance=None, metrics=None,
        )
        starved = [f for f in report.findings if f.monitor == "job_starvation"]
        assert starved
        assert starved[0].severity is Severity.WARNING


class TestUtilizationCollapse:
    """Mid-run polls grade only gaps no unrecorded span can fill."""

    CTX = DiagnosisContext(instance=make_uniform_instance(6, 2))

    def _task(self, seq, gpu, start, end):
        return span(seq, "j5 r0", f"gpu/{gpu}", start, end - start,
                    job=5, round=0)

    def test_poll_ignores_a_gap_an_in_flight_task_fills(self):
        mon = UtilizationCollapseMonitor()
        mon.observe(instant(0, "sim", "JOB_ARRIVED", "kernel", 0.0, job=5))
        mon.observe(self._task(1, 0, 0.0, 1.0))
        mon.observe(self._task(2, 0, 8.0, 9.0))
        mon.poll(self.CTX)  # gpu/1 is still computing (0.5, 10)
        mon.observe(self._task(3, 1, 0.5, 10.0))
        mon.finish(self.CTX)
        assert mon.findings == []

    def test_poll_grades_a_gap_every_gpu_has_passed(self):
        mon = UtilizationCollapseMonitor()
        mon.observe(instant(0, "sim", "JOB_ARRIVED", "kernel", 0.0, job=5))
        mon.observe(self._task(1, 0, 0.0, 1.0))
        mon.observe(self._task(2, 1, 0.0, 1.0))
        mon.observe(self._task(3, 0, 8.0, 9.0))
        mon.poll(self.CTX)  # gpu/1's next span may start before 8
        assert mon.findings == []
        mon.observe(self._task(4, 1, 9.0, 10.0))
        mon.poll(self.CTX)
        assert [f.details["gap_s"] for f in mon.findings] == [7.0]
        mon.finish(self.CTX)  # reported once
        assert len(mon.findings) == 1

    def test_poll_without_an_instance_grades_nothing(self):
        mon = UtilizationCollapseMonitor()
        mon.observe(instant(0, "sim", "JOB_ARRIVED", "kernel", 0.0, job=5))
        mon.observe(self._task(1, 0, 0.0, 1.0))
        mon.observe(self._task(2, 0, 8.0, 9.0))
        mon.poll(DiagnosisContext())
        assert mon.findings == []
        mon.finish(DiagnosisContext())
        assert len(mon.findings) == 1

    def _gap_then_poll(self, mon, *before):
        """Job 5 ready at 0, ``gpu/0`` busy (0, 1) and (8, 9), then the
        *before* records, then a poll."""
        mon.observe(instant(0, "sim", "JOB_ARRIVED", "kernel", 0.0, job=5))
        mon.observe(self._task(1, 0, 0.0, 1.0))
        mon.observe(self._task(2, 0, 8.0, 9.0))
        for rec in before:
            mon.observe(rec)
        mon.poll(self.CTX)

    def test_poll_waits_for_a_gpu_that_never_computes(self):
        """The documented limit: a live GPU with no recorded span may be
        computing now, so the poll grades nothing; finish does."""
        mon = UtilizationCollapseMonitor()
        self._gap_then_poll(mon)
        assert mon.findings == []
        mon.finish(self.CTX)
        assert [f.details["gap_s"] for f in mon.findings] == [7.0]

    @pytest.mark.parametrize("busy", [False, True])
    def test_poll_grades_gaps_after_a_crash(self, busy):
        """A crashed GPU, with or without spans before its crash, no
        longer holds back the gaps that start after it."""
        mon = UtilizationCollapseMonitor()
        spans = [self._task(3, 1, 0.0, 0.5)] if busy else []
        self._gap_then_poll(
            mon, *spans,
            instant(4, "sim", "GPU_CRASHED", "kernel", 1.0, gpu=1),
        )
        assert [f.details["gap_s"] for f in mon.findings] == [7.0]

    def test_poll_holds_gaps_that_start_before_the_crash(self):
        mon = UtilizationCollapseMonitor()
        self._gap_then_poll(
            mon,
            self._task(3, 1, 0.0, 0.5),
            instant(4, "sim", "GPU_CRASHED", "kernel", 3.0, gpu=1),
        )
        assert mon.findings == []  # gpu/1 may compute until 3

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)),
                st.sampled_from((0.0, 0.5, 1.0, 2.0)),
            ),
            max_size=30,
        )
    )
    def test_incremental_merge_equals_merge_intervals(self, spans):
        """Bisect-insert with the ``s <= end`` touch rule keeps exactly
        ``merge_intervals`` of every interval seen, after every insert."""
        mon = UtilizationCollapseMonitor()
        seen = []
        for k, (start, dur) in enumerate(spans):
            mon.observe(self._task(k, k % 3, start, start + dur))
            seen.append((start, start + dur))
            assert list(zip(mon._starts, mon._ends)) == merge_intervals(seen)


class TestReplay:
    def test_replay_matches_live_diagnosis(self):
        r = api.run_experiment(
            gpus=4, jobs=4, scheduler="hare_online", seed=5,
            rounds_scale=0.2, arrivals="streaming", trace=False,
            monitors=True,
        )
        records = r.obs.recorder.records()
        replayed = replay_monitors(
            records, instance=r.instance,
            metrics=r.metrics_snapshot(),
        )
        assert replayed.ok == r.diagnosis.ok
        assert len(replayed.findings) == len(r.diagnosis.findings)

    def test_default_monitors_cover_the_catalogue(self):
        names = {m.name for m in default_monitors()}
        assert names == {
            "commitment_monotonicity", "utilization_conservation",
            "replan_storm", "job_starvation", "utilization_collapse",
            "rpc_budget_exhausted", "cell_load_imbalance",
        }

    @pytest.mark.parametrize("spans, ok", [
        # The later span arrives first: the check is order-independent.
        (((1, "gpu/0", 5.0, 2.0), (0, "gpu/0", 4.0, 3.0)), False),
        (((0, "gpu/0", 0.0, 2.0), (1, "gpu/1", 0.0, 2.0)), True),
        (((0, "gpu/0", 0.0, 2.0), (1, "gpu/0", 2.0, 2.0)), True),
    ], ids=["overlap_out_of_order", "distinct_gpus", "back_to_back"])
    def test_replayed_spans_meet_the_schedule_constraints(self, spans, ok):
        """The compute spans of a log are the schedule it realized: two
        that overlap on one GPU fail (8), and nothing else does."""
        report = replay_monitors([
            span(k, f"j{job} r0", track, t, dur, job=job, round=0, slot=0)
            for k, (job, track, t, dur) in enumerate(spans)
        ])
        assert report.ok is ok
        if not ok:
            (finding,) = report.invariant_violations()
            assert finding.monitor == "schedule_constraints"
            assert finding.details == {"constraint": 8}
            assert finding.message == (
                "constraint (8): GPU 0: J1.r0.t0 starts at 5.000000 "
                "inside J0.r0.t0 which computes until 7.000000"
            )

    @pytest.mark.parametrize("run", [
        dict(
            gpus=6, jobs=8, scheduler="hare_online", seed=5,
            rounds_scale=0.3, arrivals="streaming", replan_interval=1.0,
            crashes=((4.0, 1),), heal=True,
        ),
        dict(
            gpus=6, jobs=5, seed=3, rounds_scale=0.3, record=True,
            faults=FaultScenario(
                crashes=(GpuCrash(6.0, 1),),
                restarts=(GpuRestart(2.0, 0, restart_delay_s=1.0),),
            ),
            heartbeat=HeartbeatConfig(interval_s=1.0, lease_s=3.0),
        ),
    ], ids=["crashed_online", "faults_restart"])
    def test_flight_log_is_the_realized_schedule(self, tmp_path, run):
        """A crashed run's log rebuilds its realized schedule row for
        row: a retracted round or an attempt the DES killed leaves no
        ``sim`` span."""
        r = api.run_experiment(trace=False, **run)
        if "faults" in run:
            aborted = r.metrics_snapshot()["sim.aborted_attempts"]
            assert aborted["value"] == 1
        else:
            assert r.kernel.retracted_rounds > 0
        log = load_flight_log(r.write_flight_log(tmp_path / "run.jsonl"))
        for instance in (r.instance, None):
            rebuilt = realized_schedule(log, instance)
            done = r.sim.realized
            assert len(rebuilt) == len(done)
            mine, theirs = np.argsort(rebuilt.canon), np.argsort(done.canon)
            for col in ("job", "rnd", "slot", "gpu", "start"):
                assert np.array_equal(
                    getattr(rebuilt, col)[mine], getattr(done, col)[theirs]
                ), col
            for col in ("train", "sync"):
                assert np.allclose(
                    getattr(rebuilt, col)[mine], getattr(done, col)[theirs],
                    rtol=0, atol=TIME_EPS,
                ), col
        assert realized_schedule(
            [rec for rec in log if rec.category != "sim"]
        ) is None


class TestChaosRuns:
    @pytest.mark.parametrize("name", ["hare", "gavel_fifo"])
    def test_chaos_recovery_violates_no_invariants(self, name):
        """Acceptance pin: the full crash→detect→rollback→re-plan pipeline,
        watched end to end, keeps every invariant (the muted failure-free
        reference run must not leak counterfactual spans into the
        stream)."""
        from repro.cluster import testbed_cluster
        from repro.control import ControlPlane
        from repro.faults import FaultScenario, GpuCrash, HeartbeatConfig
        from repro.harness.experiments import (
            make_loaded_workload,
            make_problem,
        )
        from repro.obs import Obs, use
        from repro.schedulers import create

        cluster = testbed_cluster()
        jobs = make_loaded_workload(
            8, reference_gpus=cluster.num_gpus, load=1.0, seed=5
        )
        plane = ControlPlane(cluster=cluster, scheduler=create(name))
        obs = Obs.start(trace=False, record=True, monitors=default_monitors())
        scenario = FaultScenario(
            crashes=(GpuCrash(time=8.0, gpu_id=2),)
        ).validate(cluster.num_gpus)
        instance = make_problem(plane.cluster, jobs)
        with use(obs):
            result = plane.run_chaos(
                instance,
                scenario,
                heartbeat=HeartbeatConfig(interval_s=2.0, lease_s=6.0),
            )
        validate_schedule(result.realized, check_durations=False)
        metrics = obs.metrics.snapshot()
        for report in (
            obs.recorder.diagnose(metrics=metrics),
            replay_monitors(
                obs.recorder.records(), instance=instance, metrics=metrics
            ),
        ):
            assert report.invariant_violations() == [], report.summary()
            assert report.records_seen > 0


class TestCellImbalance:
    """The sharded-scheduling load-imbalance detector."""

    def _admit(self, seq, job, cell, work_s):
        return instant(
            seq, "sched", "cells.admit", "cells", float(job),
            job=job, cell=cell, work_s=work_s,
        )

    def test_silent_without_cells_records(self):
        mon = CellImbalanceMonitor()
        mon.observe(span(0, "task", "gpu/0", 0.0, 1.0))
        mon.finish(None)
        assert mon.findings == []

    def test_balanced_cells_stay_quiet(self):
        mon = CellImbalanceMonitor()
        for i in range(8):
            mon.observe(self._admit(i, job=i, cell=i % 4, work_s=10.0))
        mon.finish(None)
        assert mon.findings == []

    def test_skewed_cells_warn_once(self):
        mon = CellImbalanceMonitor()
        mon.observe(self._admit(0, job=0, cell=0, work_s=100.0))
        for i in range(1, 4):
            mon.observe(self._admit(i, job=i, cell=i, work_s=1.0))
        mon.poll(None)
        mon.poll(None)  # idempotent across repeated polls
        mon.finish(None)
        assert len(mon.findings) == 1
        finding = mon.findings[0]
        assert finding.severity is Severity.WARNING
        assert finding.details["cell"] == 0
        assert finding.details["cells"] == 4

    def test_sharded_run_feeds_the_monitor(self):
        """End to end: a deliberately skewed admission (every job on one
        of two cells via round-robin over a 2-cell split where one cell
        is too small for any gang) produces the finding from a real
        ShardedKernel record stream."""
        import numpy as np

        from repro.cells import Cell, CellPartition, run_sharded
        from repro.core import Job, ProblemInstance
        from repro.obs import Obs, use

        jobs = [
            Job(
                job_id=n, model=f"m{n % 2}", num_rounds=2, sync_scale=2,
                arrival=float(n),
            )
            for n in range(6)
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.full((6, 3), 1.0),
            sync_time=np.full((6, 3), 0.1),
            gpu_labels=["V100#0", "V100#1", "V100#2"],
        )
        part = CellPartition(
            num_gpus=3,
            cells=(
                Cell(index=0, gpu_ids=(0,)),  # too narrow for any gang
                Cell(index=1, gpu_ids=(1, 2)),
            ),
        )
        monitors = [CellImbalanceMonitor()]
        with use(Obs.start(trace=False, record=True, monitors=monitors)):
            run_sharded(inst, "srtf", partition=part)
        report = collect_findings(monitors)
        findings = [
            f for f in report.findings if f.monitor == "cell_load_imbalance"
        ]
        assert len(findings) == 1
        assert findings[0].details["cell"] == 1
