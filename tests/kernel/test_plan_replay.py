"""The array kernel's planned block replay ≡ the reference event loop.

:class:`~repro.kernel.array.ArraySchedulingKernel` commits a finished
plan as one block: a heap over the trigger events alone fixes the commit
order, and numpy over that order derives the ``GPU_FREE`` wake-ups, the
event count, the per-batch samples and — with the tracer on — every
instant. These tests hold it to the per-event reference loop
(:class:`~repro.kernel.runner.SchedulingKernel`) with the tracer off and
with it on (flight recorder attached): ``KernelResult`` statistics, log
columns, the metrics snapshot (minus the wall-clock ``sched.phase.*``
histograms), the timeline, the recorded stream and the Chrome-trace
bytes must all match. Beside a Hypothesis suite over every planned
scheduler, hand-made plans pin the tie-break corners: zero-duration
rounds (same-time re-batches, wake-ups clamped to the clock), equal
barrier times across jobs, all jobs arriving at t = 0, and a registry
whose ``kernel.commitments`` counter already holds a value.

Also pinned: a plan placing a task on a GPU the instance lacks is
refused with the reference loop's error; the materialized schedule
re-inserts the plan's own assignment objects, as the reference loop
commits them; and a run under the disabled context writes nothing into
the shared :data:`~repro.obs.NULL_REGISTRY` (the leak guard).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import run_sharded
from repro.core import Job, ProblemInstance, Schedule, TaskAssignment, TaskRef
from repro.core.errors import SimulationError
from repro.kernel import PlannedPolicy, run_policy
from repro.kernel.array import ArraySchedulingKernel
from repro.kernel.runner import SchedulingKernel
from repro.obs import NULL_REGISTRY, Obs, trace_json, use
from repro.schedulers.registry import available, create
from tests.core.oracles import schedule_of
from tests.property.test_kernel_properties import instances

#: Every registered offline planner, run through PlannedPolicy.
PLANNERS = [create(key) for key in available() if key != "hare_online"]

KERNELS = (SchedulingKernel, ArraySchedulingKernel)


class FrozenPlanner:
    """Planner stub that hands out a fixed plan."""

    name = "frozen"

    def __init__(self, plan: Schedule) -> None:
        self.plan = plan

    def schedule(self, instance):
        return self.plan


def _observe(kernel_cls, instance, planner, *, traced, prior):
    obs = Obs.start(trace=traced, record=traced)
    if prior:
        obs.metrics.counter("kernel.commitments").inc(prior)
    with use(obs):
        result = kernel_cls(instance, PlannedPolicy(planner)).run()
    cols = result.schedule
    snapshot = {
        k: v
        for k, v in obs.metrics.snapshot().items()
        if not k.startswith("sched.phase.")
    }
    seen = {
        "stats": (result.events, result.commitments, result.replans,
                  result.retracted_rounds),
        "columns": [
            c.tolist()
            for c in (cols.job, cols.rnd, cols.slot, cols.gpu, cols.start,
                      cols.train, cols.sync)
        ],
        "metrics": result.metrics,
        "snapshot": snapshot,
        "timeline": obs.metrics.timeline(),
    }
    if traced:
        seen["trace"] = trace_json(obs.tracer, metrics=obs.metrics)
        seen["records"] = [
            (r.kind, r.category, r.name, r.track, r.time, r.args)
            for r in obs.recorder.records()
            if r.kind != "wall"
        ]
    return seen


def assert_replay_equivalent(instance, planner, *, prior=0.0):
    """Both loops, tracer off and on: every observable must match."""
    for traced in (False, True):
        ref, arr = (
            _observe(k, instance, planner, traced=traced, prior=prior)
            for k in KERNELS
        )
        for key in ref:
            assert arr[key] == ref[key], (planner.name, traced, key)


def _queue_depth_times(instance, plan):
    obs = Obs.start(trace=False)
    with use(obs):
        ArraySchedulingKernel(
            instance, PlannedPolicy(FrozenPlanner(plan))
        ).run()
    return [t for t, _ in obs.metrics.timeline()["kernel.queue_depth"]]


def _instance(arrivals, rounds, scale, gpus):
    jobs = [
        Job(job_id=j, model="m", arrival=a, num_rounds=rounds,
            sync_scale=scale)
        for j, a in enumerate(arrivals)
    ]
    return ProblemInstance(
        jobs=jobs,
        train_time=np.ones((len(jobs), gpus)),
        sync_time=np.zeros((len(jobs), gpus)),
    )


def _plan(instance, rows):
    """A schedule from ``(job, round, slot, gpu, start, train, sync)``."""
    return schedule_of(
        instance,
        (
            TaskAssignment(TaskRef(j, r, s), g, start, train, sync)
            for j, r, s, g, start, train, sync in rows
        ),
    )


@st.composite
def zero_duration_plans(draw):
    """Plans on integer times where many rounds take no time at all.

    A zero-duration round's barrier lands at the clock of the batch that
    committed it (a same-time re-batch); a task started a hair before
    its barrier pushes wake-ups into the past (clamped to the clock).
    """
    gpus = draw(st.integers(1, 4))
    n_jobs = draw(st.integers(1, 6))
    jobs = [
        Job(
            job_id=j,
            model="m",
            arrival=float(draw(st.integers(0, 2))),
            num_rounds=draw(st.integers(1, 4)),
            sync_scale=draw(st.integers(1, gpus)),
        )
        for j in range(n_jobs)
    ]
    instance = ProblemInstance(
        jobs=jobs,
        train_time=np.ones((n_jobs, gpus)),
        sync_time=np.zeros((n_jobs, gpus)),
    )
    durations = st.sampled_from([0.0, 0.0, 1.0, 2.0])
    rows = []
    for job in jobs:
        barrier = job.arrival
        for r in range(job.num_rounds):
            placed = draw(
                st.permutations(range(gpus)).map(
                    lambda p, k=job.sync_scale: p[:k]
                )
            )
            ends = []
            for s, g in enumerate(placed):
                early = draw(st.booleans()) and draw(st.booleans())
                start = barrier - (1e-13 if early else 0.0)
                train, sync = draw(durations), draw(durations)
                rows.append((job.job_id, r, s, g, start, train, sync))
                ends.append(start + train + sync)
            barrier = max(ends)
    return instance, _plan(instance, rows)


class TestEveryPlannedScheduler:
    @given(inst=instances())
    @settings(max_examples=10, deadline=None)
    def test_random_instances(self, inst):
        for planner in PLANNERS:
            assert_replay_equivalent(inst, planner)

    @given(inst=instances(zero_arrivals=True))
    @settings(max_examples=5, deadline=None)
    def test_all_jobs_arrive_at_zero(self, inst):
        for planner in PLANNERS:
            assert_replay_equivalent(inst, planner)

    def test_testbed_workload(self, small_instance):
        for planner in PLANNERS:
            assert_replay_equivalent(small_instance, planner)


class TestTieBreakCorners:
    @given(case=zero_duration_plans())
    @settings(max_examples=40, deadline=None)
    def test_zero_duration_rounds(self, case):
        instance, plan = case
        assert_replay_equivalent(instance, FrozenPlanner(plan))

    def test_zero_duration_round_rebatches_at_the_same_time(self):
        """Job 0's round 0 takes no time, so its barrier is pushed at the
        clock and pops as a second batch at t = 0."""
        instance = _instance([0.0, 0.0], rounds=2, scale=1, gpus=2)
        plan = _plan(instance, [
            (0, 0, 0, 0, 0.0, 0.0, 0.0),
            (0, 1, 0, 0, 0.0, 1.0, 0.0),
            (1, 0, 0, 1, 0.0, 2.0, 0.0),
            (1, 1, 0, 1, 2.0, 1.0, 0.0),
        ])
        assert _queue_depth_times(instance, plan)[:2] == [0.0, 0.0]
        assert_replay_equivalent(instance, FrozenPlanner(plan))

    def test_clamped_past_wake_ups(self):
        """Round 1 starts a hair before round 0's barrier: its barrier
        and GPU wake-ups lie in the past and are clamped to the clock."""
        instance = _instance([0.0], rounds=3, scale=2, gpus=2)
        plan = _plan(instance, [
            (0, 0, 0, 0, 0.0, 1.0, 0.5),
            (0, 0, 1, 1, 0.0, 1.5, 0.0),
            (0, 1, 0, 1, 1.5 - 1e-13, 0.0, 0.0),
            (0, 1, 1, 0, 1.5 - 1e-13, 0.0, 0.0),
            (0, 2, 0, 0, 1.5, 1.0, 0.0),
            (0, 2, 1, 1, 1.5, 1.0, 0.0),
        ])
        assert_replay_equivalent(instance, FrozenPlanner(plan))

    def test_equal_barrier_times_across_jobs(self):
        """Three jobs on disjoint GPUs with identical rounds: every
        barrier of every job opens at the same instant, so one batch
        holds all three and the seq tie-break orders the commits."""
        instance = _instance([0.0, 1.0, 1.0], rounds=3, scale=1, gpus=3)
        rows = []
        for j, offset in enumerate((1.0, 0.0, 0.0)):
            for r in range(3):
                rows.append((j, r, 0, j, offset + r * 2.0 + (j > 0),
                             1.5, 0.5))
        plan = _plan(instance, rows)
        times = _queue_depth_times(instance, plan)
        assert len(times) == len(set(times))
        assert_replay_equivalent(instance, FrozenPlanner(plan))

    def test_preset_commitment_counter(self, small_instance):
        for planner in PLANNERS[:2]:
            assert_replay_equivalent(small_instance, planner, prior=5.0)

    @pytest.mark.parametrize("gpu", [2, -1])
    def test_plan_on_a_missing_gpu_is_refused_alike(self, gpu):
        instance = _instance([0.0], rounds=2, scale=1, gpus=2)
        plan = _plan(instance, [
            (0, 0, 0, 0, 0.0, 1.0, 0.0),
            (0, 1, 0, gpu, 1.0, 1.0, 0.0),
        ])
        messages = []
        for kernel_cls in KERNELS:
            with pytest.raises(SimulationError) as err:
                kernel_cls(instance, PlannedPolicy(FrozenPlanner(plan))).run()
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            f"commitment places J0.r1.t0 on dead GPU {gpu}"
        )


class TestCommitHorizonHistogram:
    """The block replay hands ``kernel.commit_horizon_s`` every horizon
    in one ``observe_all``; the reference loop observes one per commit."""

    @staticmethod
    def _histogram(kernel_cls, instance, planner):
        obs = Obs.start(trace=False)
        with use(obs):
            kernel_cls(instance, PlannedPolicy(planner)).run()
        return obs.metrics.histogram("kernel.commit_horizon_s")

    def test_snapshot_is_byte_equal(self, small_instance):
        """Same sorted samples and the same running total, bit for bit
        (summed in commit order), so the same snapshot."""
        for planner in PLANNERS:
            ref, arr = (
                self._histogram(k, small_instance, planner) for k in KERNELS
            )
            assert arr.count > 0
            assert (np.array(arr._sorted).tobytes()
                    == np.array(ref._sorted).tobytes()), planner.name
            assert np.float64(arr.total).tobytes() == np.float64(
                ref.total
            ).tobytes(), planner.name
            assert repr(arr.snapshot()) == repr(ref.snapshot())


class TestMaterializedSchedule:
    """The replay reads the plan's columns, never its objects; its
    schedule materializes to the reference loop's, in the same insertion
    order, and a pickled result rebuilds an equal schedule from its
    columns."""

    def _runs(self, instance):
        plan = create("hare").schedule(instance)
        return plan, [
            k(instance, PlannedPolicy(FrozenPlanner(plan))).run()
            for k in KERNELS
        ]

    def test_matches_the_reference_in_commit_order(self, small_instance):
        plan, (ref, arr) = self._runs(small_instance)
        assert arr.schedule._assignments is None
        assert len(arr.schedule) == len(ref.schedule)
        got = list(arr.schedule.assignments.items())
        assert got == list(ref.schedule.assignments.items())

    def test_replay_leaves_the_plan_unmaterialized(self, small_instance):
        plan = create("hare").schedule(small_instance)
        ArraySchedulingKernel(
            small_instance, PlannedPolicy(FrozenPlanner(plan))
        ).run()
        assert plan._assignments is None

    def test_pickled_result_rebuilds_it_from_columns(self, small_instance):
        _, (_, arr) = self._runs(small_instance)
        clone = pickle.loads(pickle.dumps(arr))
        assert list(clone.schedule.assignments.items()) == list(
            arr.schedule.assignments.items()
        )


class TestNullRegistryLeakGuard:
    """A run under the disabled context writes nothing into the shared
    :data:`NULL_REGISTRY`: bulk samples must go through the registry's
    own method, which the null registry drops."""

    def test_serial_and_sharded_runs_leave_it_empty(self, small_instance):
        run_policy(small_instance, PlannedPolicy(create("hare")))
        run_sharded(small_instance, "hare", cells=4)
        assert NULL_REGISTRY._samples == []
        assert NULL_REGISTRY._instruments == {}
