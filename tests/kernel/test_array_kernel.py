"""Array-kernel equivalence: the batched loop is the reference loop.

The invariant of the array loop
(:class:`repro.kernel.array.ArraySchedulingKernel`): for every registered
scheduler with a batch path (the planned ones; the gang baselines and
the natively online ``hare_online`` always run on the reference loop),
on every instance, it produces **byte-identical**
kernel statistics, schedules, observability streams (``kernel.commit`` /
``kernel.round`` instants, queue-depth timelines, counters) and
≤1e-9-identical metrics compared to the pinned per-event-object
reference loop (:class:`repro.kernel.runner.SchedulingKernel`). Both
kernel classes are driven directly. Only the wall-clock ``sched.phase.*``
latency histograms may differ — they time host code and differ between
two runs of the *same* loop.

Also pinned here:

* batch **tie-break order** — arrivals and barrier wakes landing at the
  same timestamp drain in the same order through both loops;
* **wake-up clamping** on the reference loop — a commitment whose barrier
  lies in the past wakes at the clamped current time, inside the current
  batch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from repro.core import Job, ProblemInstance
from repro.kernel import Commitment, KernelEventType, Policy
from repro.kernel.array import ArraySchedulingKernel
from repro.kernel.runner import SchedulingKernel, has_batch_path
from repro.obs import Obs, use
from repro.schedulers.registry import available, create
from tests.property.test_kernel_properties import instances

#: Every registered scheduler with a batch path: the planned ones. The
#: gang baselines and hare_online always run on the reference loop.
SCHEDULERS = [
    sched for sched in map(create, available())
    if has_batch_path(sched.make_policy(None))
]

KERNELS = {"reference": SchedulingKernel, "array": ArraySchedulingKernel}

METRIC_FIELDS = (
    "total_weighted_completion",
    "total_weighted_flow",
    "makespan",
    "mean_flow",
)


def _run(instance, policy, *, backend, obs=None, **kw):
    """One run of the *backend* kernel class under a fresh (or given)
    Obs context."""
    obs = obs if obs is not None else Obs.start(trace=True)
    with use(obs):
        result = KERNELS[backend](instance, policy, **kw).run()
        schedule = result.schedule  # materialize inside the context
    return result, schedule, obs


def _instant_key(ev):
    return (
        ev.category.value,
        ev.name,
        ev.track,
        ev.time,
        tuple(sorted(ev.args.items())),
    )


def _counters(obs):
    """Metric snapshot minus the wall-clock latency histograms.

    ``sched.phase.*`` and ``kernel.residual_{build,solve}_s`` time host
    code — they differ between two runs of the *same* backend, so they
    are no part of the equivalence contract. Everything else (event
    counters, commit horizons in sim time, queue depths) must match
    byte for byte.
    """
    return {
        k: v
        for k, v in obs.metrics.snapshot().items()
        if not (
            k.startswith("sched.phase.")
            or k.startswith("kernel.residual_")
        )
    }


def assert_equivalent(instance, make_policy):
    ref, ref_sched, ref_obs = _run(
        instance, make_policy(), backend="reference"
    )
    arr, arr_sched, arr_obs = _run(instance, make_policy(), backend="array")
    # byte-identical kernel statistics
    assert (arr.events, arr.commitments, arr.replans,
            arr.retracted_rounds) == (
        ref.events, ref.commitments, ref.replans, ref.retracted_rounds
    )
    # identical committed schedules, assignment for assignment
    assert arr_sched.assignments == ref_sched.assignments
    # metric agreement (empirically bitwise; asserted to the issue's bar)
    for field in METRIC_FIELDS:
        assert abs(
            getattr(arr.metrics, field) - getattr(ref.metrics, field)
        ) <= 1e-9, field
    # byte-stable observability: instants, timelines, counters
    assert [
        _instant_key(e) for e in arr_obs.tracer.instants
    ] == [_instant_key(e) for e in ref_obs.tracer.instants]
    assert arr_obs.metrics.timeline() == ref_obs.metrics.timeline()
    assert _counters(arr_obs) == _counters(ref_obs)
    return ref, arr


class TestEveryRegisteredScheduler:
    @given(inst=instances())
    @settings(max_examples=15, deadline=None)
    def test_equivalence_on_random_instances(self, inst):
        for sched in SCHEDULERS:
            assert_equivalent(inst, lambda: sched.make_policy(inst))

    def test_equivalence_on_testbed_workload(self, small_instance):
        for sched in SCHEDULERS:
            ref, arr = assert_equivalent(
                small_instance,
                lambda: sched.make_policy(small_instance),
            )
            assert arr.events > 0, sched.name


class TestBatchTieBreakOrder:
    """Arrival vs barrier at one timestamp: same drain order."""

    @given(inst=instances())
    @settings(max_examples=10, deadline=None)
    def test_integer_time_collisions(self, inst):
        """Integer arrivals + integer round times force heavy timestamp
        collisions between arrivals and barrier wakes; the drain order
        must agree event for event (the instants pin it)."""
        jobs = [
            Job(
                job_id=j.job_id,
                model=j.model,
                arrival=float(round(j.arrival)),
                weight=j.weight,
                num_rounds=j.num_rounds,
                sync_scale=j.sync_scale,
            )
            for j in inst.jobs
        ]
        collided = ProblemInstance(
            jobs=jobs,
            train_time=np.maximum(1.0, np.round(inst.train_time)),
            sync_time=np.zeros_like(inst.sync_time),
        )
        for sched in SCHEDULERS:
            assert_equivalent(
                collided, lambda: sched.make_policy(collided)
            )


class TestAttributionEquivalence:
    """The attribution report is byte-identical across the two loops. ``kernel.round`` instants feed the attribution
    engine, so equal reports pin the whole chain — emission order,
    float arithmetic, and the decomposition — for every registered
    scheduler."""

    @staticmethod
    def _attribution_json(instance, policy, *, backend, **kw):
        import json

        from repro.obs.attrib import attribute_records

        obs = Obs.start(trace=False, record=True)
        _run(instance, policy, backend=backend, obs=obs, **kw)
        report = attribute_records(
            obs.recorder.records(), instance=instance
        )
        assert report.check() == []
        return json.dumps(report.to_json(), sort_keys=True)

    @given(inst=instances())
    @settings(max_examples=10, deadline=None)
    def test_reports_byte_identical_on_random_instances(self, inst):
        for sched in SCHEDULERS:
            ref = self._attribution_json(
                inst, sched.make_policy(inst), backend="reference"
            )
            arr = self._attribution_json(
                inst, sched.make_policy(inst), backend="array"
            )
            assert arr == ref, sched.name


class _PastCommitPolicy(Policy):
    """Commits job 0's round 0 with *past* start times when job 1
    arrives at t=5 — the barrier wake for that round (computed t=1)
    then lies in the past and must be clamped to the current clock.
    Round 1 is committed only when the clamped barrier actually fires,
    so a lost or mis-batched wake deadlocks the kernel."""

    name = "past_commit"

    def __init__(self, instance):
        self._committed = set()
        self._instance = instance

    def _commit(self, job_id, round_idx, gpu, start):
        key = (job_id, round_idx)
        if key in self._committed:
            return []
        self._committed.add(key)
        return [
            Commitment(
                job_id,
                rnd=np.array([round_idx]),
                slot=np.array([0]),
                gpu=np.array([gpu]),
                start=np.array([start]),
                train=np.array([1.0]),
                sync=np.array([0.0]),
            )
        ]

    def on_event(self, event, state):
        commits = []
        if (
            event.type == KernelEventType.JOB_ARRIVED
            and event.payload == 1
        ):
            # job 0 round 0 on GPU 0, start=0: ends at t=1, four units
            # before the clock (now 5) — its barrier wake gets clamped.
            commits += self._commit(0, 0, gpu=0, start=0.0)
            commits += self._commit(1, 0, gpu=1, start=5.0)
        elif event.type == KernelEventType.ROUND_BARRIER_OPEN:
            job_id, round_idx = event.payload
            if (job_id, round_idx) == (0, 0):
                # only reachable through the clamped wake, at t=5
                assert state.now == 5.0
                commits += self._commit(0, 1, gpu=0, start=state.now)
        return commits


class TestWakeupClamping:
    def test_clamped_wake_lands_in_same_batch(self):
        """Regression: a barrier wake computed for t=1 but pushed at t=5
        fires at the clamped t=5. The policy commits round 1 only when
        that wake fires (asserting the time inside), so a lost wake
        deadlocks the kernel; the per-batch ``kernel.queue_depth``
        samples fingerprint the batch boundaries."""
        jobs = [
            Job(job_id=0, model="a", num_rounds=2, sync_scale=1),
            Job(job_id=1, model="b", num_rounds=1, sync_scale=1,
                arrival=5.0),
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((2, 2)),
            sync_time=np.zeros((2, 2)),
        )
        result, schedule, obs = _run(
            inst, _PastCommitPolicy(inst), backend="reference",
            max_events=64,
        )
        assert [t for t, _ in obs.metrics.timeline()[
            "kernel.queue_depth"
        ]] == [0.0, 5.0, 5.0]
        assert result.commitments == 3
        assert len(schedule) == inst.num_tasks
