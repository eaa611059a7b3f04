"""The kernel event loop: planned replay, batching, wake-ups, budgets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    InfeasibleProblemError,
    Job,
    ProblemInstance,
    SimulationError,
    metrics_from_schedule,
    validate_schedule,
)
from repro.kernel import (
    Commitment,
    Event,
    KernelEventType,
    PlannedPolicy,
    Policy,
    SchedulingKernel,
    run_policy,
)
from repro.obs import Obs, use
from repro.schedulers import (
    HareScheduler,
    SchedAlloxScheduler,
    TimeSliceScheduler,
)


def same_schedule(a, b) -> bool:
    """Assignment-for-assignment equality (gpu and start)."""
    if set(a.assignments) != set(b.assignments):
        return False
    return all(
        a[t].gpu == b[t].gpu and a[t].start == b[t].start
        for t in a.assignments
    )


class TestPlannedPolicy:
    """Clairvoyant adapter: the kernel realizes the plan verbatim."""

    @pytest.mark.parametrize(
        "planner",
        [
            HareScheduler(relaxation="fluid"),
            HareScheduler(relaxation="exact"),
            SchedAlloxScheduler(),
            TimeSliceScheduler(quantum_s=2.0),
        ],
        ids=lambda p: p.name,
    )
    def test_replay_equals_plan_exactly(self, tiny_instance, planner):
        plan = planner.schedule(tiny_instance)
        result = run_policy(tiny_instance, PlannedPolicy(planner))
        assert same_schedule(result.schedule, plan)
        assert result.metrics == metrics_from_schedule(plan)
        assert result.replans == 0

    def test_fig1_replay(self, fig1_instance):
        planner = HareScheduler(relaxation="exact")
        plan = planner.schedule(fig1_instance)
        result = run_policy(fig1_instance, PlannedPolicy(planner))
        assert same_schedule(result.schedule, plan)
        validate_schedule(result.schedule)

    def test_policy_name_mirrors_planner(self):
        policy = PlannedPolicy(HareScheduler())
        assert policy.name == HareScheduler().name

    def test_result_counts(self, tiny_instance):
        result = run_policy(
            tiny_instance, PlannedPolicy(HareScheduler(relaxation="fluid"))
        )
        total_rounds = sum(j.num_rounds for j in tiny_instance.jobs)
        assert result.commitments == total_rounds
        assert result.events > 0
        assert result.retracted_rounds == 0


class _CountingPolicy(PlannedPolicy):
    """Planned replay that records every event it is woken with."""

    def __init__(self, planner):
        super().__init__(planner)
        self.seen: list[Event] = []

    def on_event(self, event, state):
        self.seen.append(event)
        return super().on_event(event, state)


class TestBatching:
    def test_simultaneous_arrivals_all_applied_before_decisions(self):
        """Three jobs arriving at t=0 are all *arrived* when the policy
        first decides — the batch semantics of the retired loops."""
        jobs = [
            Job(job_id=n, model="m", num_rounds=1, sync_scale=1)
            for n in range(3)
        ]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((3, 2)),
            sync_time=np.zeros((3, 2)),
        )

        class Probe(Policy):
            name = "probe"
            snapshots: list[set[int]] = []

            def on_event(self, event, state):
                if event.type != KernelEventType.JOB_ARRIVED:
                    return []
                if state.rounds_done[event.payload]:
                    return []  # fixed-point re-invocation: already started
                Probe.snapshots.append(set(state.arrived))
                from repro.kernel import gang_commitment

                return [
                    gang_commitment(state, event.payload, [0], state.now)
                ]

        Probe.snapshots = []
        run_policy(inst, Probe())
        # Every arrival-decision saw the full simultaneous batch.
        assert all(s == {0, 1, 2} for s in Probe.snapshots)

    def test_barrier_events_fire_per_round(self, tiny_instance):
        policy = _CountingPolicy(HareScheduler(relaxation="fluid"))
        run_policy(tiny_instance, policy)
        barriers = {
            (e.time, e.payload)
            for e in policy.seen
            if e.type == KernelEventType.ROUND_BARRIER_OPEN
        }  # a set: fixed-point re-invocations replay the same event
        expected = sum(j.num_rounds - 1 for j in tiny_instance.jobs)
        assert len(barriers) == expected


class TestWakeupsAndGuards:
    def test_event_budget_trips_on_livelock(self, tiny_instance):
        class Lazy(Policy):
            name = "lazy"

            def on_event(self, event, state):
                return []

        with pytest.raises(InfeasibleProblemError, match="uncommitted"):
            run_policy(tiny_instance, Lazy())

    def test_max_events_cap_enforced(self, tiny_instance):
        with pytest.raises(SimulationError, match="event budget"):
            run_policy(
                tiny_instance,
                PlannedPolicy(HareScheduler(relaxation="fluid")),
                max_events=1,
            )

    def test_replan_interval_must_be_positive(self, tiny_instance):
        with pytest.raises(SimulationError, match="positive"):
            SchedulingKernel(
                tiny_instance,
                PlannedPolicy(HareScheduler()),
                replan_interval=0.0,
            )

    def test_replan_timer_reschedules(self, tiny_instance):
        policy = _CountingPolicy(HareScheduler(relaxation="fluid"))
        run_policy(tiny_instance, policy, replan_interval=0.5)
        timers = [
            e for e in policy.seen
            if e.type == KernelEventType.REPLAN_TIMER
        ]
        assert len(timers) >= 2  # fired and re-armed at least once

    def test_wake_clamps_past_dated_events(self, tiny_instance):
        kernel = SchedulingKernel(
            tiny_instance, PlannedPolicy(HareScheduler())
        )
        kernel.queue.push(Event(5.0, KernelEventType.GPU_FREE, 0))
        while kernel.queue:
            kernel.queue.pop()  # drain arrivals, then the 5.0 wake-up
        assert kernel.queue.now == 5.0
        kernel._wake(1.0, KernelEventType.GPU_FREE, 0)
        assert kernel.queue.peek().time == 5.0

    def test_dead_gpu_commitment_rejected(self):
        jobs = [Job(job_id=0, model="m", num_rounds=1, sync_scale=1)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((1, 2)),
            sync_time=np.zeros((1, 2)),
        )

        class OntoDead(Policy):
            name = "onto-dead"

            def on_event(self, event, state):
                if state.rounds_done[0]:
                    return []
                from repro.kernel import gang_commitment

                return [gang_commitment(state, 0, [1], state.now)]

        with pytest.raises(SimulationError, match="dead GPU"):
            run_policy(inst, OntoDead(), crashes=[(0.0, 1)])


def _block(job_id, rows):
    """A commitment of *job_id* from ``(round, slot, gpu, start)`` rows,
    each task training 1 s and syncing 0 s."""
    rnd, slot, gpu, start = (np.array(col) for col in zip(*rows))
    return Commitment(
        job_id, rnd=rnd, slot=slot, gpu=gpu, start=start.astype(float),
        train=np.ones(len(rows)), sync=np.zeros(len(rows)),
    )


class TestCommitmentRefusals:
    """The kernel refuses a malformed block with the same exception and
    message whichever check catches it: a block is one job's next
    complete rounds, each task once, on live GPUs."""

    @staticmethod
    def _refusal(blocks, crashes=None):
        jobs = [Job(job_id=0, model="m", num_rounds=2, sync_scale=2)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((1, 3)),
            sync_time=np.zeros((1, 3)),
        )

        class Scripted(Policy):
            name = "scripted"

            def __init__(self):
                self.pending = list(blocks)

            def on_event(self, event, state):
                if event.type != KernelEventType.JOB_ARRIVED:
                    return []
                out, self.pending = self.pending, []
                return out

        with pytest.raises(Exception) as err:
            run_policy(inst, Scripted(), crashes=crashes)
        return type(err.value).__name__, str(err.value)

    def test_a_repeated_task(self):
        block = _block(0, [(0, 0, 0, 0.0), (0, 0, 1, 0.0)])
        assert self._refusal([block]) == (
            "ScheduleValidationError",
            "constraint (5): task J0.r0.t0 assigned twice",
        )

    def test_a_committed_task_again(self):
        first = _block(0, [(0, 0, 0, 0.0), (0, 1, 1, 0.0)])
        again = _block(0, [(0, 0, 2, 1.0), (0, 1, 1, 1.0)])
        assert self._refusal([first, again]) == (
            "SimulationError",
            "job 0 commitment rounds [0] do not extend the committed "
            "prefix (1 done)",
        )

    def test_a_dead_gpu(self):
        block = _block(0, [(0, 0, 0, 0.0), (0, 1, 1, 0.0)])
        assert self._refusal([block], crashes=[(0.0, 1)]) == (
            "SimulationError",
            "commitment places J0.r0.t1 on dead GPU 1",
        )

    def test_a_dead_gpu_before_a_later_repeat(self):
        block = _block(0, [(0, 1, 1, 0.0), (0, 1, 2, 0.0)])
        assert self._refusal([block], crashes=[(0.0, 1)]) == (
            "SimulationError",
            "commitment places J0.r0.t1 on dead GPU 1",
        )

    def test_a_partial_round(self):
        block = _block(0, [(0, 0, 0, 0.0), (1, 0, 1, 1.0), (1, 1, 2, 1.0)])
        assert self._refusal([block]) == (
            "SimulationError",
            "commitment covers 1/2 tasks of job 0 round 0",
        )



class TestCommitmentRefusalsNumpy(TestCommitmentRefusals):
    """The same refusals when every block takes the numpy check, as a
    block wider than ``SMALL_BLOCK`` rows does."""

    @pytest.fixture(autouse=True)
    def _every_block_wide(self, monkeypatch):
        monkeypatch.setattr("repro.kernel.state.SMALL_BLOCK", 0)


@pytest.mark.parametrize("seed", range(20))
def test_small_and_wide_block_apply_agree(seed):
    """A block raises φ and wakes the same GPUs, to the bit and with
    built-in types, whether read row by row or with numpy."""
    from repro.kernel.runner import _raise_phi, _raise_phi_wide

    rng = np.random.default_rng(seed)
    scale, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    n = scale * k
    block = Commitment(
        0, rnd=np.repeat(np.arange(k), scale),
        slot=np.tile(np.arange(scale), k),
        gpu=rng.integers(0, 6, n), start=rng.uniform(0, 5, n).round(1),
        train=rng.uniform(0.1, 2, n), sync=rng.uniform(0, 1, n),
        gpu_release=[None, float(rng.uniform(0, 9))][seed % 2],
    )
    phi = rng.uniform(0, 6, 6).round(1)
    if seed % 4 == 0:  # φ already at the block's ends: nothing rises
        np.maximum.at(phi, block.gpu, block.start + block.train)
    small, wide = phi.copy(), phi.copy()
    got = _raise_phi(small, block, k - 1)
    want = _raise_phi_wide(wide, block, k - 1)
    assert got == want
    assert small.tolist() == wide.tolist()
    assert {type(v) for v in (*got[:2], *(x for f in got[2] for x in f))} <= {
        int, float,
    }

class TestObservability:
    def test_kernel_counters_and_histograms(self, tiny_instance):
        with use(Obs.start()) as obs:
            result = run_policy(
                tiny_instance, PlannedPolicy(HareScheduler("fluid"))
            )
            snap = obs.metrics.snapshot()
        assert snap["kernel.events"]["value"] == result.events
        assert snap["kernel.commitments"]["value"] == result.commitments
        assert (
            snap["kernel.commit_horizon_s"]["count"] == result.commitments
        )

    def test_kernel_track_instants_in_trace(self, tiny_instance):
        with use(Obs.start()) as obs:
            run_policy(
                tiny_instance, PlannedPolicy(HareScheduler("fluid"))
            )
            instants = obs.tracer.instants
        kernel_instants = [
            e for e in instants
            if e.track == "kernel" and e.name == "JOB_ARRIVED"
        ]
        assert len(kernel_instants) == len(tiny_instance.jobs)


class TestSteppedRun:
    """``advance`` in steps plus ``add_crash`` is the run with the crashes
    given up front: the chaos control plane steps one kernel this way."""

    @staticmethod
    def instance():
        from repro.cluster import scaled_cluster
        from repro.harness.experiments import make_loaded_workload
        from repro.workload import WorkloadConfig, build_instance

        jobs = make_loaded_workload(
            8, reference_gpus=6, load=1.0, seed=2,
            config=WorkloadConfig(rounds_scale=0.2),
        )
        return build_instance(jobs, scaled_cluster(6))

    @staticmethod
    def crashes(instance):
        from repro.kernel import KernelCrash

        restore = {j.job_id: 0.5 for j in instance.jobs}
        return [
            KernelCrash(
                time=4.0, gpu=1, detected_at=7.0, checkpoint_interval=2,
                restore_s=restore,
            ),
            # Crashes before the first one is detected.
            KernelCrash(
                time=6.0, gpu=3, detected_at=9.5, checkpoint_interval=2,
                restore_s=restore,
            ),
        ]

    @staticmethod
    def outcome(instance, name, step):
        from repro.schedulers import create

        kernel_crashes = TestSteppedRun.crashes(instance)
        with use(Obs.start()) as obs:
            policy = create(name).make_policy(instance)
            if step:
                kernel = SchedulingKernel(instance, policy)
                for crash in kernel_crashes:
                    kernel.advance(crash.time)
                    kernel.add_crash(crash)
                    kernel.advance(crash.fires_at)
            else:
                kernel = SchedulingKernel(
                    instance, policy, crashes=kernel_crashes
                )
            result = kernel.run()
            instants = [
                (e.time, e.track, e.name, sorted(e.args.items()))
                for e in obs.tracer.instants
            ]
            snap = obs.metrics.snapshot()
        cols = result.schedule
        return (
            [getattr(cols, n).tobytes() for n in (
                "job", "rnd", "slot", "gpu", "start", "train", "sync",
            )],
            result.metrics, result.events, result.commitments,
            result.replans, result.retracted_rounds, result.retractions,
            result.replan_instants, instants,
            snap["kernel.events"], snap["kernel.commitments"],
        )

    @pytest.mark.parametrize("name", ["hare", "srtf", "hare_online"])
    def test_stepped_run_equals_the_run_with_crashes_up_front(self, name):
        instance = self.instance()
        stepped = self.outcome(instance, name, step=True)
        assert stepped[6], "the crashes must retract something"
        assert stepped == self.outcome(instance, name, step=False)

    def test_advance_stops_at_until_and_once_complete(self, tiny_instance):
        kernel = SchedulingKernel(
            tiny_instance, PlannedPolicy(HareScheduler("fluid"))
        )
        kernel.advance(0.0)
        assert kernel.queue.now == 0.0
        assert kernel.queue.peek().time > 0.0
        kernel.advance(float("inf"))
        assert kernel.state.complete()
        # Wake-ups after the last commitment stay queued, as in run().
        events = kernel.processed
        assert kernel.run().events == events

    def test_add_crash_raises_the_default_event_budget(self, tiny_instance):
        kernel = SchedulingKernel(
            tiny_instance, PlannedPolicy(HareScheduler("fluid"))
        )
        budget = kernel.max_events
        kernel.add_crash((1.0, 0))
        assert kernel.max_events == budget + 16
        pinned = SchedulingKernel(
            tiny_instance, PlannedPolicy(HareScheduler("fluid")),
            max_events=100,
        )
        pinned.add_crash((1.0, 0))
        assert pinned.max_events == 100
