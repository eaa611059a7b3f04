"""The replay's parameter-server round barriers, seen through
``simulate_plan``: a round's barrier opens when its last gradient lands,
the next round waits for it, and every barrier is its realized round end.
"""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.cluster import testbed_cluster as _testbed_cluster
from repro.core import Job, ProblemInstance, SimulationError, TaskRef
from repro.core.schedule import schedule_from_mapping, schedule_from_rows
from repro.harness import make_workload
from repro.obs import Obs, use
from repro.schedulers import HareScheduler
from repro.sim import simulate_plan
from repro.workload import WorkloadConfig, build_instance


def two_slot_job(*, arrival=0.0, train=(1.0, 2.0), sync=(0.0, 0.0)):
    """One job, two rounds of two tasks, slot s on GPU s."""
    cluster = make_cluster(["V100", "V100"], gpus_per_node=1)
    jobs = [Job(job_id=0, model="m", num_rounds=2, sync_scale=2,
                arrival=arrival)]
    inst = ProblemInstance(
        jobs=jobs,
        train_time=np.array([train]),
        sync_time=np.array([sync]),
        gpu_labels=cluster.labels(),
    )
    return cluster, inst


@pytest.fixture
def small_testbed_plan():
    cluster = _testbed_cluster()
    jobs = make_workload(8, seed=2, config=WorkloadConfig(rounds_scale=0.1))
    inst = build_instance(jobs, cluster)
    return cluster, inst, HareScheduler(relaxation="fluid").schedule(inst)


def replay(cluster, inst, placements=None, **kw):
    plan = schedule_from_mapping(inst, placements or {
        TaskRef(0, r, s): (s, 2.0 * r) for r in range(2) for s in range(2)
    })
    obs = Obs.start()
    with use(obs):
        res = simulate_plan(cluster, inst, plan, **kw)
    barriers = {
        (i.args["job"], i.args["round"]): i.time
        for i in obs.tracer.instants if i.name.startswith("barrier ")
    }
    return res, barriers, obs


def start(res, j, r, s):
    return res.realized[TaskRef(j, r, s)].start


class TestBarriers:
    def test_round_completes_on_last_sync(self):
        # Slot 0 lands at 1.0, slot 1 at 2.0: round 1 waits for the last.
        res, barriers, _ = replay(*two_slot_job())
        assert barriers[0, 0] == 2.0
        assert start(res, 0, 1, 0) == start(res, 0, 1, 1) == 2.0

    def test_barrier_is_max_time(self):
        # Slot 0 trains longer but syncs faster: the barrier is the
        # latest sync end, not the latest compute end.
        res, barriers, _ = replay(
            *two_slot_job(train=(3.0, 1.0), sync=(0.5, 4.0))
        )
        assert barriers[0, 0] == max(3.0 + 0.5, 1.0 + 4.0) == 5.0
        assert start(res, 0, 1, 0) == 5.0

    def test_round_minus_one_always_open(self):
        # Round 0 waits for no barrier, only for its job's arrival.
        res, _, _ = replay(*two_slot_job(arrival=3.0), placements={
            TaskRef(0, r, s): (s, 3.0 + 2.0 * r)
            for r in range(2) for s in range(2)
        })
        assert start(res, 0, 0, 0) == start(res, 0, 0, 1) == 3.0

    def test_double_sync_rejected(self):
        # One task on two rows, the job's other slot on none.
        cluster, inst = two_slot_job()
        plan = schedule_from_rows(inst, [
            (0, 0, 0, 0, 0.0), (0, 0, 0, 1, 0.0),
            (0, 1, 0, 0, 2.0), (0, 1, 1, 1, 2.0),
        ])
        with pytest.raises(SimulationError, match="synchronized twice"):
            simulate_plan(cluster, inst, plan)

    def test_barrier_of_incomplete_round_rejected(self):
        # Round 0 never completes: round 1 never starts.
        cluster, inst = two_slot_job()
        plan = schedule_from_rows(inst, [
            (0, 0, 0, 0, 0.0), (0, 1, 0, 0, 2.0), (0, 1, 1, 1, 2.0),
        ])
        with pytest.raises(SimulationError, match="unfinished jobs \\[0\\]"):
            simulate_plan(cluster, inst, plan)

    def test_job_completion(self, small_testbed_plan):
        """Each job's completion and each round's barrier are the
        realized round ends."""
        cluster, inst, plan = small_testbed_plan
        obs = Obs.start()
        with use(obs):
            res = simulate_plan(cluster, inst, plan)
        job, rnd, _, end, _, _ = res.realized.round_spans()
        ends = dict(zip(zip(job.tolist(), rnd.tolist()), end.tolist()))
        barriers = {
            (i.args["job"], i.args["round"]): i.time
            for i in obs.tracer.instants if i.name.startswith("barrier ")
        }
        assert barriers == ends
        assert len(ends) == sum(j.num_rounds for j in inst.jobs)
        for j in res.metrics.per_job:
            assert j.completion == ends[j.job_id,
                                        inst.jobs[j.job_id].num_rounds - 1]

    def test_total_sync_counter(self):
        cluster, inst = two_slot_job()
        res, _, obs = replay(cluster, inst)
        assert obs.metrics.counter("sim.tasks").value == inst.num_tasks
        assert len(res.realized) == inst.num_tasks
