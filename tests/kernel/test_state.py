"""KernelState views, the round-granular commitment contract, and the
one state both kernel loops keep."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Job, ProblemInstance, SimulationError
from repro.kernel import (
    ArraySchedulingKernel,
    Commitment,
    KernelState,
    SchedulingKernel,
)
from repro.schedulers.registry import create


@pytest.fixture
def inst() -> ProblemInstance:
    jobs = [
        Job(job_id=0, model="a", num_rounds=2, sync_scale=2),
        Job(job_id=1, model="b", num_rounds=1, sync_scale=1, arrival=1.5),
    ]
    tc = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 1.0]])
    ts = np.zeros((2, 3))
    return ProblemInstance(jobs=jobs, train_time=tc, sync_time=ts)


def round_block(inst, job_id, rounds, gpus, start=0.0):
    """A commitment placing each of *rounds* of *job_id* on *gpus*, one
    slot per GPU, round ``k`` of the block starting at ``start + k``."""
    k = len(rounds)
    gpu = np.tile(gpus, k)
    return Commitment(
        job_id,
        rnd=np.repeat(rounds, len(gpus)),
        slot=np.tile(np.arange(len(gpus)), k),
        gpu=gpu,
        start=np.repeat(start + np.arange(k, dtype=float), len(gpus)),
        train=inst.train_time[job_id, gpu],
        sync=inst.sync_time[job_id, gpu],
    )


class TestViews:
    def test_initial_state(self, inst):
        state = KernelState(inst)
        assert state.phi.tolist() == [0.0, 0.0, 0.0]
        assert state.arrived == set()
        assert state.rounds_done.tolist() == [0, 0]
        assert state.ready_at.tolist() == [0.0, 1.5]
        assert state.alive == {0, 1, 2}
        assert state.pending_arrivals == [0.0, 1.5]
        assert not state.complete()

    def test_known_and_unstarted_track_arrivals(self, inst):
        state = KernelState(inst)
        assert state.known_jobs() == []
        state.arrived.add(1)
        assert state.known_jobs() == [1]
        assert state.rounds_done.tolist() == [0, 0]
        state.rounds_done[1] = 1
        assert state.known_jobs() == [1]

    def test_free_gpus_respects_phi_and_liveness(self, inst):
        state = KernelState(inst)
        state.now = 1.0
        state.phi[:] = [0.5, 1.0, 2.0]
        assert state.free_gpus() == [0, 1]
        state.alive.discard(0)
        assert state.free_gpus() == [1]

    def test_next_arrival_time(self, inst):
        state = KernelState(inst)
        assert state.next_arrival_time() == 0.0
        state.pending_arrivals = [1.5]
        assert state.next_arrival_time() == 1.5
        state.pending_arrivals = []
        assert state.next_arrival_time() is None

    def test_remaining_rounds_and_complete(self, inst):
        state = KernelState(inst)
        assert (state.instance.num_rounds - state.rounds_done).tolist() == [2, 1]
        state.rounds_done[:] = [2, 1]
        assert (state.instance.num_rounds - state.rounds_done).tolist() == [0, 0]
        assert state.complete()


class TestCheckCommitment:
    def test_full_round_in_order_passes(self, inst):
        state = KernelState(inst)
        c = round_block(inst, 0, [0], [0, 1])
        state.check_commitment(c)  # does not raise

    def test_partial_round_rejected(self, inst):
        state = KernelState(inst)
        half = round_block(inst, 0, [0], [0])
        with pytest.raises(SimulationError, match="1/2 tasks"):
            state.check_commitment(half)

    def test_out_of_order_round_rejected(self, inst):
        state = KernelState(inst)
        c = round_block(inst, 0, [1], [0, 1])
        with pytest.raises(SimulationError, match="do not extend"):
            state.check_commitment(c)

    def test_multi_round_prefix_accepted(self, inst):
        state = KernelState(inst)
        c = round_block(inst, 0, [0, 1], [0, 1])
        state.check_commitment(c)


@pytest.mark.parametrize("name", ["gavel_ts", "hare", "sched_allox"])
def test_both_loops_leave_the_same_state(small_instance, name):
    """One state for both loops: after a planned run the array loop's
    state — commit log, φ, ``rounds_done``, ``ready_at`` — equals the
    reference loop's."""
    ref, arr = (
        kernel(small_instance, create(name).make_policy(small_instance))
        for kernel in (SchedulingKernel, ArraySchedulingKernel)
    )
    ref.run()
    arr.run()
    a, b = ref.state, arr.state
    assert (a.now, a.arrived, a.pending_arrivals) == (
        b.now, b.arrived, b.pending_arrivals
    )
    for column in ("phi", "rounds_done", "ready_at"):
        assert getattr(a, column).tolist() == getattr(b, column).tolist()
    assert a.committed.n == b.committed.n
    for x, y in zip(a.committed.buffers, b.committed.buffers):
        assert x[: a.committed.n].tolist() == y[: b.committed.n].tolist()
