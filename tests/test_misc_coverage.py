"""Edge-path tests that don't fit a single module's suite."""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.cluster.node import GPUDevice, Node
from repro.cluster.gpu import gpu_spec
from repro.core import Job, ProblemInstance
from repro.core.errors import ConfigurationError
from repro.control import ControlPlane
from repro.api import compare
from repro.harness.experiments import make_loaded_workload
from repro.schedulers import OnlineHareScheduler, TimeSliceScheduler
from repro.workload import WorkloadConfig


class TestNodeValidation:
    def test_mislabeled_gpu_rejected(self):
        spec = gpu_spec("V100")
        bad = GPUDevice(gpu_id=0, node_id=9, local_index=0, spec=spec)
        with pytest.raises(ConfigurationError):
            Node(node_id=0, gpus=(bad,))

    def test_wrong_local_index_rejected(self):
        spec = gpu_spec("V100")
        bad = GPUDevice(gpu_id=0, node_id=0, local_index=3, spec=spec)
        with pytest.raises(ConfigurationError):
            Node(node_id=0, gpus=(bad,))


class TestJobEstimates:
    def test_remaining_estimate_with_no_free_gpus(self):
        jobs = [Job(job_id=0, model="m", num_rounds=4, sync_scale=2)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.array([[1.0, 3.0]]),
            sync_time=np.zeros((1, 2)),
        )
        # serialized on the fastest GPU: 4 rounds x 2 tasks x 1.0
        assert inst.remaining_time_estimate(0, 0, []) == pytest.approx(8.0)


class TestQuickCompareTestbedPath:
    def test_uses_testbed_for_15_gpus(self):
        comparison = compare(
            jobs=4, gpus=15, seed=2, rounds_scale=0.04, trace=False
        )
        assert "Hare" in comparison.results
        assert comparison["Hare"].cluster.num_gpus == 15


class TestControlPlaneWithExtensionSchedulers:
    @pytest.mark.parametrize(
        "scheduler",
        [OnlineHareScheduler(), TimeSliceScheduler(quantum_s=5.0)],
        ids=lambda s: s.name,
    )
    def test_pipeline_runs(self, scheduler):
        cluster = make_cluster(["V100", "T4"])
        cp = ControlPlane(cluster, scheduler=scheduler)
        jobs = make_loaded_workload(
            3, reference_gpus=2, load=1.0, seed=9,
            config=WorkloadConfig(rounds_scale=0.04, max_sync_scale=2),
        )
        cp.submit(jobs)
        res = cp.run()
        assert len(res.completions) == 3
        assert res.gradient_pushes == res.instance.num_tasks


class TestGangDeadlockGuards:
    def test_job_wider_than_cluster_fails_cleanly(self):
        from repro.core import InfeasibleProblemError
        from repro.schedulers import GavelFifoScheduler

        jobs = [Job(job_id=0, model="m", sync_scale=3)]
        inst = ProblemInstance(
            jobs=jobs,
            train_time=np.ones((1, 2)),
            sync_time=np.zeros((1, 2)),
        )
        with pytest.raises(InfeasibleProblemError):
            GavelFifoScheduler().schedule(inst)


class TestOnlineSchedulerCustomSolver:
    def test_custom_relaxation_object(self, tiny_instance):
        from repro.core import validate_schedule
        from repro.schedulers import FluidRelaxationSolver

        sched = OnlineHareScheduler(
            relaxation=FluidRelaxationSolver(harmonic=True)
        )
        validate_schedule(sched.plan(tiny_instance))

    def test_unknown_relaxation_rejected(self, tiny_instance):
        from repro.core import SolverError

        with pytest.raises(SolverError):
            OnlineHareScheduler(relaxation="bogus").plan(tiny_instance)
