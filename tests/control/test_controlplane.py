"""End-to-end tests of the control plane (Fig. 9 pipeline): the traffic
bill of a fault-free run, and the one entry point, ``run_chaos``."""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.control import ControlPlane, traffic_bill
from repro.core import SwitchMode, validate_schedule
from repro.core.errors import ConfigurationError
from repro.faults import FaultScenario
from repro.harness.experiments import make_loaded_workload, make_problem
from repro.schedulers import HareScheduler, SchedAlloxScheduler
from repro.sim import simulate_plan
from repro.workload import WorkloadConfig


def billed(cluster, jobs, scheduler, *, checkpoint_interval=10):
    """Plan, replay and bill *jobs* on *cluster*."""
    instance = make_problem(cluster, jobs)
    sim = simulate_plan(cluster, instance, scheduler.plan(instance))
    bill = traffic_bill(
        instance, sim.realized, checkpoint_interval=checkpoint_interval
    )
    return instance, sim, bill


@pytest.fixture(scope="module")
def outcome():
    cluster = make_cluster(["V100", "T4", "K80", "V100"])
    jobs = make_loaded_workload(
        6, reference_gpus=4, load=1.5, seed=2,
        config=WorkloadConfig(rounds_scale=0.05),
    )
    return (jobs, *billed(cluster, jobs, HareScheduler()))


class TestPipelineConservation:
    def test_one_ack_per_busy_gpu(self, outcome):
        jobs, instance, sim, bill = outcome
        assert bill.sequences == bill.acks == len(sim.telemetry.busy)

    def test_gradient_push_per_task(self, outcome):
        jobs, instance, sim, bill = outcome
        assert bill.gradient_pushes == instance.num_tasks

    def test_model_update_per_round(self, outcome):
        jobs, instance, sim, bill = outcome
        assert bill.model_updates == sum(j.num_rounds for j in jobs)

    def test_completion_per_job(self, outcome):
        jobs, instance, sim, bill = outcome
        assert bill.submissions == bill.completions == len(jobs)

    def test_checkpoints_written(self, outcome):
        jobs, instance, sim, bill = outcome
        # at least the final checkpoint of every job
        assert bill.checkpoint_writes >= len(jobs)
        assert bill.checkpoint_bytes > 0

    def test_traffic_accounted(self, outcome):
        jobs, instance, sim, bill = outcome
        assert bill.messages == (
            len(jobs) * 2 + bill.acks * 2 + bill.gradient_pushes
            + bill.model_updates
        )
        assert bill.payload_bytes > 0
        # gradients dominate payload: every task pushes its model-size worth
        assert bill.payload_bytes >= bill.gradient_pushes * 1e6

    def test_inboxes_drained(self, outcome):
        """A fault-free ``run_chaos`` leaves no message undelivered, and
        its wire carries the bill's submissions, sequences and
        completions (an RPC's ack rides the RPC), and no bulk traffic."""
        from repro.control import PS, SCHEDULER, UPPER

        jobs, instance, sim, bill = outcome
        cp = ControlPlane(make_cluster(["V100", "T4", "K80", "V100"]))
        result = cp.run_chaos(instance, FaultScenario())
        validate_schedule(result.realized, check_durations=False)
        for endpoint in (UPPER, SCHEDULER, PS):
            assert cp.transport.pending(endpoint) == 0
        assert result.control_messages == (
            bill.submissions + bill.sequences + bill.completions
        )
        assert result.payload_bytes == 0.0


class TestConfigurations:
    def test_alternate_scheduler(self):
        cluster = make_cluster(["V100", "K80"])
        jobs = make_loaded_workload(
            3, reference_gpus=2, load=1.0, seed=5,
            config=WorkloadConfig(rounds_scale=0.04, max_sync_scale=2),
        )
        _, _, bill = billed(cluster, jobs, SchedAlloxScheduler())
        assert bill.completions == 3

    def test_switch_mode_propagates(self):
        cluster = make_cluster(["V100", "K80"])
        jobs = make_loaded_workload(
            3, reference_gpus=2, load=1.0, seed=5,
            config=WorkloadConfig(rounds_scale=0.04, max_sync_scale=2),
        )
        results = {}
        for mode in (SwitchMode.DEFAULT, SwitchMode.HARE):
            cp = ControlPlane(cluster, switch_mode=mode)
            sim = cp.run_chaos(make_problem(cluster, jobs), FaultScenario()).sim
            validate_schedule(sim.realized, check_durations=False)
            results[mode] = sim.total_weighted_completion
        assert results[SwitchMode.HARE] <= results[SwitchMode.DEFAULT]

    @pytest.mark.parametrize("interval", [0, -1])
    def test_checkpoint_interval_below_one_rejected(self, interval):
        with pytest.raises(
            ConfigurationError, match="checkpoint interval must be >= 1"
        ):
            ControlPlane(
                make_cluster(["V100"]), checkpoint_interval=interval
            )

    def test_profiler_database_reused(self):
        """The pipeline's profiling step (``make_problem``) answers
        repeated (model, batch, scale) keys from the historical database,
        the repeated-submission case the paper's database targets."""
        from repro.core import Domain
        from repro.workload import TaskProfiler

        cluster = make_cluster(["V100", "V100"])
        profiler = TaskProfiler(cluster)
        # restrict to one domain and one sync scale so several jobs share a
        # (model, batch, scale) profile key
        jobs = make_loaded_workload(
            8, reference_gpus=2, load=1.0, seed=6,
            config=WorkloadConfig(
                rounds_scale=0.04,
                max_sync_scale=1,
                domain_mix={Domain.REC: 1.0},
            ),
        )
        make_problem(cluster, jobs, profiler=profiler)
        assert profiler.database.hits > 0

    def test_checkpoint_interval_counts_writes(self, outcome):
        """Every *interval* rounds plus the final one, per job."""
        jobs, instance, sim, _ = outcome
        for interval in (1, 3):
            bill = traffic_bill(
                instance, sim.realized, checkpoint_interval=interval
            )
            assert bill.checkpoint_writes == int(
                (instance.num_rounds // interval + 1).sum()
            )
        with pytest.raises(
            ConfigurationError, match="checkpoint interval must be >= 1"
        ):
            traffic_bill(instance, sim.realized, checkpoint_interval=0)

    def test_payload_is_gradients_plus_models(self, outcome):
        from repro.workload.models import spec_or_synthetic

        jobs, instance, sim, bill = outcome
        specs = [spec_or_synthetic(job.model) for job in jobs]
        tasks = np.bincount(sim.realized.job, minlength=len(jobs))
        assert bill.payload_bytes == pytest.approx(sum(
            n * s.gradient_bytes + job.num_rounds * s.model_bytes
            for n, s, job in zip(tasks.tolist(), specs, jobs)
        ))
