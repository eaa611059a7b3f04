"""End-to-end tests of the control plane (Fig. 9 pipeline)."""

import pytest

from repro.cluster import make_cluster
from repro.control import ControlPlane
from repro.core import SwitchMode
from repro.core.errors import ConfigurationError, SimulationError
from repro.harness.experiments import make_loaded_workload
from repro.schedulers import SchedAlloxScheduler
from repro.workload import WorkloadConfig


@pytest.fixture(scope="module")
def outcome():
    cluster = make_cluster(["V100", "T4", "K80", "V100"])
    cp = ControlPlane(cluster)
    jobs = make_loaded_workload(
        6, reference_gpus=4, load=1.5, seed=2,
        config=WorkloadConfig(rounds_scale=0.05),
    )
    cp.submit(jobs)
    return jobs, cp, cp.run()


class TestPipelineConservation:
    def test_one_ack_per_busy_gpu(self, outcome):
        jobs, cp, res = outcome
        assert len(res.acks) == len(res.sim.telemetry.busy)
        for ack in res.acks:
            assert ack.num_tasks > 0

    def test_gradient_push_per_task(self, outcome):
        jobs, cp, res = outcome
        assert res.gradient_pushes == res.instance.num_tasks

    def test_model_update_per_round(self, outcome):
        jobs, cp, res = outcome
        assert res.model_updates == sum(j.num_rounds for j in jobs)

    def test_completion_per_job(self, outcome):
        jobs, cp, res = outcome
        assert len(res.completions) == len(jobs)
        for c, job in zip(res.completions, jobs):
            assert c.job_id == job.job_id
            assert c.completion_time == pytest.approx(
                res.sim.metrics.per_job[job.job_id].completion
            )

    def test_checkpoints_written(self, outcome):
        jobs, cp, res = outcome
        # at least the final checkpoint of every job
        assert cp.store.writes >= len(jobs)
        assert res.checkpoint_bytes > 0

    def test_traffic_accounted(self, outcome):
        jobs, cp, res = outcome
        assert res.control_messages >= (
            len(jobs) + len(res.acks) * 2 + res.gradient_pushes
        )
        assert res.payload_bytes > 0
        # gradients dominate payload: every task pushes its model-size worth
        assert res.payload_bytes >= res.gradient_pushes * 1e6

    def test_inboxes_drained(self, outcome):
        jobs, cp, res = outcome
        from repro.control import PS, SCHEDULER, UPPER

        for endpoint in (UPPER, SCHEDULER, PS):
            assert cp.transport.pending(endpoint) == 0


class TestConfigurations:
    def test_alternate_scheduler(self):
        cluster = make_cluster(["V100", "K80"])
        cp = ControlPlane(cluster, scheduler=SchedAlloxScheduler())
        jobs = make_loaded_workload(
            3, reference_gpus=2, load=1.0, seed=5,
            config=WorkloadConfig(rounds_scale=0.04, max_sync_scale=2),
        )
        cp.submit(jobs)
        res = cp.run()
        assert len(res.completions) == 3

    def test_switch_mode_propagates(self):
        cluster = make_cluster(["V100", "K80"])
        jobs = make_loaded_workload(
            3, reference_gpus=2, load=1.0, seed=5,
            config=WorkloadConfig(rounds_scale=0.04, max_sync_scale=2),
        )
        results = {}
        for mode in (SwitchMode.DEFAULT, SwitchMode.HARE):
            cp = ControlPlane(cluster, switch_mode=mode)
            cp.submit(jobs)
            results[mode] = cp.run().sim.total_weighted_completion
        assert results[SwitchMode.HARE] <= results[SwitchMode.DEFAULT]

    def test_run_without_submissions(self):
        cp = ControlPlane(make_cluster(["V100"]))
        with pytest.raises(SimulationError):
            cp.run()

    @pytest.mark.parametrize("interval", [0, -1])
    def test_checkpoint_interval_below_one_rejected(self, interval):
        with pytest.raises(
            ConfigurationError, match="checkpoint interval must be >= 1"
        ):
            ControlPlane(
                make_cluster(["V100"]), checkpoint_interval=interval
            )

    def test_profiler_database_reused(self):
        from repro.core import Domain

        cluster = make_cluster(["V100", "V100"])
        cp = ControlPlane(cluster)
        # restrict to one domain and one sync scale so several jobs share a
        # (model, batch, scale) profile key — the repeated-submission case
        # the paper's database targets
        jobs = make_loaded_workload(
            8, reference_gpus=2, load=1.0, seed=6,
            config=WorkloadConfig(
                rounds_scale=0.04,
                max_sync_scale=1,
                domain_mix={Domain.REC: 1.0},
            ),
        )
        cp.submit(jobs)
        cp.run()
        assert cp.profiler.database.hits > 0
