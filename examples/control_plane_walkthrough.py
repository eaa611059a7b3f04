#!/usr/bin/env python
"""The full Fig. 9 pipeline: submission → profiling → sequences → training.

Walks the §6 prototype's flow end to end: the workload is profiled into
a job table (reusing the profiler's historical database), the scheduler
plans per-GPU task sequences for the executors, the plan executes on the
discrete-event simulator, and the run ends with the traffic bill of the
control and data plane: submissions, sequences and acks, a gradient push
per task and a model update per round to the parameter server, model
checkpoints to the blob store, and completions back to the submitter.

Run:  python examples/control_plane_walkthrough.py
"""

import numpy as np

from repro.cluster import testbed_cluster
from repro.control import traffic_bill
from repro.harness import make_loaded_workload, make_problem, render_table
from repro.schedulers import HareScheduler
from repro.sim import simulate_plan
from repro.workload import TaskProfiler, WorkloadConfig


def main() -> None:
    cluster = testbed_cluster()
    jobs = make_loaded_workload(
        12,
        reference_gpus=cluster.num_gpus,
        load=1.5,
        seed=33,
        config=WorkloadConfig(rounds_scale=0.1),
    )
    print(f"Submitting {len(jobs)} jobs to the scheduler ...")
    profiler = TaskProfiler(cluster)
    instance = make_problem(cluster, jobs, profiler=profiler)
    plan = HareScheduler().plan(instance)
    sim = simulate_plan(cluster, instance, plan)
    bill = traffic_bill(instance, sim.realized, checkpoint_interval=5)

    print("\n== Sequences shipped ==")
    gpus, tasks = np.unique(plan.gpu, return_counts=True)
    rows = [
        [f"executor-{gpu} ({cluster.device(gpu).model.value})", n]
        for gpu, n in zip(gpus.tolist(), tasks.tolist())
    ]
    print(render_table(["endpoint", "tasks in sequence"], rows))

    print("\n== Completions ==")
    per_job = sim.metrics.per_job
    rows = [
        [j.job_id, instance.model[j.job_id], f"{j.completion:.1f} s"]
        for j in per_job[:6]
    ]
    print(render_table(["job", "model", "completed at"], rows))
    if len(per_job) > 6:
        print(f"... and {len(per_job) - 6} more")

    print("\n== Traffic bill ==")
    rows = [
        ["control messages", bill.messages],
        ["gradient pushes", bill.gradient_pushes],
        ["model updates", bill.model_updates],
        ["bulk payload", f"{bill.payload_bytes / 1e9:.2f} GB"],
        ["checkpoints written", bill.checkpoint_writes],
        ["checkpoint bytes", f"{bill.checkpoint_bytes / 1e9:.2f} GB"],
        ["profiler DB hits", profiler.database.hits],
        ["profiler DB misses", profiler.database.misses],
    ]
    print(render_table(["quantity", "value"], rows))

    m = sim.metrics
    print(
        f"\nWeighted JCT {m.total_weighted_flow:.1f} s, makespan "
        f"{m.makespan:.1f} s, switch overhead "
        f"{sim.telemetry.switch_overhead_fraction() * 100:.2f}% "
        f"of compute ({sim.telemetry.retention_hits} retention hits)."
    )


if __name__ == "__main__":
    main()
