#!/usr/bin/env python
"""Day-2 operations: online arrivals, crashes, and who gets starved.

A production cluster never sees the offline world of §5: jobs arrive over
time, GPUs occasionally crash, and users complain if their job starves.
This example drives the extensions end to end:

1. schedule a bursty trace **online** (no future-arrival knowledge);
2. replay it on the DES with two injected GPU failures;
3. report efficiency (weighted JCT), resilience (wasted work), and
   finish-time fairness (Themis's ρ and Jain's index) — for online Hare
   against the strongest baseline.

Run:  python examples/day2_operations.py
"""

from repro.cluster import scaled_cluster
from repro.core import finish_time_fairness
from repro.harness import make_loaded_workload, make_problem, render_table
from repro.kernel import run_policy
from repro.schedulers import create
from repro.sim import simulate_plan
from repro.workload import WorkloadConfig


def main() -> None:
    cluster = scaled_cluster(16)
    jobs = make_loaded_workload(
        24,
        reference_gpus=16,
        load=1.8,
        seed=77,
        config=WorkloadConfig(rounds_scale=0.15),
    )
    instance = make_problem(cluster, jobs)

    rows = []
    for scheduler in (create("hare_online"), create("sched_allox")):
        # Drive each scheme through the scheduling kernel: hare_online
        # re-plans natively at every arrival event, sched_allox runs its
        # offline plan behind the kernel's PlannedPolicy adapter.
        plan = run_policy(
            instance, scheduler.make_policy(instance)
        ).schedule
        clean = simulate_plan(cluster, instance, plan)
        # two GPUs crash mid-run; 10 s to restart each
        failures = [
            (clean.makespan * 0.3, 0, 10.0), (clean.makespan * 0.5, 3, 10.0)
        ]
        crashed = simulate_plan(cluster, instance, plan, failures=failures)
        fair = finish_time_fairness(instance, crashed.metrics)
        rows.append(
            [
                scheduler.name,
                clean.metrics.total_weighted_flow,
                crashed.metrics.total_weighted_flow,
                crashed.telemetry.wasted_compute_s,
                fair.max_rho,
                fair.jain_index,
            ]
        )
    print(
        render_table(
            [
                "scheduler",
                "wJCT (clean)",
                "wJCT (2 crashes)",
                "wasted compute (s)",
                "worst slowdown ρ",
                "Jain fairness",
            ],
            rows,
            title=(
                "Day-2 operations: online scheduling + GPU crashes "
                "(16 GPUs, 24 jobs)"
            ),
            float_fmt="{:.2f}",
        )
    )
    online, allox = rows
    print(
        f"\nOnline Hare absorbs the crashes with "
        f"{online[2] / online[1] - 1:+.1%} weighted JCT and keeps its worst "
        f"job within {online[4]:.1f}x of its isolated runtime; "
        f"{allox[0]}'s worst job waits {allox[4]:.1f}x."
    )


if __name__ == "__main__":
    main()
