"""Extension — resilience of Hare schedules to GPU failures.

The §6 prototype checkpoints every job through the PS; completed rounds
are never lost when a GPU crashes (the gradients already reached the
server). This bench injects crashes into a Hare replay and measures the
cost: weighted JCT inflation, wasted compute, and re-executed attempts —
sweeping the number of failing GPUs.
"""

from benchmarks.conftest import run_once
from repro.harness import render_table
from repro.harness.experiments import make_loaded_workload, make_problem
from repro.schedulers import HareScheduler
from repro.sim import simulate_plan
from repro.workload import WorkloadConfig

FAIL_COUNTS = (0, 2, 5, 10)


def test_ext_failures(benchmark, report, testbed):
    jobs = make_loaded_workload(
        24, reference_gpus=15, load=1.8, seed=67,
        config=WorkloadConfig(rounds_scale=0.1),
    )
    instance = make_problem(testbed, jobs)
    plan = HareScheduler(relaxation="fluid").schedule(instance)
    clean = simulate_plan(testbed, instance, plan)
    mk = clean.makespan

    def run():
        rows = []
        for n_fail in FAIL_COUNTS:
            failures = [
                (mk * (0.2 + 0.05 * i), i % instance.num_gpus)
                for i in range(n_fail)
            ]
            res = simulate_plan(
                testbed, instance, plan,
                failures=failures, restart_delay_s=5.0,
            )
            rows.append(
                (
                    n_fail,
                    res.metrics.total_weighted_flow,
                    res.telemetry.aborted_attempts,
                    res.telemetry.wasted_compute_s,
                )
            )
        return rows

    rows = run_once(benchmark, run)
    base = rows[0][1]
    report(
        render_table(
            ["failures", "weighted JCT", "aborted attempts",
             "wasted compute (s)", "inflation"],
            [[n, f, a, w, f / base] for n, f, a, w in rows],
            title="Extension — crash resilience (15 GPUs, 24 jobs, 5 s restarts)",
            float_fmt="{:.2f}",
        )
    )

    # no failures == the clean replay
    assert rows[0][1] == clean.metrics.total_weighted_flow
    # failures only delay, monotonically in count (same crash schedule prefix)
    flows = [r[1] for r in rows]
    assert all(a <= b + 1e-9 for a, b in zip(flows, flows[1:]))
    # every run still completes every job, and even 10 crashes cost < 3x:
    # a failed GPU stays down for the full 5 s restart delay, and the
    # outage spreads through the barriers its queued rounds hold up
    # (2.28x at 10 crashes)
    assert flows[-1] < 3.0 * flows[0]
