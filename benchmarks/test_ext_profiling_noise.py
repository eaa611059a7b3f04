"""Extension — robustness of Hare to profiling error.

Hare's scheduler consumes profiled task times (§3's profiler + database).
Real measurements carry noise; this bench plans with noisy ``T^c``/``T^s``
estimates and evaluates the resulting schedule against the *true* times,
sweeping the measurement noise level. The paper's profiler averages several
mini-batches, so a few percent of error is the realistic regime.
"""

from benchmarks.conftest import run_once
from repro.core import Schedule, metrics_from_schedule, schedule_from_rows
from repro.harness import render_series
from repro.harness.experiments import make_loaded_workload, make_problem
from repro.schedulers import HareScheduler
from repro.workload import TaskProfiler, WorkloadConfig, build_instance

NOISE_LEVELS = (0.0, 0.02, 0.05, 0.10, 0.20)


def reevaluate(plan: Schedule, truth) -> float:
    """Replan's decisions charged at the true times (order preserved).

    Re-executes the plan's per-GPU task order and assignment against the
    true instance, recomputing start times from true durations.
    """
    phi = [0.0] * truth.num_gpus
    barrier: dict[tuple[int, int], float] = {}
    done: dict[tuple[int, int], int] = {}
    realized = []
    order = sorted(
        plan.assignments.values(), key=lambda a: (a.start, a.task)
    )
    pending = list(order)
    guard = 0
    while pending:
        guard += 1
        if guard > len(order) ** 2 + 10:
            raise RuntimeError("replay did not converge")
        rest = []
        for a in pending:
            job = truth.jobs[a.task.job_id]
            if a.task.round_idx > 0:
                key = (a.task.job_id, a.task.round_idx - 1)
                if done.get(key, 0) != job.sync_scale:
                    rest.append(a)
                    continue
                avail = barrier[key]
            else:
                avail = job.arrival
            start = max(avail, phi[a.gpu])
            tc = truth.tc(a.task.job_id, a.gpu)
            ts = truth.ts(a.task.job_id, a.gpu)
            realized.append(
                (a.task.job_id, a.task.round_idx, a.task.slot, a.gpu, start)
            )
            phi[a.gpu] = start + tc
            rkey = (a.task.job_id, a.task.round_idx)
            done[rkey] = done.get(rkey, 0) + 1
            barrier[rkey] = max(barrier.get(rkey, 0.0), start + tc + ts)
        pending = rest
    return metrics_from_schedule(
        schedule_from_rows(truth, realized)
    ).total_weighted_flow


def test_ext_profiling_noise(benchmark, report, testbed):
    jobs = make_loaded_workload(
        24, reference_gpus=15, load=1.8, seed=37,
        config=WorkloadConfig(rounds_scale=0.1),
    )
    truth = make_problem(testbed, jobs)

    def run():
        flows = []
        for sigma in NOISE_LEVELS:
            profiler = TaskProfiler(testbed, noise_sigma=sigma,
                                    profile_batches=1)
            profiler.reseed(99)
            noisy = build_instance(jobs, testbed, profiler=profiler)
            plan = HareScheduler(relaxation="fluid").schedule(noisy)
            flows.append(reevaluate(plan, truth))
        return flows

    flows = run_once(benchmark, run)
    report(
        render_series(
            "noise σ",
            [f"{s:.0%}" for s in NOISE_LEVELS],
            {"Hare wJCT (true times)": flows},
            title="Extension — Hare under profiling measurement noise",
            float_fmt="{:.1f}",
        )
    )

    clean = flows[0]
    # realistic noise (≤5%) costs almost nothing
    assert flows[1] <= 1.10 * clean
    assert flows[2] <= 1.15 * clean
    # even 20% noise degrades gracefully, not catastrophically
    assert flows[-1] <= 1.5 * clean
