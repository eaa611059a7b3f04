"""The trace-driven cluster simulator (§7.1).

:class:`ClusterSimulator` replays a scheduler's plan on a modeled cluster
with the dynamics the plan ignores: task-switch overhead (per the chosen
:class:`~repro.core.types.SwitchMode`), speculative-memory retention hits,
and parameter-server barrier bookkeeping. The paper validated its simulator
against the physical testbed within 5 %; here the analytic plan and the DES
replay play those two roles, and :class:`SimResult` exposes the deviation.

The replay preserves each GPU's task order (executors follow the shipped
sequence, Fig. 9) but recomputes every start time from actual readiness:
GPU free + job arrived + previous round's barrier open (+ the task's
release time, when the run ships it late).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..cluster.cluster import Cluster
from ..core.errors import ConfigurationError, SimulationError
from ..core.job import ProblemInstance
from ..core.metrics import ScheduleMetrics, metrics_from_completions
from ..core.schedule import Schedule, TaskAssignment
from ..core.types import SwitchMode, TaskRef
from ..obs import Category, gpu_track, job_track
from ..obs import current as obs_current
from ..obs.metrics import NullRegistry
from ..switching.costmodel import SwitchCostModel
from ..workload.models import spec_or_synthetic
from .events import EventType
from .executor import build_executors
from .paramserver import ParameterServerPool
from .telemetry import TaskRecord, Telemetry

#: Heap priorities: at one timestamp sync completions commit first (they
#: may open barriers), then compute completions, arrivals, checks, crashes.
SYNC, COMPUTE, ARRIVAL, CHECK, FAILURE = (int(t) for t in EventType)
EVENT_NAMES = [t.name for t in EventType]
#: Track every dispatched event appears under in exported traces.
ENGINE_TRACK = "engine"


@dataclass(frozen=True, slots=True)
class SimResult:
    """Outcome of one simulation run."""

    realized: Schedule
    metrics: ScheduleMetrics
    telemetry: Telemetry
    pool: ParameterServerPool
    events_processed: int
    #: start attempts: executors the loop tried to start
    wakeups: int

    @property
    def total_weighted_completion(self) -> float:
        return self.metrics.total_weighted_completion

    @property
    def makespan(self) -> float:
        return self.metrics.makespan


@dataclass(slots=True)
class ClusterSimulator:
    """Replays schedules on a cluster model with switching dynamics."""

    cluster: Cluster
    instance: ProblemInstance
    switch_mode: SwitchMode = SwitchMode.HARE
    switch_model: SwitchCostModel | None = None
    #: Override speculative-memory retention (None = per switch mode).
    #: Setting False under HARE ablates speculative memory while keeping
    #: early cleaning — the §4 ablation.
    retention_enabled: bool | None = None
    #: Per-task multiplicative runtime jitter (σ of a clipped normal around
    #: 1.0). Fig. 11 measures a few percent of round-to-round variation;
    #: this injects it at execution time so plans face realistic noise.
    jitter_sigma: float = 0.0
    jitter_seed: int = 0
    #: Injected GPU failures: (time, gpu_id) pairs. At each failure the
    #: GPU crashes: its running task (if any) is lost and re-executed from
    #: the head of the queue, device memory and CUDA context are wiped, and
    #: the executor restarts after ``restart_delay_s``. Rounds never lose
    #: completed work (gradients already synchronized are safe at the PS —
    #: the checkpointing story of §6).
    failures: list[tuple[float, int]] = field(default_factory=list)
    restart_delay_s: float = 1.0
    #: Earliest start per task: a task shipped after t=0 (a crash
    #: recovery's re-planned sequence, a restored job's next round) cannot
    #: start before it arrives, however early its GPU and barrier free up.
    releases: Mapping[TaskRef, float] = field(default_factory=dict)
    #: Transient straggler windows: (start, end, gpu_id, factor). A task
    #: *started* on the GPU inside the window trains ``factor``× slower —
    #: the realized telemetry reflects the inflated duration.
    slowdowns: list[tuple[float, float, int, float]] = field(
        default_factory=list
    )
    #: Model NIC sharing: concurrent gradient syncs from GPUs of the same
    #: node split the machine's NIC, inflating each sync by the number of
    #: transfers in flight on that node when it starts. The analytic plan
    #: ignores this (as the paper's formulation does); enabling it measures
    #: the resulting plan/realized gap.
    nic_contention: bool = False

    def __post_init__(self) -> None:
        if self.cluster.num_gpus != self.instance.num_gpus:
            raise SimulationError(
                f"cluster has {self.cluster.num_gpus} GPUs but the instance "
                f"expects {self.instance.num_gpus}"
            )
        num_gpus = self.cluster.num_gpus
        for time, gpu_id in self.failures:
            if time < 0:
                raise ConfigurationError(
                    f"failure time must be >= 0, got {time} (GPU {gpu_id})"
                )
            if not 0 <= gpu_id < num_gpus:
                raise ConfigurationError(
                    f"failure injected on unknown GPU {gpu_id}; the "
                    f"cluster has GPUs 0..{num_gpus - 1}"
                )
        for start, end, gpu_id, factor in self.slowdowns:
            if start < 0 or end <= start:
                raise ConfigurationError(
                    f"slowdown window ({start}, {end}) must satisfy "
                    f"0 <= start < end"
                )
            if not 0 <= gpu_id < num_gpus:
                raise ConfigurationError(
                    f"slowdown targets unknown GPU {gpu_id}; the cluster "
                    f"has GPUs 0..{num_gpus - 1}"
                )
            if factor < 1.0:
                raise ConfigurationError(
                    f"slowdown factor must be >= 1, got {factor}"
                )
        for task, time in self.releases.items():
            if not (math.isfinite(time) and time >= 0):
                raise ConfigurationError(
                    f"release of {task} must be a finite time >= 0, "
                    f"got {time}"
                )

    # ------------------------------------------------------------------
    def _jitter(
        self, sequences: dict[int, list[TaskAssignment]]
    ) -> dict[int, list[TaskAssignment]]:
        """Perturb each task's train/sync time by a clipped normal factor."""
        import numpy as np

        rng = np.random.default_rng(self.jitter_seed)
        out: dict[int, list[TaskAssignment]] = {}
        for gpu, seq in sorted(sequences.items()):
            jittered = []
            for a in seq:
                f_tc, f_ts = np.clip(
                    rng.normal(1.0, self.jitter_sigma, size=2), 0.5, 1.5
                )
                jittered.append(
                    TaskAssignment(
                        task=a.task,
                        gpu=a.gpu,
                        start=a.start,
                        train_time=a.train_time * float(f_tc),
                        sync_time=a.sync_time * float(f_ts),
                    )
                )
            out[gpu] = jittered
        return out

    # ------------------------------------------------------------------
    def run(self, plan: Schedule) -> SimResult:
        """Replay *plan*: one event loop over plain ``(time, priority,
        seq, gpu, payload)`` heap entries (DESIGN §13).

        An idle executor whose head cannot start is parked on what it
        waits for: its job's arrival, the previous round's barrier, or
        the ``held`` set (restart window or unshipped release). A scan —
        an arrival or a barrier opening — tries only the executors it can
        wake, in device order, which is exactly the set a scan of every
        executor would start.
        """
        instance = self.instance
        jobs = instance.jobs
        for task in self.releases:
            if task not in plan:
                raise ConfigurationError(
                    f"release for {task}, which is not in the plan"
                )
        obs = obs_current()
        tracer = obs.tracer
        traced = tracer.enabled
        registry = obs.metrics
        sampled = not isinstance(registry, NullRegistry)
        pool = ParameterServerPool(instance)
        releases = self.releases
        nic = self.nic_contention

        switch_model = self.switch_model or SwitchCostModel(
            mode=self.switch_mode
        )
        if switch_model.mode is not self.switch_mode:
            raise SimulationError(
                f"switch model mode {switch_model.mode} != requested "
                f"{self.switch_mode}"
            )
        hare = self.switch_mode is SwitchMode.HARE
        same_job_cost = switch_model.same_job_cost_s
        sequences = plan.gpu_sequences()
        if self.jitter_sigma > 0:
            sequences = self._jitter(sequences)
        executors = build_executors(
            list(self.cluster.devices()),
            sequences,
            retention_enabled=(
                hare if self.retention_enabled is None
                else self.retention_enabled
            ),
            slowdowns=self.slowdowns,
        )
        position = {ex.gpu_id: g for g, ex in enumerate(executors)}

        # Per-job constants, hoisted out of the per-task path.
        specs = [spec_or_synthetic(job.model) for job in jobs]
        model_of = [job.model for job in jobs]
        working = [spec.training_memory_bytes() for spec in specs]
        retain = [spec.model_bytes if hare else 0.0 for spec in specs]
        arrival = [job.arrival for job in jobs]
        #: barriers open in round order, so round r - 1 is open iff
        #: r <= rounds_open[job]
        rounds_open = [0] * len(jobs)
        syncs_in_flight = {node.node_id: 0 for node in self.cluster.nodes}

        seq = itertools.count()
        heap = [
            (job.arrival, ARRIVAL, next(seq), -1, job.job_id) for job in jobs
        ]
        heap += [
            (0.0, CHECK, next(seq), g, None) for g in range(len(executors))
        ]
        heap += [
            (time, FAILURE, next(seq), position[gpu_id], None)
            for time, gpu_id in self.failures
        ]
        heap += [
            (time, CHECK, next(seq), position[plan[task].gpu], None)
            for task, time in releases.items()
        ]
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop

        # The wake index. Every executor is tried at the first scan.
        held = set(range(len(executors)))
        by_arrival: list[tuple[float, int]] = []
        by_barrier: dict[tuple[int, int], list[int]] = {}
        wakeups = 0
        busy = 0
        #: completions in order: (assignment, start, switch, retained,
        #: train time, sync time, gpu id)
        rows: list[tuple] = []
        wasted: list[float] = []

        def try_start(g: int, now: float) -> None:
            nonlocal wakeups, busy
            wakeups += 1
            ex = executors[g]
            if ex.running is not None or ex.head == len(ex.queue):
                return  # busy or done: not parked
            a = ex.queue[ex.head]
            task = a.task
            j = task.job_id
            if arrival[j] > now + 1e-12:
                push(by_arrival, (arrival[j], g))
                return
            r = task.round_idx
            if r > rounds_open[j]:
                by_barrier.setdefault((j, r - 1), []).append(g)
                return
            if now < ex.down_until or (
                releases and releases.get(task, now) > now
            ):
                held.add(g)
                return
            ex.head += 1
            model = model_of[j]
            hit = ex.memory.begin_task(model, working[j]).retained_hit
            prev = ex.prev_job
            if prev is None or prev == j:
                # Same-job successors share context; a GPU's very first
                # task loads during the idle warm-up.
                switch = 0.0 if prev is None else same_job_cost
            else:
                hit = hit and hare
                switch = ex.switch_costs.get((model, hit))
                if switch is None:
                    switch = switch_model.cost(
                        model, ex.spec, same_job=False, retained_hit=hit
                    )
                    if not sampled:
                        # A live registry counts every modeled transfer.
                        ex.switch_costs[model, hit] = switch
            start = now + switch
            ex.prev_job = j
            ex.serial += 1
            train = a.train_time
            if ex.slowdowns:
                factor = 1.0
                for lo, hi, f in ex.slowdowns:
                    if lo <= start < hi:
                        factor = max(factor, f)
                if factor > 1.0:
                    train = train * factor
            ex.running = (a, start, switch, hit, train)
            busy += 1
            if sampled:
                # Busy-GPU curve, sampled at deterministic sim times so
                # the exported counter track is byte-stable.
                registry.gauge("sim.gpus_busy").set(busy)
                registry.sample("sim.gpus_busy", start)
            if traced and r > 0:
                # Arrow: previous round's barrier released this task.
                tracer.flow(
                    (j * 10_000 + r) * 10_000 + task.slot,
                    Category.SYNC,
                    f"j{j} barrier",
                    src_track=job_track(j),
                    src_time=pool.barrier_time(j, r - 1),
                    dst_track=gpu_track(ex.gpu_id),
                    dst_time=start,
                )
            push(heap, (start + train, COMPUTE, next(seq), g, ex.serial))

        def scan(now: float, woken: Iterable[int]) -> None:
            woken = held.union(woken)
            held.clear()
            limit = now + 1e-12
            while by_arrival and by_arrival[0][0] <= limit:
                woken.add(pop(by_arrival)[1])
            for g in sorted(woken):
                try_start(g, now)

        # Exact volume: one arrival per job, one check per GPU, one compute
        # and one sync completion per task; each failure adds at most one
        # stale completion, one re-run completion and one recovery check;
        # each release one check.
        budget = (
            2 * max(1, instance.num_tasks)
            + instance.num_jobs
            + instance.num_gpus
            + 4 * len(self.failures)
            + len(releases)
            + 16
        )
        processed = 0
        while heap:
            if processed >= budget:
                raise SimulationError(
                    f"event budget {budget} exceeded; likely livelock"
                )
            time, kind, _, g, payload = pop(heap)
            processed += 1
            if traced:
                tracer.instant(
                    Category.SIM, EVENT_NAMES[kind], track=ENGINE_TRACK,
                    time=time,
                )
            if kind == COMPUTE:
                ex = executors[g]
                running = ex.running
                if running is None or ex.serial != payload:
                    continue  # stale completion of a crashed attempt
                ex.running = None
                busy -= 1
                if sampled:
                    registry.gauge("sim.gpus_busy").set(busy)
                    registry.sample("sim.gpus_busy", time)
                    registry.counter("sim.tasks_completed").inc()
                    registry.sample("sim.tasks_completed", time)
                a, start, switch, hit, train = running
                task = a.task
                j = task.job_id
                if traced:
                    track = gpu_track(ex.gpu_id)
                    if switch > 0:
                        tracer.span(
                            Category.SWITCH,
                            f"switch→j{j}",
                            track=track,
                            start=start - switch,
                            end=start,
                            job=j,
                            retained_hit=hit,
                        )
                    tracer.span(
                        Category.SIM,
                        f"j{j} r{task.round_idx}",
                        track=track,
                        start=start,
                        end=time,
                        job=j,
                        round=task.round_idx,
                        slot=task.slot,
                        planned_start=a.start,
                    )
                ex.memory.end_task(retain_bytes=retain[j])
                sync = a.sync_time
                if nic and sync > 0:
                    syncs_in_flight[ex.node_id] += 1
                    sync *= syncs_in_flight[ex.node_id]
                # The realized sync is the contended one: the barrier
                # opens when it lands.
                rows.append((a, start, switch, hit, train, sync, ex.gpu_id))
                if traced and sync > 0:
                    tracer.span(
                        Category.SYNC,
                        f"sync j{j} r{task.round_idx}",
                        track=job_track(j),
                        start=time,
                        end=time + sync,
                        job=j,
                        round=task.round_idx,
                        gpu=ex.gpu_id,
                        slot=task.slot,
                    )
                push(heap, (time + sync, SYNC, next(seq), g, a))
                # The GPU is free; sync overlaps the successor (§5.2).
                try_start(g, time)
            elif kind == SYNC:
                if nic and payload.sync_time > 0:
                    syncs_in_flight[executors[g].node_id] -= 1
                task = payload.task
                if pool.record_sync(task, time):
                    j = task.job_id
                    rounds_open[j] += 1
                    if traced:
                        tracer.instant(
                            Category.SYNC,
                            f"barrier j{j} r{task.round_idx}",
                            track=job_track(j),
                            time=time,
                            job=j,
                            round=task.round_idx,
                        )
                    # The barrier opened: next-round tasks may be heads.
                    scan(time, by_barrier.pop((j, task.round_idx), ()))
            elif kind == ARRIVAL:
                scan(time, ())
            elif kind == CHECK:
                try_start(g, time)
            else:  # FAILURE
                ex = executors[g]
                if traced:
                    tracer.instant(
                        Category.FAULT,
                        "gpu failure",
                        track=gpu_track(ex.gpu_id),
                        time=time,
                        restart_delay_s=self.restart_delay_s,
                    )
                if ex.running is not None:
                    # The attempt is lost and re-runs from the queue head;
                    # the crash wipes device memory and context.
                    wasted.append(max(0.0, time - ex.running[1]))
                    ex.running = None
                    busy -= 1
                    if sampled:
                        registry.gauge("sim.gpus_busy").set(busy)
                        registry.sample("sim.gpus_busy", time)
                    ex.memory.end_task(retain_bytes=0.0)
                    ex.memory.flush()
                    ex.head -= 1
                    ex.prev_job = None
                    held.add(g)
                elif not ex.done:
                    # idle crash: device state is still lost
                    ex.memory.flush()
                    ex.prev_job = None
                # Down until the restart check: arrivals and barriers in
                # the window must not start the GPU early.
                restart = time + self.restart_delay_s
                ex.down_until = max(ex.down_until, restart)
                push(heap, (restart, CHECK, next(seq), g, None))
        registry.counter("sim.engine_events").inc(processed)

        if not pool.all_jobs_complete():
            unfinished = [
                j.job_id for j in jobs if not pool.job_complete(j.job_id)
            ]
            raise SimulationError(
                f"simulation drained with unfinished jobs {unfinished[:5]}"
            )
        for ex in executors:
            if not ex.done:  # pragma: no cover - defensive
                raise SimulationError(
                    f"GPU {ex.gpu_id} still has queued tasks"
                )

        # Columns out: the records, realized schedule and telemetry in one
        # pass over the completions, in completion order.
        records = [
            TaskRecord(a.task, gpu, a.start, start, switch, train, sync, hit)
            for a, start, switch, hit, train, sync, gpu in rows
        ]
        realized = Schedule(
            instance,
            {
                r.task: TaskAssignment(
                    r.task, r.gpu, r.start, r.train_time, r.sync_time
                )
                for r in records
            },
        )
        telemetry = Telemetry.from_run(instance.num_gpus, records, wasted)
        completions = {
            job.job_id: pool.completion_time(job.job_id) for job in jobs
        }
        metrics = metrics_from_completions(
            jobs, completions, makespan=telemetry.makespan
        )
        return SimResult(
            realized=realized,
            metrics=metrics,
            telemetry=telemetry,
            pool=pool,
            events_processed=processed,
            wakeups=wakeups,
        )

def simulate_plan(
    cluster: Cluster,
    instance: ProblemInstance,
    plan: Schedule,
    *,
    switch_mode: SwitchMode = SwitchMode.HARE,
    switch_model: SwitchCostModel | None = None,
    retention_enabled: bool | None = None,
    jitter_sigma: float = 0.0,
    jitter_seed: int = 0,
    nic_contention: bool = False,
    failures: list[tuple[float, int]] | None = None,
    restart_delay_s: float = 1.0,
    slowdowns: list[tuple[float, float, int, float]] | None = None,
    releases: Mapping[TaskRef, float] | None = None,
) -> SimResult:
    """Convenience wrapper: build a simulator and run one plan."""
    sim = ClusterSimulator(
        cluster=cluster,
        instance=instance,
        switch_mode=switch_mode,
        switch_model=switch_model,
        retention_enabled=retention_enabled,
        jitter_sigma=jitter_sigma,
        jitter_seed=jitter_seed,
        nic_contention=nic_contention,
        failures=failures or [],
        restart_delay_s=restart_delay_s,
        slowdowns=slowdowns or [],
        releases=releases or {},
    )
    return sim.run(plan)
