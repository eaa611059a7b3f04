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

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.gpu import GPUSpec
from ..core.errors import ConfigurationError, SimulationError
from ..core.job import ProblemInstance
from ..core.metrics import ScheduleMetrics, metrics_from_completions
from ..core.schedule import Schedule
from ..core.types import SwitchMode, TaskRef
from ..obs import Category, Obs, gpu_track, job_track, use
from ..obs import current as obs_current
from ..obs.metrics import MetricsRegistry, NullRegistry
from ..obs.trace import RecordBlock, RecordSchema
from ..switching.costmodel import SwitchCostModel
from ..switching.memory import sequence_hits
from ..workload.models import spec_or_synthetic
from .events import EventType
from .executor import build_executors
from .telemetry import Telemetry

#: Heap priorities: at one timestamp sync completions commit first (they
#: may open barriers), then compute completions, arrivals, checks, crashes.
SYNC, COMPUTE, ARRIVAL, CHECK, FAILURE = (int(t) for t in EventType)
EVENT_NAMES = [t.name for t in EventType]
#: Track every dispatched event appears under in exported traces.
ENGINE_TRACK = "engine"
#: The replay's record shapes: an engine instant per event type (schema
#: = the type's value), then the switch, compute and sync spans, the
#: barrier→task flow, the barrier opening and the GPU failure. Track
#: templates are the track names of a ``{gpu}`` or ``{job}``.
_GPU, _JOB = gpu_track("{gpu}"), job_track("{job}")
_SCHEMAS = (
    *(RecordSchema("instant", Category.SIM, name, ENGINE_TRACK)
      for name in EVENT_NAMES),
    RecordSchema("span", Category.SWITCH, "switch→j{job}", _GPU,
                 ("job", "retained_hit")),
    RecordSchema("span", Category.SIM, "j{job} r{round}", _GPU,
                 ("job", "round", "slot", "planned_start")),
    RecordSchema("span", Category.SYNC, "sync j{job} r{round}", _JOB,
                 ("job", "round", "gpu", "slot")),
    RecordSchema("flow", Category.SYNC, "j{job} barrier", _JOB,
                 dst_track=_GPU),
    RecordSchema("instant", Category.SYNC, "barrier j{job} r{round}", _JOB,
                 ("job", "round")),
    RecordSchema("instant", Category.FAULT, "gpu failure", _GPU,
                 ("restart_delay_s",)),
)
_SWITCH, _COMPUTE, _SYNCED, _RELEASE, _OPENED, _FAILED = range(
    len(EVENT_NAMES), len(_SCHEMAS)
)
#: The replay's sampled instruments.
GPUS_BUSY, TASKS_COMPLETED = "sim.gpus_busy", "sim.tasks_completed"


@dataclass(frozen=True, slots=True)
class SimResult:
    """Outcome of one simulation run."""

    realized: Schedule
    metrics: ScheduleMetrics
    telemetry: Telemetry
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
    #: Override speculative-memory retention (None = per switch mode).
    #: Setting False under HARE ablates speculative memory while keeping
    #: early cleaning — the §4 ablation.
    retention_enabled: bool | None = None
    #: Per-task multiplicative runtime jitter (σ of a clipped normal around
    #: 1.0). Fig. 11 measures a few percent of round-to-round variation;
    #: this injects it at execution time so plans face realistic noise.
    jitter_sigma: float = 0.0
    jitter_seed: int = 0
    #: Injected GPU failures: (time, gpu_id, restart delay) triples. At
    #: each failure the GPU crashes: its running task (if any) is lost and
    #: re-executed from the head of the queue, device memory and CUDA
    #: context are wiped, and the executor restarts after the failure's
    #: delay. Rounds never lose completed work (gradients already
    #: synchronized are safe at the PS — the checkpointing story of §6).
    failures: list[tuple[float, int, float]] = field(default_factory=list)
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
        for time, gpu_id, delay in self.failures:
            if time < 0:
                raise ConfigurationError(
                    f"failure time must be >= 0, got {time} (GPU {gpu_id})"
                )
            if delay < 0:
                raise ConfigurationError(
                    f"restart delay must be >= 0, got {delay} (GPU {gpu_id})"
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
    def _jitter_factors(self, n: int) -> np.ndarray:
        """``(n, 2)`` clipped-normal train/sync factors, one row per task
        in ``(gpu, start, task)`` order."""
        rng = np.random.default_rng(self.jitter_seed)
        return np.clip(rng.normal(1.0, self.jitter_sigma, size=(n, 2)),
                       0.5, 1.5)

    def _release_rows(self, plan: Schedule) -> dict[int, float]:
        """The plan row of each released task → its release time."""
        releases = self.releases
        rows = plan.rows_of(releases)
        for task, row in zip(releases, rows):
            if row < 0:
                raise ConfigurationError(
                    f"release for {task}, which is not in the plan"
                )
        return dict(zip(rows, releases.values()))

    # ------------------------------------------------------------------
    def run(self, plan: Schedule) -> SimResult:
        """Replay *plan*: one event loop over plain ``(time, priority,
        seq, gpu, payload)`` heap entries (DESIGN §13).

        The plan is read as columns and each task is its plan row. An
        idle executor whose head cannot start is parked on what it waits
        for: its job's arrival, the previous round's barrier, or the
        ``held`` set (restart window or unshipped release). A scan — an
        arrival or a barrier opening — tries only the executors it can
        wake, in device order, which is exactly the set a scan of every
        executor would start.

        When the ambient tracer records, the loop appends each record's
        row of plain values to a flat log (schema, time, duration, job,
        round, slot, gpu, value; durations as the tracer's ``max(0.0,
        end - start)``). After the loop the log becomes one
        :class:`~repro.obs.trace.RecordBlock`, rows in loop order, and
        the tracer takes it in one call. A replay that raises emits
        none.
        """
        instance = self.instance
        release_at = self._release_rows(plan) if self.releases else {}
        if len(plan) and plan.canon.min() < 0:
            row = plan.canon.argmin()
            task = TaskRef(*map(int, (plan.job[row], plan.rnd[row],
                                      plan.slot[row])))
            raise ConfigurationError(f"plan task {task} is not in the "
                                     f"instance")
        obs = obs_current()
        tracer = obs.tracer
        traced = tracer.enabled
        #: the trace log: each record's row, rows laid end to end in
        #: emission order (plain values only: a long replay leaves the
        #: garbage collector nothing new to track)
        log: list = []
        note = log.extend
        registry = obs.metrics
        sampled = not isinstance(registry, NullRegistry)
        nic = self.nic_contention

        mode = self.switch_mode
        hare = mode is SwitchMode.HARE
        same_job_cost = SwitchCostModel(mode=mode).same_job_cost_s

        # Columns in: each GPU's rows in (start, task) order, with the
        # per-row values the loop reads as plain lists.
        order = np.lexsort((plan.slot, plan.rnd, plan.job, plan.start,
                            plan.gpu))
        trains, syncs = plan.train, plan.sync
        if self.jitter_sigma > 0:
            factors = self._jitter_factors(len(plan))
            trains, syncs = trains.copy(), syncs.copy()
            trains[order] *= factors[:, 0]
            syncs[order] *= factors[:, 1]
        devices = list(self.cluster.devices())
        gpu_ids = [d.gpu_id for d in devices]
        by_gpu = plan.gpu[order]
        first = np.searchsorted(by_gpu, gpu_ids, side="left").tolist()
        last = np.searchsorted(by_gpu, gpu_ids, side="right").tolist()
        order_list = order.tolist()
        executors = build_executors(
            devices,
            {m: order_list[a:b] for m, a, b in zip(gpu_ids, first, last)},
            slowdowns=self.slowdowns,
        )
        position = {m: g for g, m in enumerate(gpu_ids)}
        job_of = plan.job.tolist()
        rnd_of = plan.rnd.tolist()
        slot_of = plan.slot.tolist()
        planned_of = plan.start.tolist()
        train_of = trains.tolist()
        sync_of = syncs.tolist()
        canon_of = plan.canon.tolist()
        # The parameter servers' round barriers, flat: round r of job j
        # is round id round_base[j] + r, and a task is its canonical
        # index. Per round id: syncs landed and the latest one (the
        # barrier time once the round completes); per task: synced yet.
        round_base = [0, *np.cumsum(instance.num_rounds).tolist()]
        done, barrier = [0] * round_base[-1], [0.0] * round_base[-1]
        synced = bytearray(instance.num_tasks)
        #: the row's round id: barrier state is indexed by it
        rid_of = (
            np.asarray(round_base[:-1], dtype=np.int64)[plan.job] + plan.rnd
        ).tolist()

        # Per-job constants, hoisted out of the per-task path.
        model_of = instance.model
        specs = [spec_or_synthetic(model) for model in model_of]
        footprint = [
            (model, spec.training_memory_bytes(),
             spec.model_bytes if hare else 0.0)
            for model, spec in zip(model_of, specs)
        ]
        arrival = instance.arrival.tolist()
        scale = instance.sync_scale.tolist()
        #: barriers open in round order, so round r - 1 is open iff
        #: r <= rounds_open[job]
        rounds_open = [0] * instance.num_jobs
        syncs_in_flight = {node.node_id: 0 for node in self.cluster.nodes}

        # Each row's retention hit, switch time and the switch.* writes
        # its cross-job switch cost made: a GPU's are fixed by its
        # shipped sequence (§4) until a crash wipes the device.
        retention = hare if self.retention_enabled is None else (
            self.retention_enabled
        )
        hit_of = [False] * len(plan)
        switch_of = [0.0] * len(plan)
        writes_of: list[tuple] = [()] * len(plan)

        def derive(ex, head: int) -> None:
            """Hits and switches of *ex*'s rows from *head* on, starting
            from empty memory and no previous job."""
            rows = ex.queue[head:]
            hits = sequence_hits(
                ex.spec.memory_bytes,
                [footprint[job_of[row]] for row in rows],
                retention_enabled=retention,
            )
            prev = None
            for row, hit in zip(rows, hits):
                j = job_of[row]
                if prev is None or prev == j:
                    # Same-job successors share context; a GPU's first
                    # task loads during the idle warm-up.
                    switch_of[row] = 0.0 if prev is None else same_job_cost
                    writes_of[row] = ()
                else:
                    hit = hit and hare
                    switch_of[row], writes_of[row] = _cross_job_switch(
                        mode, model_of[j], ex.spec, hit
                    )
                hit_of[row] = hit
                prev = j

        for ex in executors:
            derive(ex, 0)

        seq = itertools.count()
        heap = [
            (a, ARRIVAL, next(seq), -1, j) for j, a in enumerate(arrival)
        ]
        heap += [
            (0.0, CHECK, next(seq), g, None) for g in range(len(executors))
        ]
        heap += [
            (time, FAILURE, next(seq), position[gpu_id], delay)
            for time, gpu_id, delay in self.failures
        ]
        heap += [
            (time, CHECK, next(seq), position[int(plan.gpu[row])], None)
            for row, time in release_at.items()
        ]
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop

        # The wake index. Every executor is tried at the first scan.
        held = set(range(len(executors)))
        by_arrival: list[tuple[float, int]] = []
        #: executors parked on a barrier, by the round id it closes
        by_barrier: dict[int, list[int]] = {}
        wakeups = 0
        busy = 0.0
        #: (time, instrument, value) samples, in event order
        samples: list[tuple[float, str, float]] = []
        completed = (
            registry.counter(TASKS_COMPLETED).value
            if TASKS_COMPLETED in registry else 0.0
        )
        #: completions in order: (row, start, switch, retained, train
        #: time, sync time, gpu id)
        finished: list[tuple] = []
        wasted: list[float] = []

        def try_start(g: int, now: float) -> None:
            nonlocal wakeups, busy
            wakeups += 1
            ex = executors[g]
            if ex.running is not None or ex.head == len(ex.queue):
                return  # busy or done: not parked
            row = ex.queue[ex.head]
            j = job_of[row]
            if arrival[j] > now + 1e-12:
                push(by_arrival, (arrival[j], g))
                return
            r = rnd_of[row]
            if r > rounds_open[j]:
                by_barrier.setdefault(rid_of[row] - 1, []).append(g)
                return
            if now < ex.down_until or (
                release_at and release_at.get(row, now) > now
            ):
                held.add(g)
                return
            ex.head += 1
            switch = switch_of[row]
            if sampled:
                # The transfer pipeline counts every modeled upload.
                for name, observed, amount in writes_of[row]:
                    if observed:
                        registry.histogram(name).observe(amount)
                    else:
                        registry.counter(name).inc(amount)
            start = now + switch
            ex.serial += 1
            train = train_of[row]
            if ex.slowdowns:
                factor = 1.0
                for lo, hi, f in ex.slowdowns:
                    if lo <= start < hi:
                        factor = max(factor, f)
                if factor > 1.0:
                    train = train * factor
            ex.running = (row, start, switch, hit_of[row], train)
            busy += 1.0
            if sampled:
                # Busy-GPU curve, sampled at deterministic sim times so
                # the exported counter track is byte-stable.
                samples.append((start, GPUS_BUSY, busy))
            if traced and r > 0:
                # Arrow: previous round's barrier released this task.
                opened = barrier[rid_of[row] - 1]
                note((_RELEASE, opened, max(0.0, start - opened), j, r,
                      slot_of[row], ex.gpu_id, start))
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
            + len(release_at)
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
                note((kind, time, 0.0, -1, -1, -1, -1, None))
            if kind == COMPUTE:
                ex = executors[g]
                running = ex.running
                if running is None or ex.serial != payload:
                    continue  # stale completion of a crashed attempt
                ex.running = None
                busy -= 1.0
                if sampled:
                    completed += 1.0
                    samples.append((time, GPUS_BUSY, busy))
                    samples.append((time, TASKS_COMPLETED, completed))
                row, start, switch, hit, train = running
                sync = sync_of[row]
                if nic and sync > 0:
                    syncs_in_flight[ex.node_id] += 1
                    sync *= syncs_in_flight[ex.node_id]
                # The realized sync is the contended one: the barrier
                # opens when it lands.
                finished.append((row, start, switch, hit, train, sync,
                                 ex.gpu_id))
                if traced:
                    # The switch, compute and sync spans.
                    j, r, gpu = job_of[row], rnd_of[row], ex.gpu_id
                    if switch > 0:
                        begin = start - switch
                        note((_SWITCH, begin, max(0.0, start - begin), j,
                              -1, -1, gpu, hit))
                    note((_COMPUTE, start, max(0.0, time - start), j, r,
                          slot_of[row], gpu, planned_of[row]))
                    if sync > 0:
                        note((_SYNCED, time, max(0.0, (time + sync) - time),
                              j, r, slot_of[row], gpu, None))
                push(heap, (time + sync, SYNC, next(seq), g, row))
                # The GPU is free; sync overlaps the successor (§5.2).
                try_start(g, time)
            elif kind == SYNC:
                row = payload
                if nic and sync_of[row] > 0:
                    syncs_in_flight[executors[g].node_id] -= 1
                # The parameter server's bookkeeping.
                k = canon_of[row]
                if synced[k]:
                    raise SimulationError(
                        f"{TaskRef(job_of[row], rnd_of[row], slot_of[row])}"
                        f" synchronized twice"
                    )
                synced[k] = 1
                j, rid = job_of[row], rid_of[row]
                count = done[rid] + 1
                if count > scale[j]:
                    raise SimulationError(
                        f"round {(j, rnd_of[row])} over-synchronized: "
                        f"{count}/{scale[j]}"
                    )
                done[rid] = count
                if time > barrier[rid]:
                    barrier[rid] = time
                if count == scale[j]:
                    rounds_open[j] += 1
                    if traced:
                        note((_OPENED, time, 0.0, j, rnd_of[row], -1, -1,
                              None))
                    # The barrier opened: next-round tasks may be heads.
                    scan(time, by_barrier.pop(rid, ()))
            elif kind == ARRIVAL:
                scan(time, ())
            elif kind == CHECK:
                try_start(g, time)
            else:  # FAILURE
                ex = executors[g]
                if traced:
                    note((_FAILED, time, 0.0, -1, -1, -1, ex.gpu_id,
                          payload))
                if ex.running is not None:
                    # The attempt is lost and re-runs from the queue head;
                    # the crash wipes device memory and context.
                    wasted.append(max(0.0, time - ex.running[1]))
                    ex.running = None
                    busy -= 1.0
                    if sampled:
                        samples.append((float(time), GPUS_BUSY, busy))
                    ex.head -= 1
                    derive(ex, ex.head)
                    held.add(g)
                elif not ex.done:
                    # idle crash: device state is still lost
                    derive(ex, ex.head)
                # Down until the restart check: arrivals and barriers in
                # the window must not start the GPU early.
                restart = time + payload
                ex.down_until = max(ex.down_until, restart)
                push(heap, (restart, CHECK, next(seq), g, None))
        if samples:
            # Every sample follows a busy-GPU change; the last one is the
            # gauge's final value.
            registry.extend_timeline(samples)
            registry.gauge(GPUS_BUSY).set(busy)
            if finished:
                registry.counter(TASKS_COMPLETED).inc(len(finished))
        registry.counter("sim.engine_events").inc(processed)

        unfinished = [
            j for j, rounds in enumerate(instance.num_rounds.tolist())
            if rounds_open[j] < rounds
        ]
        if unfinished:
            raise SimulationError(
                f"simulation drained with unfinished jobs {unfinished[:5]}"
            )
        for ex in executors:
            if not ex.done:  # pragma: no cover - defensive
                raise SimulationError(
                    f"GPU {ex.gpu_id} still has queued tasks"
                )
        if log:
            tracer.block(RecordBlock.from_flat(_SCHEMAS, log))

        # Columns out: the realized schedule and the telemetry as views
        # over the completions, in completion order.
        rows, start, switch, hit, train, sync, gpu = (
            zip(*finished) if finished else ((),) * 7
        )
        rows = np.asarray(rows, dtype=np.int64)
        realized = Schedule(
            instance, plan.job[rows], plan.rnd[rows], plan.slot[rows], gpu,
            start, train, sync,
        )
        telemetry = Telemetry.from_columns(
            realized, plan.start[rows].tolist(), switch, hit, wasted,
        )
        if sampled:
            # The run's sim.* instruments: every completion in order,
            # then every destroyed attempt.
            if finished:
                registry.counter("sim.tasks").inc(len(finished))
                registry.histogram("sim.train_time_s").observe_all(train)
                syncs = [s for s in sync if s > 0]
                if syncs:
                    registry.histogram("sim.sync_time_s").observe_all(syncs)
                switches = [w for w in switch if w > 0]
                if switches:
                    registry.counter("sim.switch_count").inc(len(switches))
                    registry.histogram("sim.switch_time_s").observe_all(
                        switches
                    )
                hits = telemetry.retention_hits
                if hits:
                    registry.counter("sim.retention_hits").inc(hits)
            for lost in wasted:
                registry.counter("sim.aborted_attempts").inc()
                registry.counter("sim.wasted_compute_s").inc(lost)
        metrics = metrics_from_completions(
            instance, realized.completions(), makespan=telemetry.makespan
        )
        return SimResult(
            realized=realized,
            metrics=metrics,
            telemetry=telemetry,
            events_processed=processed,
            wakeups=wakeups,
        )


@functools.lru_cache(maxsize=1024)
def _cross_job_switch(
    mode: SwitchMode, model: str, spec: GPUSpec, hit: bool
) -> tuple[float, tuple]:
    """A cross-job switch cost and the metric writes computing it makes.

    The transfer pipeline counts each modeled upload in the ambient
    registry (``switch.*``: counters, and one observation per
    histogram). The cost is computed against a scratch registry, so a
    memoized cost replays the same writes on every use. The memo is
    process-wide and bounded; its key is everything the cost reads.
    """
    log = MetricsRegistry()
    with use(Obs(metrics=log)):
        cost = SwitchCostModel(mode=mode).cost(model, spec, same_job=False,
                                               retained_hit=hit)
    writes = tuple(
        (name, True, snap["total"]) if snap["type"] == "histogram"
        else (name, False, snap["value"])
        for name, snap in log.snapshot().items()
    )
    return cost, writes


def simulate_plan(
    cluster: Cluster,
    instance: ProblemInstance,
    plan: Schedule,
    *,
    switch_mode: SwitchMode = SwitchMode.HARE,
    retention_enabled: bool | None = None,
    jitter_sigma: float = 0.0,
    jitter_seed: int = 0,
    nic_contention: bool = False,
    failures: list[tuple[float, int, float]] | None = None,
    slowdowns: list[tuple[float, float, int, float]] | None = None,
    releases: Mapping[TaskRef, float] | None = None,
) -> SimResult:
    """Convenience wrapper: build a simulator and run one plan."""
    sim = ClusterSimulator(
        cluster=cluster,
        instance=instance,
        switch_mode=switch_mode,
        retention_enabled=retention_enabled,
        jitter_sigma=jitter_sigma,
        jitter_seed=jitter_seed,
        nic_contention=nic_contention,
        failures=failures or [],
        slowdowns=slowdowns or [],
        releases=releases or {},
    )
    return sim.run(plan)
