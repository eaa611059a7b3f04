"""Streaming invariant monitors and anomaly detectors.

Monitors subscribe to the flight-recorder stream
(:meth:`~repro.obs.recorder.FlightRecorder.attach`) and watch the run *as
it happens*: each :class:`~repro.obs.recorder.Record` it wants flows into
:meth:`Monitor.on_record`, findings accumulate, and
:func:`collect_findings` (via ``recorder.diagnose()``) finishes every
monitor into one severity-graded :class:`DiagnosisReport`.

The paper's schedule constraints (4)–(8) are not a monitor: one checker,
:func:`~repro.core.schedule.validate_schedule`, holds them. Every
simulated run validates what it replayed; :func:`diagnose_schedule`
reports a schedule's violation as the ``schedule_constraints`` finding,
and :func:`replay_monitors` applies it to the schedule a flight log
realized (rebuilt by :func:`realized_schedule`).

Two families of monitors:

**Invariant checkers** (``invariant = True``; violations are ERROR — a
correct run must never produce one):

* :class:`CommitmentMonotonicityMonitor` — the kernel's per-job committed
  round count only grows, except across an explicit fault retraction;
* :class:`UtilizationConservationMonitor` — per-GPU busy time never
  exceeds the observed horizon, and the span-derived total compute agrees
  with the metrics registry's ``sim.train_time_s`` accounting.

**Heuristic detectors** (``invariant = False``; findings are WARNING —
suspicious, not provably wrong):

* :class:`ReplanStormMonitor` — too many re-planning passes inside a
  sliding sim-time window;
* :class:`JobStarvationMonitor` — a job waits far longer than its peers
  between arrival and first committed compute;
* :class:`UtilizationCollapseMonitor` — the whole cluster goes idle for a
  long stretch while ready work exists;
* :class:`RpcBudgetMonitor` — a transport destination exhausted its retry
  budget (severity graded by how many times in a row).

Each monitor declares which records it reads with ``wants(kind,
category, prefix)`` (see :class:`~repro.obs.recorder.RecordRouter`), so
the recorder hands only those to its :meth:`Monitor.on_record`; it still
filters what it receives.

Besides the post-hoc ``finish``, monitors support **incremental
evaluation**: :meth:`Monitor.poll` evaluates the detector mid-run on the
records seen so far without closing it. Findings already emitted by a
``poll`` are deduplicated, so a later ``poll``/``finish`` reports only
what is new — this is what lets the remediation engine
(:mod:`repro.heal`) act on findings *while* the kernel is still running.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from statistics import median
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..core.errors import ScheduleValidationError
from ..core.job import Job, ProblemInstance
from ..core.schedule import Schedule, merge_intervals, validate_schedule
from .recorder import Record, RecordRouter
from .trace import gpu_track

#: Float slack for time comparisons, mirroring the schedule validator.
MONITOR_EPS = 1e-9

#: The monitor name of a :func:`diagnose_schedule` finding.
SCHEDULE_CONSTRAINTS = "schedule_constraints"

#: Per-monitor cap so a systematically-broken run doesn't flood the report.
MAX_FINDINGS_PER_MONITOR = 20


class Severity(enum.IntEnum):
    """Graded severity; ordered so ``>=`` comparisons read naturally."""

    INFO = 20
    WARNING = 30
    ERROR = 40


@dataclass(frozen=True, slots=True)
class Finding:
    """One observation a monitor (or the regression engine) made."""

    severity: Severity
    monitor: str
    message: str
    #: Sim time the finding anchors to (None when aggregate).
    time: float | None = None
    track: str | None = None
    #: True when produced by an invariant checker (ERROR = a real bug).
    invariant: bool = False
    details: Mapping = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "severity": self.severity.name,
            "monitor": self.monitor,
            "message": self.message,
            "invariant": self.invariant,
        }
        if self.time is not None:
            out["time"] = self.time
        if self.track is not None:
            out["track"] = self.track
        if self.details:
            out["details"] = dict(self.details)
        return out


@dataclass(frozen=True, slots=True)
class DiagnosisReport:
    """Every finding one diagnosed run produced, worst first."""

    findings: tuple[Finding, ...]
    monitors: tuple[str, ...] = ()
    records_seen: int = 0

    @property
    def max_severity(self) -> Severity | None:
        if not self.findings:
            return None
        return max(f.severity for f in self.findings)

    @property
    def ok(self) -> bool:
        """No finding at ERROR or above."""
        return all(f.severity < Severity.ERROR for f in self.findings)

    def at_least(self, severity: Severity) -> list[Finding]:
        return [f for f in self.findings if f.severity >= severity]

    def errors(self) -> list[Finding]:
        return self.at_least(Severity.ERROR)

    def invariant_violations(self) -> list[Finding]:
        """ERROR findings from invariant checkers — must be empty."""
        return [f for f in self.errors() if f.invariant]

    def to_json(self) -> dict:
        return {
            "schema": "repro.diagnosis/1",
            "records_seen": self.records_seen,
            "monitors": list(self.monitors),
            "max_severity": (
                self.max_severity.name if self.max_severity else None
            ),
            "ok": self.ok,
            "findings": [f.to_json() for f in self.findings],
        }

    def summary(self) -> str:
        if not self.findings:
            return (
                f"diagnosis OK: {len(self.monitors)} monitors, "
                f"{self.records_seen} records, no findings"
            )
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.severity.name] = counts.get(f.severity.name, 0) + 1
        parts = ", ".join(
            f"{n} {name}" for name, n in sorted(counts.items())
        )
        return (
            f"diagnosis {'OK' if self.ok else 'FAILED'}: "
            f"{len(self.findings)} finding(s) ({parts}) from "
            f"{len(self.monitors)} monitors over "
            f"{self.records_seen} records"
        )


class Monitor:
    """Base streaming monitor: accumulate findings, finish on demand."""

    name = "monitor"
    invariant = False

    def __init__(self) -> None:
        self.findings: list[Finding] = []

    # -- protocol -------------------------------------------------------
    def wants(self, kind: str, category: str, prefix: str) -> bool:
        """Whether records of this kind, category and name prefix (the
        name up to its first space) may matter to :meth:`on_record`.

        Must hold for a superset of the records :meth:`on_record` acts
        on. The default wants everything.
        """
        return True

    def observe(self, record: Record) -> None:
        """Take one record. A :class:`~repro.obs.recorder.RecordRouter`
        calls :meth:`on_record` directly, so subclasses override that."""
        self.on_record(record)

    def on_record(self, record: Record) -> None:  # pragma: no cover - hook
        pass

    def finish(self, ctx: "DiagnosisContext") -> None:
        pass

    def poll(self, ctx: "DiagnosisContext") -> None:
        """Incremental evaluation: grade the records seen *so far*.

        Unlike :meth:`finish` this may be called repeatedly mid-run;
        implementations must deduplicate so each anomaly is reported
        once. The default is a no-op — purely streaming monitors
        (commitment monotonicity, the replan-storm detector) already
        emit from :meth:`observe`, and finish-time-only analyses
        override this where a mid-run answer is meaningful.
        """

    # -- helpers --------------------------------------------------------
    def emit(
        self,
        severity: Severity,
        message: str,
        *,
        time: float | None = None,
        track: str | None = None,
        **details,
    ) -> None:
        if len(self.findings) >= MAX_FINDINGS_PER_MONITOR:
            return
        self.findings.append(
            Finding(
                severity=severity,
                monitor=self.name,
                message=message,
                time=time,
                track=track,
                invariant=self.invariant,
                details=details,
            )
        )


@dataclass(slots=True)
class DiagnosisContext:
    """What monitors may consult when finishing."""

    #: The problem instance, when the caller has it (enables the
    #: arrival and GPU-count checks).
    instance: object | None = None
    #: A metrics snapshot (``MetricsRegistry.snapshot()`` shape) for
    #: conservation cross-checks.
    metrics: Mapping | None = None


# ----------------------------------------------------------------------
# Invariant checkers
# ----------------------------------------------------------------------
class CommitmentMonotonicityMonitor(Monitor):
    """The kernel's committed-round counter per job only grows.

    Invariant: each ``kernel.commit`` instant carries the job's new
    ``rounds_done``; the sequence must be strictly increasing unless an
    explicit ``kernel.retract`` (GPU crash suffix-retraction) lowered it
    in between.
    """

    name = "commitment_monotonicity"
    invariant = True

    def __init__(self) -> None:
        super().__init__()
        self._rounds: dict[int, int] = {}
        self._retracted: set[int] = set()

    def wants(self, kind: str, category: str, prefix: str) -> bool:
        return kind == "instant" and prefix in (
            "kernel.commit", "kernel.retract"
        )

    def on_record(self, record: Record) -> None:
        if record.kind != "instant":
            return
        if record.name == "kernel.retract":
            job = int(record.args["job"])
            self._rounds[job] = int(record.args["rounds_done"])
            self._retracted.add(job)
        elif record.name == "kernel.commit":
            job = int(record.args["job"])
            rounds_done = int(record.args["rounds_done"])
            last = self._rounds.get(job)
            if last is not None and rounds_done <= last:
                if job in self._retracted:
                    self._retracted.discard(job)
                else:
                    self.emit(
                        Severity.ERROR,
                        f"job {job} commitment went {last} -> "
                        f"{rounds_done} rounds with no retraction",
                        time=record.time,
                        job=job, before=last, after=rounds_done,
                    )
            self._rounds[job] = rounds_done
            self._retracted.discard(job)


class UtilizationConservationMonitor(Monitor):
    """Busy time is conserved: no GPU is busier than the clock allows.

    Invariants: on every GPU track, merged compute time fits inside the
    track's observed ``[first start, last end]`` window; and when the
    metrics snapshot carries ``sim.train_time_s``, the span-derived total
    compute agrees with it (the registry and the trace are two books of
    the same account).
    """

    name = "utilization_conservation"
    invariant = True

    def __init__(self, eps: float = 1e-6) -> None:
        super().__init__()
        self.eps = eps
        self._intervals: dict[str, list[tuple[float, float]]] = {}

    def wants(self, kind: str, category: str, prefix: str) -> bool:
        return kind == "span" and category == "sim"

    def on_record(self, record: Record) -> None:
        if (
            record.kind == "span"
            and record.category == "sim"
            and record.track.startswith("gpu/")
        ):
            self._intervals.setdefault(record.track, []).append(
                (record.time, record.end)
            )

    def finish(self, ctx: DiagnosisContext) -> None:
        total_span = 0.0
        for track, intervals in sorted(self._intervals.items()):
            busy = sum(e - s for s, e in merge_intervals(intervals))
            window = (
                max(e for _, e in intervals) - min(s for s, _ in intervals)
            )
            total_span += sum(e - s for s, e in intervals)
            if busy > window + self.eps:
                self.emit(
                    Severity.ERROR,
                    f"{track} accounts {busy:.6f}s of compute inside a "
                    f"{window:.6f}s window",
                    track=track, busy_s=busy, window_s=window,
                )
        if ctx.metrics:
            entry = ctx.metrics.get("sim.train_time_s")
            if isinstance(entry, Mapping) and "total" in entry:
                accounted = float(entry["total"])
                drift = abs(total_span - accounted)
                if drift > self.eps + 1e-6 * max(1.0, accounted):
                    self.emit(
                        Severity.ERROR,
                        f"span-derived compute {total_span:.6f}s disagrees "
                        f"with sim.train_time_s accounting "
                        f"{accounted:.6f}s",
                        span_total_s=total_span,
                        metric_total_s=accounted,
                    )


# ----------------------------------------------------------------------
# Heuristic detectors
# ----------------------------------------------------------------------
class ReplanStormMonitor(Monitor):
    """Too many re-planning passes in a short sim-time window.

    Heuristic: re-planning is the kernel's most expensive reaction; more
    than ``max_replans`` inside any ``window_s`` stretch usually means a
    feedback loop (each re-plan waking the policy into another).
    """

    name = "replan_storm"

    def __init__(self, *, window_s: float = 5.0, max_replans: int = 8) -> None:
        super().__init__()
        self.window_s = window_s
        self.max_replans = max_replans
        # Plain list: storm windows hold at most a handful of timestamps.
        self._times: list[float] = []
        self._reported_until = float("-inf")

    def wants(self, kind: str, category: str, prefix: str) -> bool:
        return kind == "instant" and (
            prefix == "kernel.replan"
            or (category == "ctrl" and prefix.startswith("replan"))
        )

    def on_record(self, record: Record) -> None:
        if record.kind != "instant" or not (
            record.name == "kernel.replan"
            or (record.category == "ctrl" and record.name.startswith("replan"))
        ):
            return
        t = record.time
        self._times.append(t)
        cutoff = t - self.window_s
        while self._times and self._times[0] < cutoff:
            self._times.pop(0)
        if len(self._times) > self.max_replans and t > self._reported_until:
            self.emit(
                Severity.WARNING,
                f"re-plan storm: {len(self._times)} re-plans within "
                f"{self.window_s:.1f}s ending at t={t:.3f}",
                time=t,
                replans=len(self._times),
                window_s=self.window_s,
            )
            self._reported_until = t + self.window_s



class JobStarvationMonitor(Monitor):
    """A job waits far longer than its peers before first compute.

    Heuristic: with weighted-JCT objectives some queueing is expected;
    a single job waiting ``factor``× the median peer wait (and at least
    ``min_wait_s``) is starvation-shaped and worth a look.
    """

    name = "job_starvation"

    def __init__(self, *, factor: float = 20.0, min_wait_s: float = 1.0,
                 min_jobs: int = 4) -> None:
        super().__init__()
        self.factor = factor
        self.min_wait_s = min_wait_s
        self.min_jobs = min_jobs
        self._arrival: dict[int, float] = {}
        self._first_start: dict[int, float] = {}
        #: Jobs already reported — poll/finish idempotence.
        self._reported: set[int] = set()
        #: Whether an arrival or a first start changed since the last
        #: poll.
        self._fresh = False
        #: The instance whose arrivals :attr:`_table` holds.
        self._table_of = None
        self._table: list[float] = []

    def wants(self, kind: str, category: str, prefix: str) -> bool:
        return (kind == "span" and category == "sim") or (
            kind == "instant" and prefix == "JOB_ARRIVED"
        )

    def on_record(self, record: Record) -> None:
        if record.kind == "instant" and record.name == "JOB_ARRIVED":
            job = record.args.get("job")
            if job is not None and int(job) not in self._arrival:
                self._arrival[int(job)] = record.time
                self._fresh = True
        elif (
            record.kind == "span"
            and record.category == "sim"
            and record.track.startswith("gpu/")
        ):
            job = record.args.get("job")
            if job is not None:
                job = int(job)
                prev = self._first_start.get(job)
                if prev is None or record.time < prev:
                    self._first_start[job] = record.time
                    self._fresh = True

    def _evaluate(self, ctx: DiagnosisContext) -> None:
        if ctx.instance is not self._table_of:
            # The job table: job ids are its rows.
            arrival = getattr(ctx.instance, "arrival", None)
            self._table = [] if arrival is None else arrival.tolist()
            self._table_of = ctx.instance
        # Each started job's recorded arrival, else the instance's.
        own, table = self._arrival, self._table
        arrivals, waits = {}, {}
        for job, start in self._first_start.items():
            t0 = own.get(job)
            if t0 is None:
                if not 0 <= job < len(table):
                    continue
                t0 = table[job]
            arrivals[job] = t0
            waits[job] = start - t0
        if len(waits) < self.min_jobs:
            return
        typical = median(sorted(waits.values()))
        threshold = max(self.min_wait_s, self.factor * max(typical, 1e-9))
        for job, wait in sorted(waits.items()):
            if wait > threshold and job not in self._reported:
                self._reported.add(job)
                self.emit(
                    Severity.WARNING,
                    f"job {job} waited {wait:.3f}s for its first task "
                    f"(median peer wait {typical:.3f}s)",
                    time=arrivals[job],
                    job=job, wait_s=wait, median_wait_s=typical,
                )

    def poll(self, ctx: DiagnosisContext) -> None:
        # With no new arrival or first start (and the same instance) the
        # last poll already reported every wait this one would.
        if self._fresh or ctx.instance is not self._table_of:
            self._fresh = False
            self._evaluate(ctx)

    def finish(self, ctx: DiagnosisContext) -> None:
        self._evaluate(ctx)


class UtilizationCollapseMonitor(Monitor):
    """The whole cluster idles while ready work exists.

    Heuristic: merge every GPU's compute intervals; an interior gap longer
    than ``gap_frac`` of the horizon (and ``min_gap_s``) during which some
    later-run task was already ready (its round's barrier — or its job's
    arrival — predates the gap) means the cluster collapsed to zero
    utilization with runnable work on the table.

    Compute spans are recorded when they finish, so mid-run a task still
    in flight can fill a gap the merged list shows. A GPU's next span
    starts no earlier than its last recorded compute end, its watermark;
    :meth:`poll` grades only gaps that end at or before every GPU's
    watermark, and grades none without an instance to count the GPUs.
    A GPU the kernel reports crashed (``GPU_CRASHED``; a crash is
    permanent) computes nothing after the report, so it holds back only
    the gaps that start before its crash. :meth:`finish` grades
    every gap.

    The poll stays conservative for a live GPU that has not computed
    lately: one with no recorded span holds back every gap, and one that
    idles holds back every gap past its watermark, until its next span
    lands (or, for good, when it never computes again). Those gaps are
    graded at :meth:`finish`.
    """

    name = "utilization_collapse"

    def __init__(self, *, gap_frac: float = 0.25, min_gap_s: float = 1.0) -> None:
        super().__init__()
        self.gap_frac = gap_frac
        self.min_gap_s = min_gap_s
        #: The merged compute intervals, kept incrementally: disjoint,
        #: sorted, and separated by gaps (``merge_intervals`` of every
        #: span seen).
        self._starts: list[float] = []
        self._ends: list[float] = []
        #: Per GPU track: the latest recorded compute end.
        self._watermark: dict[str, float] = {}
        #: Per crashed GPU track: the crash report's time.
        self._crashed: dict[str, float] = {}
        #: (start, job, round) of every compute span
        self._tasks: list[tuple[float, int, int]] = []
        self._barrier: dict[tuple[int, int], float] = {}
        self._arrival: dict[int, float] = {}
        #: Gaps already reported — poll/finish idempotence.
        self._reported: set[tuple[float, float]] = set()
        #: Whether a record arrived since the last poll, and the
        #: instance that poll graded against.
        self._fresh = False
        self._polled_with = None

    def wants(self, kind: str, category: str, prefix: str) -> bool:
        return (kind == "span" and category == "sim") or (
            kind == "instant"
            and (
                prefix in ("JOB_ARRIVED", "GPU_CRASHED")
                or prefix.startswith("barrier")
            )
        )

    def on_record(self, record: Record) -> None:
        self._fresh = True
        if (
            record.kind == "span"
            and record.category == "sim"
            and record.track.startswith("gpu/")
        ):
            self._add_interval(record.time, record.end)
            mark = self._watermark.get(record.track)
            if mark is None or record.end > mark:
                self._watermark[record.track] = record.end
            job, rnd = record.args.get("job"), record.args.get("round")
            if job is not None and rnd is not None:
                self._tasks.append((record.time, int(job), int(rnd)))
        elif record.kind == "instant":
            if record.name == "JOB_ARRIVED":
                job = record.args.get("job")
                if job is not None:
                    self._arrival.setdefault(int(job), record.time)
            elif record.name.startswith("barrier"):
                job, rnd = record.args.get("job"), record.args.get("round")
                if job is not None and rnd is not None:
                    self._barrier[(int(job), int(rnd))] = record.time
            elif record.name == "GPU_CRASHED":
                gpu = record.args.get("gpu")
                if gpu is not None:
                    self._crashed.setdefault(gpu_track(int(gpu)), record.time)

    def _add_interval(self, s: float, e: float) -> None:
        """Fold ``[s, e]`` into the merged list with the same ``s <= end``
        touch rule as :func:`~repro.core.schedule.merge_intervals`."""
        starts, ends = self._starts, self._ends
        if starts and starts[-1] <= s <= ends[-1]:
            # Inside the last interval, the usual case: spans arrive as
            # they finish.
            if e > ends[-1]:
                ends[-1] = e
            return
        lo = bisect.bisect_left(ends, s)  # first interval ending at or after s
        hi = bisect.bisect_right(starts, e)  # past the last starting by e
        if lo < hi:
            s = min(s, starts[lo])
            e = max(e, ends[hi - 1])
        starts[lo:hi] = [s]
        ends[lo:hi] = [e]

    def _ready_time(
        self, ctx: DiagnosisContext, job: int, rnd: int
    ) -> float | None:
        if rnd > 0:
            return self._barrier.get((job, rnd - 1))
        if job in self._arrival:
            return self._arrival[job]
        try:
            return float(ctx.instance.arrival[job])
        except (AttributeError, IndexError, KeyError):
            return None

    def _evaluate(self, ctx: DiagnosisContext, settled=None) -> None:
        """Grade every gap, or with *settled* (``settled(e0)`` bounds the
        ends of the gaps starting at ``e0`` that no unrecorded span can
        fill, and never exceeds ``settled(inf)``) only those."""
        starts, ends = self._starts, self._ends
        if not starts:
            return
        horizon = ends[-1] - starts[0]
        if horizon <= 0:
            return
        threshold = max(self.min_gap_s, self.gap_frac * horizon)
        last = float("inf") if settled is None else settled(float("inf"))
        for e0, s1 in zip(ends, starts[1:]):
            if s1 > last:
                break
            if settled is not None and s1 > settled(e0):
                continue
            gap = s1 - e0
            if gap <= threshold or (e0, s1) in self._reported:
                continue
            # Was anything runnable during the gap?
            for start, job, rnd in self._tasks:
                if start < s1 - MONITOR_EPS:
                    continue
                ready = self._ready_time(ctx, job, rnd)
                if ready is not None and ready < e0 + MONITOR_EPS:
                    self._reported.add((e0, s1))
                    self.emit(
                        Severity.WARNING,
                        f"utilization collapse: cluster idle for "
                        f"{gap:.3f}s ({e0:.3f}→{s1:.3f}) while job {job} "
                        f"round {rnd} was ready since {ready:.3f}",
                        time=e0,
                        gap_s=gap, job=job, round=rnd, ready=ready,
                    )
                    break

    def poll(self, ctx: DiagnosisContext) -> None:
        if not self._fresh and ctx.instance is self._polled_with:
            return  # nothing new since the last poll graded the gaps
        self._fresh = False
        self._polled_with = ctx.instance
        num_gpus = getattr(ctx.instance, "num_gpus", None)
        marks, crashed = self._watermark, self._crashed
        if num_gpus is None or len(marks.keys() | crashed.keys()) < num_gpus:
            return  # a GPU with no recorded span may be computing now
        live = min(
            (m for g, m in marks.items() if g not in crashed),
            default=float("inf"),
        )
        down = [(t, marks.get(g, float("-inf"))) for g, t in crashed.items()]

        def settled(e0: float) -> float:
            # A crashed GPU holds back only the gaps starting before its
            # crash; a gap starting later is beyond it.
            return min([live] + [m for t, m in down if t > e0])

        self._evaluate(ctx, settled)

    def finish(self, ctx: DiagnosisContext) -> None:
        self._evaluate(ctx)


class RpcBudgetMonitor(Monitor):
    """A transport destination exhausted its retry budget.

    The simulated transport emits a ``fault``-category
    ``rpc_budget_exhausted`` instant whenever ``send_with_retry`` gives
    up on a destination, grading the severity by how many budgets in a
    row that destination has burned (one exhaustion is routine under
    lossy networks; consecutive exhaustions mean the endpoint is
    effectively unreachable). This monitor lifts those instants into
    findings so diagnosis reports — and the remediation engine — see
    them without anyone having to catch the exception.
    """

    name = "rpc_budget_exhausted"

    def wants(self, kind: str, category: str, prefix: str) -> bool:
        return kind == "instant" and prefix == "rpc_budget_exhausted"

    def on_record(self, record: Record) -> None:
        if record.kind != "instant" or record.name != "rpc_budget_exhausted":
            return
        severity = (
            Severity.ERROR
            if record.args.get("severity") == "error"
            else Severity.WARNING
        )
        dst = record.args.get("dst", "?")
        attempts = record.args.get("attempts")
        consecutive = record.args.get("consecutive", 1)
        self.emit(
            severity,
            f"retry budget exhausted towards {dst!s} "
            f"({attempts} attempts, {consecutive} consecutive "
            f"exhaustion(s))",
            time=record.time,
            track=record.track,
            dst=dst, attempts=attempts, consecutive=consecutive,
        )


class CellImbalanceMonitor(Monitor):
    """Cross-cell load imbalance in sharded-scheduling runs.

    :class:`repro.cells.ShardedKernel` emits one ``cells.partition``
    instant carrying the cell count, then one ``cells.admit`` instant
    per admitted job carrying the target ``cell`` and the estimated
    ``work_s`` the admission layer charged it. This monitor accumulates
    the per-cell totals and warns when the heaviest cell carries at
    least ``ratio`` times the mean admitted load — cells that admitted
    nothing count as zero, so "everything landed on one cell" is the
    loudest case — and the excess is at least ``min_excess_s`` of work
    (tiny workloads stay quiet). Flat runs produce no ``cells.*``
    records, so the monitor stays silent there.
    """

    name = "cell_load_imbalance"

    def __init__(
        self, *, ratio: float = 2.0, min_excess_s: float = 1.0
    ) -> None:
        super().__init__()
        self.ratio = ratio
        self.min_excess_s = min_excess_s
        self._num_cells = 0
        self._loads: dict[int, float] = {}
        self._jobs: dict[int, int] = {}
        self._reported = False

    def wants(self, kind: str, category: str, prefix: str) -> bool:
        return kind == "instant" and prefix in (
            "cells.partition", "cells.admit"
        )

    def on_record(self, record: Record) -> None:
        if record.kind != "instant":
            return
        if record.name == "cells.partition":
            self._num_cells = max(
                self._num_cells, int(record.args.get("cells", 0))
            )
            return
        if record.name != "cells.admit":
            return
        cell = record.args.get("cell")
        if cell is None:
            return
        cell = int(cell)
        self._loads[cell] = self._loads.get(cell, 0.0) + float(
            record.args.get("work_s", 0.0)
        )
        self._jobs[cell] = self._jobs.get(cell, 0) + 1

    def _evaluate(self) -> None:
        n = max(self._num_cells, len(self._loads))
        if self._reported or n < 2 or not self._loads:
            return
        total = sum(self._loads.values())
        if total <= 0:
            return
        mean = total / n
        heaviest = max(self._loads, key=lambda c: (self._loads[c], -c))
        load = self._loads[heaviest]
        if load >= self.ratio * mean and load - mean >= self.min_excess_s:
            self._reported = True
            self.emit(
                Severity.WARNING,
                f"cell load imbalance: cell {heaviest} admitted "
                f"{load:.3f}s of work ({self._jobs[heaviest]} job(s)), "
                f"{load / mean:.2f}x the {mean:.3f}s mean across "
                f"{n} cells",
                cell=heaviest,
                load_s=load,
                mean_s=mean,
                ratio=load / mean,
                cells=n,
            )

    def poll(self, ctx: DiagnosisContext) -> None:
        self._evaluate()

    def finish(self, ctx: DiagnosisContext) -> None:
        self._evaluate()


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def default_monitors(instance=None) -> list[Monitor]:
    """The full catalogue (the *instance* is consumed at finish time)."""
    return [
        CommitmentMonotonicityMonitor(),
        UtilizationConservationMonitor(),
        ReplanStormMonitor(),
        JobStarvationMonitor(),
        UtilizationCollapseMonitor(),
        RpcBudgetMonitor(),
        CellImbalanceMonitor(),
    ]


def collect_findings(
    monitors: Sequence[Monitor],
    *,
    records_seen: int = 0,
    instance=None,
    metrics: Mapping | None = None,
    extra: Iterable[Finding] = (),
) -> DiagnosisReport:
    """Finish *monitors* and assemble the report, worst findings first.

    Stream consumers that declare ``silent = True`` (e.g. the
    attribution engine) ride the recorder sink without participating in
    diagnosis — they are neither finished nor listed.
    """
    monitors = [
        m for m in monitors if not getattr(m, "silent", False)
    ]
    ctx = DiagnosisContext(instance=instance, metrics=metrics)
    findings: list[Finding] = list(extra)
    for monitor in monitors:
        monitor.finish(ctx)
        findings.extend(monitor.findings)
    findings.sort(key=lambda f: (-int(f.severity), f.monitor, f.time or 0.0))
    return DiagnosisReport(
        findings=tuple(findings),
        monitors=tuple(m.name for m in monitors),
        records_seen=records_seen,
    )


def replay_monitors(
    records: Iterable[Record],
    monitors: Sequence[Monitor] | None = None,
    *,
    instance=None,
    metrics: Mapping | None = None,
) -> DiagnosisReport:
    """Run monitors post-hoc over a recorded (or loaded) stream, and
    check the schedule the stream realized (:func:`realized_schedule`)
    with :func:`diagnose_schedule`; a kernel-only stream has none."""
    records = list(records)
    monitors = default_monitors(instance) if monitors is None else monitors
    route = RecordRouter(monitors).route
    for record in records:
        for observe in route(record.kind, record.category, record.name):
            observe(record)
    realized = realized_schedule(records, instance)
    return collect_findings(
        monitors, records_seen=len(records), instance=instance,
        metrics=metrics,
        extra=() if realized is None else diagnose_schedule(realized).findings,
    )


def realized_schedule(records: Sequence[Record], instance=None):
    """The schedule a recorded DES replay realized, or ``None`` when the
    stream has no ``sim`` compute span (a kernel-only run).

    Each ``sim`` span on a ``gpu/*`` track is one row: job, round and
    slot from its args (-1 where one is missing: a task no instance
    has), the GPU from its track, start and train from its extent. The
    ``sync`` span of the same task gives its sync (0 without one).
    Without an *instance*, the one the log implies: jobs ``0..max id``,
    each with its largest round + 1 rounds and largest slot + 1 tasks
    per round, arriving at 0, on GPUs ``0..max id`` of one type.
    """
    syncs: dict[tuple, float] = {}
    rows = []
    for r in records:
        if r.kind != "span":
            continue
        task = (r.args.get("job", -1), r.args.get("round", -1),
                r.args.get("slot", -1))
        if r.category == "sim" and r.track.startswith("gpu/"):
            rows.append((*task, int(r.track[4:]), r.time, r.duration))
        elif r.category == "sync":
            syncs[task] = r.duration
    if not rows:
        return None
    job, rnd, slot, gpu, start, train = zip(*rows)
    sync = [syncs.get(task, 0.0) for task in zip(job, rnd, slot)]
    job, rnd, slot, gpu = (
        np.array(col, dtype=np.int64) for col in (job, rnd, slot, gpu)
    )
    if instance is None:
        n = max(int(job.max()) + 1, 1)
        known = job >= 0
        rounds, scale = np.ones(n, np.int64), np.ones(n, np.int64)
        np.maximum.at(rounds, job[known], rnd[known] + 1)
        np.maximum.at(scale, job[known], slot[known] + 1)
        instance = ProblemInstance.from_types(
            [
                Job(j, "flight-log", num_rounds=int(r), sync_scale=int(s))
                for j, (r, s) in enumerate(zip(rounds, scale))
            ],
            np.zeros(max(int(gpu.max()) + 1, 1), dtype=np.int64),
            np.ones((n, 1)),
            np.zeros((n, 1)),
        )
    return Schedule(instance, job, rnd, slot, gpu, start, train, sync)


def diagnose_schedule(schedule) -> DiagnosisReport:
    """Check a :class:`~repro.core.schedule.Schedule` against the paper's
    constraints (4)–(8) and report, as the ``schedule_constraints``
    monitor, a violation as one invariant ERROR finding.

    The check is :func:`~repro.core.schedule.validate_schedule` without
    the duration rule, so a plan and a realized schedule both pass it.
    """
    try:
        validate_schedule(schedule, check_durations=False)
    except ScheduleValidationError as exc:
        findings = (
            Finding(
                severity=Severity.ERROR,
                monitor=SCHEDULE_CONSTRAINTS,
                message=str(exc),
                invariant=True,
                details={"constraint": exc.constraint},
            ),
        )
    else:
        findings = ()
    return DiagnosisReport(findings=findings, monitors=(SCHEDULE_CONSTRAINTS,))
