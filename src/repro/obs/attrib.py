"""Time attribution: where did every job's completion time go?

The monitors (:mod:`repro.obs.monitors`) detect that something is wrong;
this module answers *why a job's JCT is what it is* and *where the
cluster's makespan went*. It consumes the same flight-log/commit-log
streams the recorder already carries — live through the recorder sink
(:class:`AttributionEngine`) or offline from a ``repro.flight-log/1``
file (:func:`attribute_records`) — and produces an
:class:`AttributionReport` (schema ``repro.attrib/1``) with three views:

* **per-job JCT decomposition** — every job's ``completion - arrival``
  split into seven non-negative components that sum back to the JCT
  within 1e-9:

  - ``queue_wait`` — admission wait before the first round plus
    inter-round gaps with no fault/churn marker in the window;
  - ``compute`` — the ideal span: the job's best-profiled round time
    (``min_m t^c + t^s``, the ``best`` arg of ``kernel.round``);
  - ``hetero_penalty`` — the critical task's *profiled* round time on
    the GPU it actually got, minus ``best``: the price of running on a
    worse GPU than the throughput matrix's optimum (in sharded runs the
    optimum ranges over the whole cluster, so cell confinement shows up
    here);
  - ``sync_stall`` — intra-round skew: the span beyond the critical
    task's busy time, i.e. waiting on the round barrier;
  - ``switch_overhead`` — realized critical busy time beyond the
    profile matrices (only nonzero when attributing a realized/DES
    schedule whose durations include switching costs);
  - ``replan_overhead`` — inter-round gaps overlapping *another* job's
    ``kernel.retract``: the job waited while the kernel reshuffled
    committed work (plan churn, not steady-state queueing);
  - ``fault_recovery`` — inter-round gaps overlapping the job's *own*
    ``kernel.retract``: re-running rounds lost to a crash.

* **cluster critical path** — a backward walk over the committed-round
  DAG from the round that sets the makespan, following barrier edges
  (same job, previous round), resource edges (the latest round ending
  at the gap's edge) and arrival edges, with per-category blame totals;

* **attribution diff** — :meth:`AttributionReport.diff` subtracts two
  reports component-by-component, so "JCT regressed 12%" decomposes
  into "9 points are added queue wait".

Round spans are :meth:`~repro.core.schedule.Schedule.round_spans` of
the committed schedule: every kernel emits them after its run as
``kernel.round`` instants (:func:`repro.kernel.runner.emit_rounds`),
and :func:`attribute_schedule` reads them straight from any schedule
when there is no record stream. Arrivals come from ``JOB_ARRIVED``
(flat runs) or ``cells.admit`` (sharded runs, which also supply
per-cell residency).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .monitors import Monitor
from .recorder import Record

#: Attribution report schema identifier, bumped on breaking changes.
ATTRIB_SCHEMA = "repro.attrib/1"

#: Attribution diff schema identifier.
ATTRIB_DIFF_SCHEMA = "repro.attrib-diff/1"

#: The JCT components, in presentation order. Every job's components
#: are non-negative and sum to its JCT within :data:`SUM_TOLERANCE`.
COMPONENTS = (
    "queue_wait",
    "compute",
    "hetero_penalty",
    "sync_stall",
    "switch_overhead",
    "replan_overhead",
    "fault_recovery",
)

#: The sum-to-JCT invariant tolerance (seconds).
SUM_TOLERANCE = 1e-9

_EPS = 1e-9

#: Instant names the engine keeps from the stream (everything else is
#: dropped at observe time, keeping the live engine O(rounds) memory).
_ATTRIB_NAMES = frozenset(
    {
        "kernel.round",
        "kernel.retract",
        "kernel.replan",
        "JOB_ARRIVED",
        "cells.admit",
    }
)


@dataclass(frozen=True, slots=True)
class _Round:
    """One committed round's span, as seen by the attribution engine."""

    round_idx: int
    start: float
    end: float
    gpu: int
    #: Critical task's realized busy time (train + sync), seconds.
    busy: float
    #: Best-profiled round time over all GPUs, seconds.
    best: float
    #: Profiled round time on the GPU the critical task actually got.
    profiled: float


@dataclass(frozen=True, slots=True)
class JobAttribution:
    """One job's JCT decomposition."""

    job_id: int
    arrival: float
    completion: float
    #: Owning cell in sharded runs, ``None`` on the flat path.
    cell: int | None
    rounds: int
    #: Seconds per category (:data:`COMPONENTS` keys, all present).
    components: Mapping[str, float]

    @property
    def jct(self) -> float:
        return self.completion - self.arrival

    def to_json(self) -> dict:
        return {
            "job": self.job_id,
            "arrival": self.arrival,
            "completion": self.completion,
            "jct": self.jct,
            "cell": self.cell,
            "rounds": self.rounds,
            "components": {c: self.components[c] for c in COMPONENTS},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "JobAttribution":
        return cls(
            job_id=int(obj["job"]),
            arrival=float(obj["arrival"]),
            completion=float(obj["completion"]),
            cell=None if obj.get("cell") is None else int(obj["cell"]),
            rounds=int(obj["rounds"]),
            components={
                c: float(obj["components"].get(c, 0.0)) for c in COMPONENTS
            },
        )


@dataclass(frozen=True, slots=True)
class AttributionReport:
    """The attribution engine's output (schema ``repro.attrib/1``)."""

    schema: str
    jobs: tuple[JobAttribution, ...]
    #: Per-category totals over all jobs (seconds).
    totals: Mapping[str, float]
    #: ``Σ_n (C_n - a_n)`` — equals ``fsum(totals.values())`` within
    #: the accumulated per-job tolerance.
    total_jct_s: float
    #: Resident JCT seconds per cell (empty on the flat path).
    cell_residency: Mapping[int, float]
    #: ``{"makespan", "origin", "blame", "segments"}`` — the backward
    #: walk from the makespan-setting round with per-category blame.
    critical_path: Mapping
    replans: int
    retractions: int

    # -- invariants ----------------------------------------------------
    def check(self, tol: float = SUM_TOLERANCE) -> list[str]:
        """Violations of the attribution invariants (empty when sound).

        Per job: every component non-negative, and the components sum
        to the JCT within *tol*.
        """
        problems: list[str] = []
        for job in self.jobs:
            for c in COMPONENTS:
                v = job.components[c]
                if v < 0.0:
                    problems.append(
                        f"job {job.job_id}: component {c} is negative "
                        f"({v!r})"
                    )
            total = math.fsum(job.components.values())
            if abs(total - job.jct) > tol:
                problems.append(
                    f"job {job.job_id}: components sum to {total!r} but "
                    f"JCT is {job.jct!r} (|delta| > {tol})"
                )
        return problems

    # -- views ---------------------------------------------------------
    def job(self, job_id: int) -> JobAttribution:
        for j in self.jobs:
            if j.job_id == job_id:
                return j
        raise KeyError(f"no attribution for job {job_id}")

    def fractions(self) -> dict[str, float]:
        """Per-category share of total JCT (zeros when no jobs)."""
        if self.total_jct_s <= 0.0:
            return {c: 0.0 for c in COMPONENTS}
        return {
            c: self.totals.get(c, 0.0) / self.total_jct_s
            for c in COMPONENTS
        }

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "jobs": [j.to_json() for j in self.jobs],
            "totals": {c: self.totals.get(c, 0.0) for c in COMPONENTS},
            "total_jct_s": self.total_jct_s,
            "cell_residency": {
                str(c): self.cell_residency[c]
                for c in sorted(self.cell_residency)
            },
            "critical_path": {
                "makespan": self.critical_path["makespan"],
                "origin": self.critical_path["origin"],
                "blame": {
                    c: self.critical_path["blame"].get(c, 0.0)
                    for c in COMPONENTS
                },
                "segments": list(self.critical_path["segments"]),
            },
            "replans": self.replans,
            "retractions": self.retractions,
        }

    # -- diff ----------------------------------------------------------
    def diff(self, baseline: "AttributionReport") -> dict:
        """Component-wise delta *self - baseline* (the candidate is
        ``self``). The total-JCT delta equals the sum of the component
        deltas, so a metric regression decomposes exactly."""
        deltas = {
            c: self.totals.get(c, 0.0) - baseline.totals.get(c, 0.0)
            for c in COMPONENTS
        }
        return {
            "schema": ATTRIB_DIFF_SCHEMA,
            "total_jct_delta_s": self.total_jct_s - baseline.total_jct_s,
            "component_delta_s": deltas,
            "makespan_delta_s": (
                self.critical_path["makespan"]
                - baseline.critical_path["makespan"]
            ),
            "jobs": {
                "baseline": len(baseline.jobs),
                "candidate": len(self.jobs),
            },
        }

    # -- telemetry -----------------------------------------------------
    def publish(self, metrics) -> None:
        """Publish blame curves and per-cell residency into *metrics*.

        ``attrib.blame.<category>`` gauges accumulate per-category
        seconds in job-completion order and are sampled at each
        completion, so the Perfetto export renders one counter track
        per category ("where the seconds went, over time").
        """
        acc = {c: 0.0 for c in COMPONENTS}
        for job in sorted(self.jobs, key=lambda j: (j.completion, j.job_id)):
            for c in COMPONENTS:
                acc[c] += job.components[c]
                metrics.gauge(f"attrib.blame.{c}").set(acc[c])
                metrics.sample(f"attrib.blame.{c}", job.completion)
        for cell in sorted(self.cell_residency):
            metrics.gauge(f"attrib.cell{cell}.resident_jct_s").set(
                self.cell_residency[cell]
            )

    @classmethod
    def from_json(cls, doc: Mapping) -> "AttributionReport":
        if doc.get("schema") != ATTRIB_SCHEMA:
            raise ValueError(
                f"not a {ATTRIB_SCHEMA} document "
                f"(schema={doc.get('schema')!r})"
            )
        cp = doc.get("critical_path", {})
        return cls(
            schema=ATTRIB_SCHEMA,
            jobs=tuple(
                JobAttribution.from_json(j) for j in doc.get("jobs", ())
            ),
            totals={
                c: float(doc.get("totals", {}).get(c, 0.0))
                for c in COMPONENTS
            },
            total_jct_s=float(doc.get("total_jct_s", 0.0)),
            cell_residency={
                int(c): float(v)
                for c, v in doc.get("cell_residency", {}).items()
            },
            critical_path={
                "makespan": float(cp.get("makespan", 0.0)),
                "origin": float(cp.get("origin", 0.0)),
                "blame": {
                    c: float(cp.get("blame", {}).get(c, 0.0))
                    for c in COMPONENTS
                },
                "segments": list(cp.get("segments", ())),
            },
            replans=int(doc.get("replans", 0)),
            retractions=int(doc.get("retractions", 0)),
        )


def write_attribution(report: AttributionReport, path) -> Path:
    """Write *report* as deterministic JSON (sorted keys)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_attribution(path) -> AttributionReport:
    """Read a ``repro.attrib/1`` JSON document back into a report."""
    return AttributionReport.from_json(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------
def _in_window(times: Sequence[float], lo: float, hi: float) -> bool:
    return any(lo - _EPS <= t <= hi + _EPS for t in times)


def _decompose_job(
    arrival: float,
    rounds: Sequence[_Round],
    my_retracts: Sequence[float],
    churn_marks: Sequence[float],
):
    """Split one job's timeline into the seven components.

    Returns ``(components, completion, per_round, gap_categories)``.
    Gaps between the job's ready time and the next round's start are
    classified by the markers in the window (own retract > any other
    retract > none); each round's span splits by clamped subtraction
    (ideal, then heterogeneity, then switching, remainder = stall), so
    every component is non-negative by construction. The closing
    rounding residual is folded into the dominant component, keeping
    the sum-to-JCT invariant at float precision.
    """
    comps = {c: 0.0 for c in COMPONENTS}
    per_round: dict[int, dict[str, float]] = {}
    gap_cat: dict[int, tuple[float, str]] = {}
    prev = arrival
    for rnd in rounds:
        s = rnd.start if rnd.start > prev else prev
        gap = s - prev
        if gap > 0.0:
            if _in_window(my_retracts, prev, s):
                cat = "fault_recovery"
            elif _in_window(churn_marks, prev, s):
                cat = "replan_overhead"
            else:
                cat = "queue_wait"
            comps[cat] += gap
            gap_cat[rnd.round_idx] = (gap, cat)
        span = rnd.end - s
        if span < 0.0:
            span = 0.0
        ideal = rnd.best if rnd.best < span else span
        rem = span - ideal
        hetero = rnd.profiled - rnd.best
        if hetero < 0.0:
            hetero = 0.0
        if hetero > rem:
            hetero = rem
        rem -= hetero
        switch = rnd.busy - rnd.profiled
        if switch < 0.0:
            switch = 0.0
        if switch > rem:
            switch = rem
        rem -= switch
        comps["compute"] += ideal
        comps["hetero_penalty"] += hetero
        comps["switch_overhead"] += switch
        comps["sync_stall"] += rem
        per_round[rnd.round_idx] = {
            "compute": ideal,
            "hetero_penalty": hetero,
            "switch_overhead": switch,
            "sync_stall": rem,
        }
        if rnd.end > prev:
            prev = rnd.end
    completion = prev
    # Fold the subtraction-chain rounding residual into the dominant
    # bucket so the components sum to the JCT at float precision.
    residual = (completion - arrival) - math.fsum(comps.values())
    if residual:
        key = max(COMPONENTS, key=lambda c: comps[c])
        if comps[key] + residual >= 0.0:
            comps[key] += residual
    return comps, completion, per_round, gap_cat


def _critical_path(
    job_rounds: Mapping[int, Sequence[_Round]],
    arrivals: Mapping[int, float],
    round_comps: Mapping[int, Mapping[int, Mapping[str, float]]],
    gap_cats: Mapping[int, Mapping[int, tuple[float, str]]],
) -> dict:
    """Backward walk from the makespan-setting round.

    Edges, in precedence order: **barrier** (same job's previous round
    ends at this round's start), **resource** (another round's end at
    the gap's upper edge — the cluster was busy), **arrival** (the
    chain bottoms out at the job's arrival). Gap segments are blamed
    with the owning job's gap category; round segments carry their span
    decomposition. Ties pick the latest-ending candidate, then the
    smallest ``(job, round)`` — deterministic across backends.
    """
    spans = {
        (j, rnd.round_idx): rnd
        for j, rounds in job_rounds.items()
        for rnd in rounds
    }
    blame = {c: 0.0 for c in COMPONENTS}
    if not spans:
        return {
            "makespan": 0.0, "origin": 0.0, "blame": blame, "segments": [],
        }
    terminal = min(spans, key=lambda k: (-spans[k].end, k))
    segments: list[dict] = []
    visited: set[tuple[int, int]] = set()
    cur: tuple[int, int] | None = terminal
    budget = 2 * len(spans) + 4
    while cur is not None and cur not in visited and budget > 0:
        budget -= 1
        visited.add(cur)
        j, r = cur
        rnd = spans[cur]
        comps = round_comps.get(j, {}).get(r, {})
        segments.append(
            {
                "kind": "round",
                "job": j,
                "round": r,
                "start": rnd.start,
                "end": rnd.end,
                "components": dict(comps),
            }
        )
        for c, v in comps.items():
            blame[c] += v
        prev = spans.get((j, r - 1))
        lower = prev.end if prev is not None else arrivals.get(j, rnd.start)
        s = rnd.start
        if lower >= s - _EPS:
            cur = (j, r - 1) if prev is not None else None
            continue
        gcat = gap_cats.get(j, {}).get(r, (0.0, "queue_wait"))[1]
        cands = [
            k
            for k, sp in spans.items()
            if k not in visited and lower + _EPS < sp.end <= s + _EPS
        ]
        if not cands:
            segments.append(
                {
                    "kind": "gap", "job": j, "start": lower, "end": s,
                    "category": gcat,
                }
            )
            blame[gcat] += s - lower
            cur = None
            continue
        pick = min(cands, key=lambda k: (-spans[k].end, k))
        pe = spans[pick].end
        if s > pe:
            segments.append(
                {
                    "kind": "gap", "job": j, "start": pe, "end": s,
                    "category": gcat,
                }
            )
            blame[gcat] += s - pe
        cur = pick
    segments.reverse()
    return {
        "makespan": spans[terminal].end,
        "origin": segments[0]["start"] if segments else 0.0,
        "blame": blame,
        "segments": segments,
    }


def _build_report(
    *,
    arrivals: Mapping[int, float],
    job_rounds: Mapping[int, Sequence[_Round]],
    retract_pairs: Sequence[tuple[float, int]],
    cells_of: Mapping[int, int],
    replans: int,
    retractions: int,
) -> AttributionReport:
    jobs: list[JobAttribution] = []
    round_comps: dict[int, dict] = {}
    gap_cats: dict[int, dict] = {}
    residency: dict[int, float] = {}
    for j in sorted(job_rounds):
        rounds = job_rounds[j]
        arrival = arrivals.get(j, rounds[0].start if rounds else 0.0)
        mine = [t for t, jj in retract_pairs if jj == j]
        churn = [t for t, jj in retract_pairs if jj != j]
        comps, completion, per_round, gcat = _decompose_job(
            arrival, rounds, mine, churn
        )
        round_comps[j] = per_round
        gap_cats[j] = gcat
        cell = cells_of.get(j)
        jobs.append(
            JobAttribution(
                job_id=j,
                arrival=arrival,
                completion=completion,
                cell=cell,
                rounds=len(rounds),
                components=comps,
            )
        )
        if cell is not None:
            residency[cell] = residency.get(cell, 0.0) + (
                completion - arrival
            )
    totals = {
        c: math.fsum(job.components[c] for job in jobs) for c in COMPONENTS
    }
    return AttributionReport(
        schema=ATTRIB_SCHEMA,
        jobs=tuple(jobs),
        totals=totals,
        total_jct_s=math.fsum(job.jct for job in jobs),
        cell_residency=residency,
        critical_path=_critical_path(
            job_rounds, arrivals, round_comps, gap_cats
        ),
        replans=replans,
        retractions=retractions,
    )


# ---------------------------------------------------------------------
def attribute_records(
    records: Iterable[Record], *, instance=None
) -> AttributionReport:
    """Attribute a record stream (live ring or loaded flight log).

    Round spans come from ``kernel.round`` instants (the last instant
    per ``(job, round)`` wins — a retracted round's re-commit
    supersedes the lost attempt); arrivals from ``JOB_ARRIVED`` or
    ``cells.admit`` (or the *instance* when neither survived the
    ring); gap classification from ``kernel.retract``. Jobs with no
    committed rounds in the stream are omitted.
    """
    arrivals: dict[int, float] = {}
    rounds: dict[int, dict[int, tuple]] = {}
    retract_pairs: list[tuple[float, int]] = []
    replans = 0
    cells_of: dict[int, int] = {}
    for rec in records:
        if rec.kind != "instant":
            continue
        name = rec.name
        if name not in _ATTRIB_NAMES:
            continue
        args = rec.args
        if name == "kernel.round":
            j = int(args["job"])
            rounds.setdefault(j, {})[int(args["round"])] = (
                float(args["start"]),
                float(args["end"]),
                int(args["gpu"]),
                float(args["busy"]),
                float(args["best"]),
            )
        elif name == "JOB_ARRIVED":
            arrivals.setdefault(int(args["job"]), float(rec.time))
        elif name == "kernel.retract":
            retract_pairs.append((float(rec.time), int(args["job"])))
        elif name == "kernel.replan":
            replans += 1
        elif name == "cells.admit":
            j = int(args["job"])
            cells_of[j] = int(args["cell"])
            arrivals.setdefault(j, float(rec.time))
    job_rounds: dict[int, list[_Round]] = {}
    for j in sorted(rounds):
        out: list[_Round] = []
        for r in sorted(rounds[j]):
            start, end, gpu, busy, best = rounds[j][r]
            profiled = busy
            if instance is not None:
                try:
                    profiled = instance.task_time(j, gpu)
                except (IndexError, TypeError):
                    profiled = busy
            out.append(
                _Round(
                    round_idx=r, start=start, end=end, gpu=gpu,
                    busy=busy, best=best, profiled=profiled,
                )
            )
        job_rounds[j] = out
        if instance is not None and j not in arrivals:
            try:
                arrivals[j] = float(instance.arrival[j])
            except (IndexError, AttributeError):
                pass
    return _build_report(
        arrivals=arrivals,
        job_rounds=job_rounds,
        retract_pairs=retract_pairs,
        cells_of=cells_of,
        replans=replans,
        retractions=len(retract_pairs),
    )


def attribute_schedule(
    schedule,
    *,
    instance=None,
    cells: Sequence[int] | None = None,
    retracts: Sequence[tuple[float, int]] = (),
    replans: int = 0,
) -> AttributionReport:
    """Attribute a committed :class:`~repro.core.schedule.Schedule`.

    The offline twin of :func:`attribute_records` for runs with no
    record stream (planned/offline scheduling, or a schedule loaded
    from an artifact). *cells* is an optional ``assignment[job] ->
    cell`` vector (e.g. ``AdmissionPlan.assignment``) supplying
    per-cell residency; *retracts* optional ``(time, job)`` markers for
    gap classification. Realized (DES) schedules whose task durations
    include switching costs surface the excess as ``switch_overhead``
    against the instance's profile matrices. Only the schedule's columns
    are read, so no per-task object is built.
    """
    if instance is None:
        instance = schedule.instance
    job_rounds: dict[int, list[_Round]] = {}
    best: dict[int, float] = {}
    spans = schedule.round_spans()
    for j, r, start, end, gpu, busy in sorted(
        zip(*(col.tolist() for col in spans))
    ):
        if j not in best:
            best[j] = instance.best_round_time(j)
        job_rounds.setdefault(j, []).append(
            _Round(
                round_idx=r,
                start=start,
                end=end,
                gpu=gpu,
                busy=busy,
                best=best[j],
                profiled=instance.task_time(j, gpu),
            )
        )
    arrivals = {
        j: a for j, a in enumerate(instance.arrival.tolist()) if j in job_rounds
    }
    cells_of: dict[int, int] = {}
    if cells is not None:
        cells_of = {
            j: int(cells[j]) for j in job_rounds if 0 <= j < len(cells)
        }
    return _build_report(
        arrivals=arrivals,
        job_rounds=job_rounds,
        retract_pairs=[(float(t), int(j)) for t, j in retracts],
        cells_of=cells_of,
        replans=replans,
        retractions=len(retracts),
    )


# ---------------------------------------------------------------------
class AttributionEngine(Monitor):
    """Live attribution: a stream consumer on the recorder sink.

    Attach it like any monitor (``recorder.attach(engine)``); it keeps
    only the attribution-relevant instants and produces no findings —
    :meth:`report` builds the :class:`AttributionReport` on demand.
    """

    name = "attribution"
    invariant = False
    #: Rides the recorder sink without participating in diagnosis.
    silent = True

    def __init__(self, instance=None) -> None:
        super().__init__()
        self.instance = instance
        self._records: list[Record] = []

    def wants(self, kind: str, category: str, prefix: str) -> bool:
        return kind == "instant" and prefix in _ATTRIB_NAMES

    def on_record(self, record: Record) -> None:
        if record.kind == "instant" and record.name in _ATTRIB_NAMES:
            self._records.append(record)

    def report(self, *, instance=None) -> AttributionReport:
        return attribute_records(
            self._records,
            instance=instance if instance is not None else self.instance,
        )


__all__ = [
    "ATTRIB_DIFF_SCHEMA",
    "ATTRIB_SCHEMA",
    "COMPONENTS",
    "SUM_TOLERANCE",
    "AttributionEngine",
    "AttributionReport",
    "JobAttribution",
    "attribute_records",
    "attribute_schedule",
    "load_attribution",
    "write_attribution",
]
