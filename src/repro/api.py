"""repro.api — the stable programmatic surface of the reproduction.

Three entry points cover the common workflows without reaching into
harness internals:

* :func:`run_experiment` — one scheduler on one generated (or supplied)
  workload, optionally replayed on the DES, returning a typed
  :class:`RunResult`;
* :func:`simulate` — replay an existing plan on the DES under a fresh
  observability context;
* :func:`compare` — several schedulers on the *same* workload, returning a
  :class:`CompareResult` whose trace merges every run (one Perfetto
  process per scheduler);
* :func:`sweep` (from :mod:`repro.sweep`) — a seeds × schedulers × scales
  grid sharded across worker processes, aggregated into a
  :class:`~repro.sweep.SweepResult` with one manifest and one baseline
  snapshot; per-cell metrics match serial :func:`run_experiment` exactly.

Every run owns a private :class:`~repro.obs.Obs` (tracer + metrics
registry), so concurrent or repeated runs never cross-contaminate. The
result objects know how to export their artifacts::

    from repro.api import run_experiment

    result = run_experiment(gpus=8, jobs=10, scheduler="hare", seed=7)
    print(result.weighted_jct)
    result.write_trace("hare.trace.json")      # open in ui.perfetto.dev
    result.write_manifest("run.json", trace_path="hare.trace.json")
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Literal, Mapping, Sequence, Union

from .cells import ADMISSION_POLICIES, CELL_STRATEGIES, run_sharded
from .cluster.cluster import Cluster, scaled_cluster, testbed_cluster
from .core.job import Job, ProblemInstance
from .core.metrics import ScheduleMetrics, metrics_from_schedule
from .core.schedule import Schedule, validate_schedule
from .core.types import SwitchMode
from .harness.experiments import make_loaded_workload, make_problem
from .heal import RemediationEngine, RemediationLog
from .kernel import KernelResult, run_policy
from .obs import (
    Obs,
    build_manifest,
    chrome_trace,
    use,
    write_manifest as _write_manifest_file,
    write_trace as _write_trace_file,
)
from .obs.attrib import (
    AttributionEngine,
    AttributionReport,
    attribute_records,
    attribute_schedule,
    write_attribution,
)
from .obs.baseline import snapshot_baseline, write_baseline
from .obs.monitors import DiagnosisReport, default_monitors
from .schedulers import Scheduler, create_from_spec
from .sim.simulator import SimResult, simulate_plan
from .sweep import SweepPoint, SweepResult, sweep
from .workload.jobs import WorkloadConfig

#: How a scheduler may be specified: registry key (``"hare"``), a mapping
#: with a ``name`` key plus constructor options, or a built instance.
SchedulerSpec = Union[str, Mapping, Scheduler]

#: The arrival setting a run is labelled with in its manifest ``config``:
#: ``"planned"`` (the paper's offline setting) or ``"streaming"``. It is
#: validated and recorded but selects nothing — every run feeds arrivals
#: as events through the :mod:`repro.kernel` event loop, with the
#: scheduler as an incremental policy
#: (:meth:`~repro.schedulers.base.Scheduler.make_policy`).
ArrivalsMode = Literal["planned", "streaming"]

DEFAULT_SCHEMES = (
    "gavel_fifo", "srtf", "sched_homo", "sched_allox", "hare",
)

_ARRIVALS_MODES = ("planned", "streaming")


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """Typed, validated description of one :func:`run_experiment` run.

    Bundles every experiment parameter into one frozen value: hashable,
    comparable, and checked for cross-field consistency at construction
    (not halfway into a run) — ``heal`` needs ``cells=1``, and
    ``arrivals`` must name a known mode. ``arrivals`` is recorded in the
    config but selects nothing: every run goes through the kernel.
    Mutable inputs (``workload``, ``crashes``) are normalized to tuples
    so a spec never aliases caller state.

    :func:`run_experiment` and :func:`compare` accept a spec positionally
    or build one from its fields as keyword arguments;
    :func:`repro.sweep.sweep` and the CLI construct specs too, so every
    entry point funnels through the same validation. :meth:`to_dict` is
    the manifest's ``config`` block and :meth:`from_dict` reads one back.
    """

    gpus: int = 15
    jobs: int = 20
    scheduler: SchedulerSpec = "hare"
    seed: int = 0
    load: float = 1.5
    rounds_scale: float = 0.15
    simulate: bool = True
    switch_mode: SwitchMode = SwitchMode.HARE
    trace: bool = True
    validate: bool = True
    cluster: Cluster | None = None
    workload: tuple[Job, ...] | None = None
    arrivals: ArrivalsMode = "planned"
    record: bool = False
    monitors: bool = False
    heal: bool = False
    replan_interval: float | None = None
    crashes: tuple[tuple[float, int], ...] | None = None
    #: Cell count for hierarchical sharded scheduling
    #: (:mod:`repro.cells`); ``1`` is the pinned flat path.
    cells: int = 1
    #: Partitioning strategy (:data:`repro.cells.CELL_STRATEGIES`).
    cell_strategy: str = "balanced"
    #: Global admission policy (:data:`repro.cells.ADMISSION_POLICIES`).
    admission: str = "throughput"

    def __post_init__(self) -> None:
        if self.arrivals not in _ARRIVALS_MODES:
            raise ValueError(
                f"arrivals must be one of {_ARRIVALS_MODES}, "
                f"got {self.arrivals!r}"
            )
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")
        if self.cell_strategy not in CELL_STRATEGIES:
            raise ValueError(
                f"cell_strategy must be one of {CELL_STRATEGIES}, "
                f"got {self.cell_strategy!r}"
            )
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}"
            )
        if self.cells > 1 and self.heal:
            raise ValueError(
                "heal=True needs the flat kernel (cells=1): the "
                "remediation engine attaches to a single event loop"
            )
        if self.workload is not None and not isinstance(
            self.workload, tuple
        ):
            object.__setattr__(self, "workload", tuple(self.workload))
        if self.crashes is not None and (
            not isinstance(self.crashes, tuple)
            or any(not isinstance(c, tuple) for c in self.crashes)
        ):
            object.__setattr__(
                self,
                "crashes",
                tuple((float(t), int(g)) for t, g in self.crashes),
            )

    def to_dict(self) -> dict:
        """The manifest ``config`` block: resolved, JSON-ready scalars.

        ``gpus``/``jobs`` reflect an explicit ``cluster``/``workload``
        when one was passed; default-valued optional knobs
        (``heal=False``, ``replan_interval=None``, ``crashes=None``,
        ``cells=1``) are omitted so configs stay byte-identical with
        pre-spec manifests.
        """
        config = {
            "gpus": (
                self.cluster.num_gpus if self.cluster is not None
                else self.gpus
            ),
            "jobs": (
                len(self.workload) if self.workload is not None
                else self.jobs
            ),
            "scheduler": (
                self.scheduler.name
                if isinstance(self.scheduler, Scheduler)
                else str(self.scheduler)
            ),
            "seed": self.seed,
            "load": self.load,
            "rounds_scale": self.rounds_scale,
            "simulate": self.simulate,
            "switch_mode": self.switch_mode.value,
            "arrivals": self.arrivals,
        }
        if self.heal:
            config["heal"] = True
        if self.replan_interval is not None:
            config["replan_interval"] = self.replan_interval
        if self.crashes:
            config["crashes"] = [list(c) for c in self.crashes]
        if self.cells > 1:
            config["cells"] = self.cells
            config["cell_strategy"] = self.cell_strategy
            config["admission"] = self.admission
        return config

    @classmethod
    def from_dict(cls, config: Mapping, **overrides) -> "ExperimentSpec":
        """The spec a :meth:`to_dict` config block describes.

        Reads every key :meth:`to_dict` writes and ignores any other
        (keys of retired options in old manifests included); *overrides*
        set further fields, such as ``trace=False`` for a re-run.
        """
        values = {
            f.name: config[f.name] for f in fields(cls) if f.name in config
        }
        if "switch_mode" in values:
            values["switch_mode"] = SwitchMode(values["switch_mode"])
        return cls(**{**values, **overrides})


@dataclass(slots=True)
class RunResult:
    """Everything one scheduler produced on one workload."""

    scheduler: str
    cluster: Cluster
    instance: ProblemInstance
    plan: Schedule
    plan_metrics: ScheduleMetrics
    sim: SimResult | None
    obs: Obs
    config: dict
    #: Kernel run details (``None`` only for :func:`simulate` results).
    kernel: KernelResult | None = None
    #: Monitor findings when the run was watched (``monitors=True``).
    diagnosis: DiagnosisReport | None = None
    #: Remediation log when the run self-healed (``heal=True``).
    remediation: RemediationLog | None = None
    #: Cached attribution report (filled eagerly on recorded runs;
    #: computed lazily by :meth:`attribution` otherwise).
    _attribution: AttributionReport | None = None

    # -- headline numbers ----------------------------------------------
    @property
    def metrics(self) -> ScheduleMetrics:
        """Simulated metrics when available, else the analytic plan's."""
        return self.sim.metrics if self.sim is not None else self.plan_metrics

    @property
    def weighted_jct(self) -> float:
        return self.metrics.total_weighted_completion

    @property
    def makespan(self) -> float:
        return self.metrics.makespan

    @property
    def telemetry(self):
        """The DES telemetry (``None`` without ``simulate``)."""
        return self.sim.telemetry if self.sim is not None else None

    def metrics_snapshot(self) -> dict:
        """Merged metrics: the run's registry plus the DES telemetry's."""
        merged = dict(self.obs.metrics.snapshot())
        if self.sim is not None:
            merged.update(self.sim.telemetry.metrics.snapshot())
        return merged

    # -- artifacts ------------------------------------------------------
    def trace(self, *, include_wall: bool = False) -> dict:
        """The run as a Chrome/Perfetto trace object."""
        return chrome_trace(
            self.obs.tracer,
            include_wall=include_wall,
            metrics=self.obs.metrics,
        )

    def write_trace(
        self, path: str | Path, *, include_wall: bool = False
    ) -> Path:
        """Write the Perfetto trace JSON (open in ui.perfetto.dev)."""
        return _write_trace_file(
            self.obs.tracer,
            path,
            include_wall=include_wall,
            metrics=self.obs.metrics,
        )

    def manifest(self, *, trace_path: str | None = None) -> dict:
        results = {
            "scheduler": self.scheduler,
            "weighted_jct": self.weighted_jct,
            "weighted_flow": self.metrics.total_weighted_flow,
            "makespan": self.makespan,
            "simulated": self.sim is not None,
        }
        if self.kernel is not None:
            results["kernel"] = {
                "events": self.kernel.events,
                "commitments": self.kernel.commitments,
                "replans": self.kernel.replans,
                "retracted_rounds": self.kernel.retracted_rounds,
            }
            cell_stats = getattr(self.kernel, "cell_stats", None)
            if cell_stats is not None:
                results["kernel"]["cells"] = [
                    {k: v for k, v in s.items() if k != "wall_s"}
                    for s in cell_stats
                ]
        if self.diagnosis is not None:
            results["diagnosis"] = {
                "ok": self.diagnosis.ok,
                "findings": len(self.diagnosis.findings),
                "max_severity": (
                    self.diagnosis.max_severity.name
                    if self.diagnosis.max_severity is not None
                    else None
                ),
            }
        if self.remediation is not None:
            results["remediation"] = {
                "ok": self.remediation.ok,
                "actions": len(self.remediation.records),
                "applied": sum(
                    1 for r in self.remediation.records if r.applied
                ),
                "by_kind": self.remediation.counts(),
                "unremediated": len(self.remediation.unremediated),
            }
        return build_manifest(
            command=f"api.run_experiment({self.scheduler})",
            config=self.config,
            seed=self.config.get("seed"),
            results=results,
            metrics=self.metrics_snapshot(),
            trace_path=trace_path,
        )

    def write_manifest(
        self, path: str | Path, *, trace_path: str | None = None
    ) -> Path:
        """Write the ``run.json`` manifest next to the trace."""
        return _write_manifest_file(
            self.manifest(trace_path=trace_path), path
        )

    def write_baseline(self, path: str | Path) -> Path:
        """Snapshot this run's merged metrics as a regression baseline."""
        return write_baseline(
            snapshot_baseline(
                self.metrics_snapshot(),
                config=self.config,
                command=f"api.run_experiment({self.scheduler})",
            ),
            path,
        )

    def attribution(self) -> AttributionReport:
        """Where this run's time went (:mod:`repro.obs.attrib`).

        Per-job JCT decomposition, cluster critical path, and per-cell
        residency as an :class:`~repro.obs.attrib.AttributionReport`
        (schema ``repro.attrib/1``). Recorded runs are attributed from
        the kernel's ``kernel.round`` commit stream; unrecorded runs
        fall back to decomposing the committed schedule directly. The
        report is cached.
        """
        if self._attribution is not None:
            return self._attribution
        report = None
        if self.obs.recorder is not None:
            records = self.obs.recorder.records()
            if any(
                r.kind == "instant" and r.name == "kernel.round"
                for r in records
            ):
                report = attribute_records(
                    records, instance=self.instance
                )
        if report is None:
            admission = getattr(self.kernel, "admission_plan", None)
            report = attribute_schedule(
                self.plan,
                instance=self.instance,
                cells=(
                    admission.assignment
                    if admission is not None
                    else None
                ),
            )
        self._attribution = report
        return report

    def write_attribution(self, path: str | Path) -> Path:
        """Write the attribution report as ``repro.attrib/1`` JSON."""
        return write_attribution(self.attribution(), path)

    def write_flight_log(self, path: str | Path) -> Path:
        """Dump the flight recorder's history as schema-versioned JSONL."""
        if self.obs.recorder is None:
            raise ValueError(
                "this run was not recorded; pass record=True (or "
                "monitors=True) to run_experiment"
            )
        return self.obs.recorder.dump(path)


@dataclass(slots=True)
class CompareResult:
    """Several schedulers' :class:`RunResult` on one shared workload."""

    results: dict[str, RunResult]
    config: dict

    def __getitem__(self, name: str) -> RunResult:
        return self.results[name]

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.results.values())

    def __len__(self) -> int:
        return len(self.results)

    @property
    def names(self) -> list[str]:
        return list(self.results)

    def summary(self) -> dict[str, ScheduleMetrics]:
        return {name: r.metrics for name, r in self.results.items()}

    def metrics_snapshot(self) -> dict:
        """Per-scheduler metric snapshots, keyed by scheduler name."""
        return {
            name: r.metrics_snapshot() for name, r in self.results.items()
        }

    # -- artifacts ------------------------------------------------------
    def trace(self, *, include_wall: bool = False) -> dict:
        """One merged trace, one Perfetto process per scheduler."""
        return chrome_trace(
            {name: r.obs.tracer for name, r in self.results.items()},
            include_wall=include_wall,
            metrics={
                name: r.obs.metrics for name, r in self.results.items()
            },
        )

    def write_trace(
        self, path: str | Path, *, include_wall: bool = False
    ) -> Path:
        return _write_trace_file(
            {name: r.obs.tracer for name, r in self.results.items()},
            path,
            include_wall=include_wall,
            metrics={
                name: r.obs.metrics for name, r in self.results.items()
            },
        )

    def manifest(self, *, trace_path: str | None = None) -> dict:
        return build_manifest(
            command="api.compare",
            config=self.config,
            seed=self.config.get("seed"),
            results={
                name: {
                    "weighted_jct": r.weighted_jct,
                    "weighted_flow": r.metrics.total_weighted_flow,
                    "makespan": r.makespan,
                }
                for name, r in self.results.items()
            },
            metrics=self.metrics_snapshot(),
            trace_path=trace_path,
        )

    def write_manifest(
        self, path: str | Path, *, trace_path: str | None = None
    ) -> Path:
        return _write_manifest_file(
            self.manifest(trace_path=trace_path), path
        )


# ----------------------------------------------------------------------
def _spec_from(
    caller: str, spec: ExperimentSpec | None, kwargs: dict
) -> ExperimentSpec:
    """The spec a call describes: *spec* itself, or one built from the
    keyword arguments (never both)."""
    if spec is not None and kwargs:
        raise TypeError(
            f"{caller}() takes either an ExperimentSpec or keyword "
            "arguments, not both"
        )
    if spec is None:
        return ExperimentSpec(**kwargs)
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            f"{caller}() positional argument must be an "
            f"ExperimentSpec, got {type(spec).__name__}"
        )
    return spec


def _setup(spec: ExperimentSpec) -> tuple[Cluster, ProblemInstance]:
    cluster = spec.cluster
    if cluster is None:
        cluster = (
            testbed_cluster() if spec.gpus == 15
            else scaled_cluster(spec.gpus)
        )
    workload = spec.workload
    if workload is None:
        workload = make_loaded_workload(
            spec.jobs,
            reference_gpus=cluster.num_gpus,
            load=spec.load,
            seed=spec.seed,
            config=WorkloadConfig(rounds_scale=spec.rounds_scale),
        )
    return cluster, make_problem(cluster, list(workload))


def _run_one(
    spec: ExperimentSpec,
    cluster: Cluster,
    instance: ProblemInstance,
    config: dict,
) -> RunResult:
    """Run *spec* on the prepared *cluster*/*instance*; *config* is the
    manifest block the result carries."""
    sched = create_from_spec(spec.scheduler)
    engine = RemediationEngine(instance) if spec.heal else None
    obs = Obs.start(
        trace=spec.trace,
        record=spec.record or spec.monitors or spec.heal,
        monitors=(
            [engine] if engine is not None
            else default_monitors(instance) if spec.monitors
            else None
        ),
    )
    attrib_engine = None
    if obs.recorder is not None:
        # Silent stream consumer: rides the recorder sink, never
        # participates in diagnosis, ring-eviction-proof.
        attrib_engine = AttributionEngine(instance)
        obs.recorder.attach(attrib_engine)
    with use(obs):
        if spec.cells > 1:
            kernel_result = run_sharded(
                instance,
                sched,
                cells=spec.cells,
                strategy=spec.cell_strategy,
                cluster=cluster,
                admission=spec.admission,
                crashes=spec.crashes,
                replan_interval=spec.replan_interval,
            )
        else:
            kernel_result = run_policy(
                instance,
                sched.make_policy(instance),
                crashes=spec.crashes,
                replan_interval=spec.replan_interval,
                heal=engine,
            )
        plan = kernel_result.schedule
        if spec.validate:
            validate_schedule(plan)
        sim = (
            simulate_plan(
                cluster, instance, plan, switch_mode=spec.switch_mode
            )
            if spec.simulate
            else None
        )
    result = RunResult(
        scheduler=sched.name,
        cluster=cluster,
        instance=instance,
        plan=plan,
        plan_metrics=kernel_result.metrics,
        sim=sim,
        obs=obs,
        config=config,
        kernel=kernel_result,
    )
    if obs.recorder is not None and (spec.monitors or spec.heal):
        result.diagnosis = obs.recorder.diagnose(
            instance=instance, metrics=result.metrics_snapshot()
        )
    if engine is not None:
        result.remediation = engine.log
    if attrib_engine is not None:
        result._attribution = attrib_engine.report()
        result._attribution.publish(obs.metrics)
    return result


def run_experiment(
    spec: ExperimentSpec | None = None, /, **kwargs
) -> RunResult:
    """Run one scheduler end-to-end on a generated (or given) workload.

    Accepts either a prebuilt :class:`ExperimentSpec` positionally —
    ``run_experiment(spec)`` — or the spec's fields as keyword arguments
    (``run_experiment(gpus=30, scheduler="srtf")``), which are forwarded
    to the :class:`ExperimentSpec` constructor and validated there.
    Mixing both is an error.

    The workload is the loaded Google-like mix of the paper's experiments
    (``load`` × the reference cluster's capacity). Passing ``cluster``
    and/or ``workload`` skips the respective generation step. With
    ``simulate`` (the default) the plan is replayed on the DES with
    ``switch_mode`` switching costs; with ``trace`` the run records
    structured events exportable via :meth:`RunResult.write_trace`.

    Every run drives the scheduler as an incremental policy on the
    :mod:`repro.kernel` event loop — arrivals land as events, and
    :attr:`RunResult.kernel` carries the kernel's run statistics
    (events, commitments, re-plans). Offline planners run through a
    clairvoyant :class:`~repro.kernel.PlannedPolicy`, so their metrics
    equal their plan's. ``arrivals`` is recorded in the manifest config
    but selects nothing.

    ``record=True`` subscribes a flight recorder to the run
    (:attr:`Obs.recorder`, exportable via
    :meth:`RunResult.write_flight_log`); ``monitors=True`` additionally
    attaches the streaming invariant monitors and anomaly detectors and
    fills :attr:`RunResult.diagnosis` with their findings.

    ``heal=True`` closes the loop: a
    :class:`repro.heal.RemediationEngine` watches the monitors' findings
    *during* the run and applies the mapped remediation actions —
    throttling re-plan storms, boosting starved jobs, forcing re-plans,
    quarantining SUSPECT GPUs. The applied actions land on
    :attr:`RunResult.remediation`. ``replan_interval`` arms the kernel's
    periodic ``REPLAN_TIMER`` and ``crashes`` injects permanent GPU
    failures as ``(time, gpu)`` events. Every scheduler recovers on the
    kernel: the crash retracts the rounds the dead GPU would still run,
    and the policy re-places them — online Hare re-plans as on any
    event, a fixed plan re-plans its residual with its own planner, a
    gang baseline restarts the job as a fresh gang.

    ``cells > 1`` enables hierarchical cell-sharded scheduling
    (:mod:`repro.cells`): the cluster is split by ``cell_strategy``,
    each job is admitted to exactly one cell by the ``admission``
    policy, and one per-cell kernel runs per cell;
    :attr:`RunResult.kernel` is the merged
    :class:`~repro.cells.ShardedKernelResult`. ``cells=1`` is pinned
    byte-identical to the flat kernel path.
    """
    spec = _spec_from("run_experiment", spec, kwargs)
    cluster, instance = _setup(spec)
    return _run_one(spec, cluster, instance, spec.to_dict())


def simulate(
    cluster: Cluster,
    instance: ProblemInstance,
    plan: Schedule,
    *,
    scheduler: str = "custom",
    switch_mode: SwitchMode = SwitchMode.HARE,
    trace: bool = True,
    record: bool = False,
    monitors: bool = False,
) -> RunResult:
    """Replay an existing *plan* on the DES under a fresh observability
    context; the returned :class:`RunResult` carries the simulation, its
    telemetry, and the trace (plus the flight recorder / monitor
    diagnosis when ``record`` / ``monitors`` are set)."""
    obs = Obs.start(
        trace=trace,
        record=record or monitors,
        monitors=default_monitors(instance) if monitors else None,
    )
    with use(obs):
        sim = simulate_plan(
            cluster, instance, plan, switch_mode=switch_mode
        )
    result = RunResult(
        scheduler=scheduler,
        cluster=cluster,
        instance=instance,
        plan=plan,
        plan_metrics=metrics_from_schedule(plan),
        sim=sim,
        obs=obs,
        config={
            "gpus": cluster.num_gpus,
            "jobs": instance.num_jobs,
            "scheduler": scheduler,
            "switch_mode": switch_mode.value,
        },
    )
    if obs.recorder is not None and monitors:
        result.diagnosis = obs.recorder.diagnose(
            instance=instance, metrics=result.metrics_snapshot()
        )
    return result


def compare(
    spec: ExperimentSpec | None = None,
    /,
    *,
    schedulers: Sequence[SchedulerSpec] | None = None,
    **kwargs,
) -> CompareResult:
    """Run several schedulers on one shared workload.

    Takes the same inputs as :func:`run_experiment` — an
    :class:`ExperimentSpec` positionally or its fields as keywords —
    plus ``schedulers``, which replaces the spec's ``scheduler``. Unlike
    :func:`run_experiment`, keyword calls default to ``simulate=False``.
    Defaults to the paper's five compared schemes (Hare last). Each run
    gets a private tracer and registry; :meth:`CompareResult.write_trace`
    merges them into one Perfetto file with a process per scheduler.
    """
    if spec is None:
        kwargs.setdefault("simulate", False)
    base = _spec_from("compare", spec, kwargs)
    cluster, instance = _setup(base)
    config = base.to_dict()
    del config["scheduler"]
    schemes = DEFAULT_SCHEMES if schedulers is None else schedulers
    results: dict[str, RunResult] = {}
    for scheme in schemes:
        run = _run_one(
            replace(base, scheduler=scheme), cluster, instance, config
        )
        results[run.scheduler] = run
    return CompareResult(results=results, config=config)


__all__ = [
    "ArrivalsMode",
    "CompareResult",
    "DEFAULT_SCHEMES",
    "ExperimentSpec",
    "RunResult",
    "SchedulerSpec",
    "SweepPoint",
    "SweepResult",
    "compare",
    "run_experiment",
    "simulate",
    "sweep",
]
