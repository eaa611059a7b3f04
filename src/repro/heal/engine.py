"""The online remediation engine: act on findings while the run is live.

The engine duck-types as a monitor, so it plugs into the existing
observability plumbing unchanged::

    engine = RemediationEngine(instance)
    obs = Obs.start(trace=False, record=True, monitors=[engine])
    with use(obs):
        result = run_policy(instance, policy, replan_interval=0.25,
                            heal=engine)

It wraps its own copy of the monitor catalogue, which the recorder's
one :class:`~repro.obs.recorder.RecordRouter` routes to directly: a
record reaches the wrapped monitors that want it, then the engine's
per-record bookkeeping (:meth:`RemediationEngine.bookkeeper`), or, for
a block of records, its bookkeeping of the whole slice
(:meth:`RemediationEngine.take_block`). Callers
attach *either* plain monitors *or* the engine — not both (the engine's
``findings`` already include everything its wrapped monitors found,
plus an INFO finding per action taken, so ``recorder.diagnose()`` keeps
working). The engine itself sees every sim-time record: each one counts
towards the :data:`POLL_EVERY` cadence. Wall-domain records (the tooling's
own phase timings) reach neither the engine nor its monitors, so a
decision never depends on how many timed spans the run emitted or on
their wall-clock times.

Dispatch is three-stage: streaming monitors (replan storm, commitment
monotonicity, RPC budget) surface findings the moment they observe them;
finish-time analyses (starvation, collapse) are evaluated incrementally
via ``Monitor.poll`` every :data:`POLL_EVERY` records; failure-detector
SUSPECT/ALIVE/DEAD instants are consumed directly (``gpu_suspect`` is a
synthetic finding type — today those transitions are emitted but nothing
else consumes them). Each fresh finding is looked up in
:data:`~repro.heal.policy.DEFAULT_POLICY` and the mapped action applied
through whatever hosts are attached: a
:class:`~repro.kernel.runner.SchedulingKernel` (throttle, boost,
force-replan) and/or the chaos control plane (quarantine consumption at
re-plan time).
"""

from __future__ import annotations

from ..obs import Category, current as obs_current
from ..obs.monitors import (
    DiagnosisContext,
    Finding,
    Severity,
    default_monitors,
)
from ..obs.recorder import RecordRouter
from .actions import RemediationAction, RemediationLog, RemediationRecord
from .policy import DEFAULT_POLICY

#: Trace track carrying ``remediation`` instants.
HEAL_TRACK = "heal"

#: Boost multipliers within this of 1.0 are dropped entirely.
BOOST_FLOOR = 0.05

#: Sim-time records between two polls of the wrapped monitors.
POLL_EVERY = 64


class RemediationEngine:
    """Maps live findings to remediation actions via the policy table.

    Attach to the flight recorder as a monitor; attach a kernel with
    :meth:`attach_kernel` (``run_policy(..., heal=engine)`` does it for
    you) to enable the kernel-side hooks. Without a kernel the engine
    still logs every decision — actions whose hook is absent are
    recorded with ``applied=False``.
    """

    name = "remediation_engine"
    invariant = False

    def __init__(self, instance=None) -> None:
        self.instance = instance
        #: The wrapped monitors; the recorder routes records to them.
        self.monitors = tuple(default_monitors(instance))
        self.log = RemediationLog()
        #: Assembled at :meth:`finish`: wrapped monitors' findings plus
        #: one INFO finding per action (the monitor protocol surface).
        self.findings: list[Finding] = []
        self._own: list[Finding] = []
        #: GPUs currently excluded from new commitments (global ids).
        self.quarantined: set[int] = set()
        #: Per-job weight multipliers (global ids), capped and decaying.
        self.boosts: dict[int, float] = {}
        self.max_boost_seen = 1.0
        self._kernel = None
        self._drained = [0] * len(self.monitors)
        self._freshly_boosted: set[int] = set()
        self._boost_decay = 0.5
        self._records = 0
        self._now = 0.0
        #: True while acting on findings: the remediation instants the
        #: engine emits then echo back uncounted.
        self._dispatching = False
        #: Routes records handed to :meth:`observe`.
        self._router = RecordRouter((self,))
        #: The last block taken, and its health-report schemas.
        self._block = None
        self._health: set[int] = set()

    # -- host attachment ------------------------------------------------
    def attach_kernel(self, kernel) -> None:
        """Wire the kernel-side hooks (called by ``run_policy(heal=...)``).

        The kernel state's advisory ``weight_boost``/``quarantined``
        fields are aliased to the engine's, so later engine updates are
        visible to the policy without further plumbing.
        """
        self._kernel = kernel
        kernel.state.weight_boost = self.boosts
        kernel.state.quarantined = self.quarantined
        if self.instance is None:
            self.instance = kernel.instance

    # -- monitor protocol ----------------------------------------------
    def bookkeeper(self, key: tuple[str, str, str], reached: tuple):
        """The per-record bookkeeping the recorder runs once a record of
        *key* has reached the wrapped monitors in *reached*; ``None`` for
        wall records, which neither the engine nor its monitors take."""
        kind, category, _ = key
        if kind == "wall":
            # Tooling timings, not the run: never count or clock them.
            return None
        health = kind == "instant" and category == "fault"
        watched = tuple(
            (m, i) for i, m in enumerate(self.monitors) if m in reached
        )
        drained = self._drained

        def after(record) -> None:
            if self._dispatching:
                return  # our own remediation instants echo back; ignore
            if record.time > self._now:
                self._now = record.time
            if health and "gpu" in record.args and "state" in record.args:
                self._on_health(record.time, record.track, record.args)
            # Findings grow only in a monitor that just ran (or in a
            # poll, which drains on its own).
            for m, i in watched:
                if len(m.findings) != drained[i]:
                    self._drain()
                    break
            self._count(1)

        return after

    def slice_stop(self, block, lo: int) -> int:
        """Where a slice of *block* from row *lo* ends: after the row
        that polls or the next GPU health report, whichever is first,
        or at the block's end. Only a slice's last row emits."""
        stop = min(len(block), lo + POLL_EVERY - self._records % POLL_EVERY)
        health = self._health_schemas(block)
        if health:
            for i in range(lo, stop):
                if block.schema[i] in health:
                    return i + 1
        return stop

    def take_block(self, block, lo: int, hi: int) -> None:
        """The bookkeeping of block rows *lo* to *hi* (a slice ending at
        :meth:`slice_stop`) once their records have reached the wrapped
        monitors, as :meth:`bookkeeper`'s would do it record by record:
        clock, the last row's health report, drain, count and poll.

        The drain runs once, after the slice: the wrapped monitors emit
        findings on block rows (sim spans and instants) only when
        polled, so nothing is left to drain earlier.
        """
        if self._dispatching:
            return
        latest = max(block.time[lo:hi])
        if latest > self._now:
            self._now = latest
        if block.schema[hi - 1] in self._health_schemas(block):
            _, _, _, track, time, _, args = block.rows((hi - 1,))[0]
            self._on_health(time, track, args)
        self._drain()
        self._count(hi - lo)

    def _health_schemas(self, block) -> set[int]:
        """The schemas of *block* whose rows report a GPU's health: fault
        instants with ``gpu`` and ``state`` arguments."""
        if block is not self._block:
            self._block = block
            self._health = {
                k for k, s in enumerate(block.schemas)
                if s.kind == "instant" and s.category == "fault"
                and "gpu" in s.args and "state" in s.args
            }
        return self._health

    def _count(self, n: int) -> None:
        self._records += n
        if self._records % POLL_EVERY == 0:
            self.poll_now()

    def observe(self, record) -> None:
        """Take one record as the recorder's route would deliver it."""
        for deliver in self._router.route(
            record.kind, record.category, record.name
        ):
            deliver(record)

    def poll_now(self) -> None:
        """Incrementally evaluate the wrapped monitors and dispatch."""
        ctx = DiagnosisContext(instance=self.instance, metrics=None)
        for m in self.monitors:
            m.poll(ctx)
        self._drain()
        self._decay_boosts()

    def finish(self, ctx: DiagnosisContext) -> None:
        for m in self.monitors:
            m.finish(ctx)
        self._drain()
        merged: list[Finding] = []
        for m in self.monitors:
            merged.extend(m.findings)
        merged.extend(self._own)
        self.findings = merged

    # -- dispatch -------------------------------------------------------
    def _drain(self) -> None:
        """Dispatch findings the wrapped monitors emitted since last time."""
        if self._dispatching:
            return
        self._dispatching = True
        try:
            for i, m in enumerate(self.monitors):
                if len(m.findings) == self._drained[i]:
                    continue
                fresh = m.findings[self._drained[i]:]
                self._drained[i] = len(m.findings)
                for finding in fresh:
                    self._dispatch(finding)
        finally:
            self._dispatching = False

    def _on_health(self, time: float, track: str, args) -> None:
        gpu = int(args["gpu"])
        state = args["state"]
        if state == "suspect":
            finding = Finding(
                severity=Severity.WARNING,
                monitor="gpu_suspect",
                message=f"gpu {gpu} suspected by the failure detector",
                time=time,
                track=track,
                details={"gpu": gpu},
            )
            self._dispatching = True
            try:
                self._dispatch(finding)
            finally:
                self._dispatching = False
        elif state in ("alive", "dead"):
            # Recovered or lease-expired: either way the quarantine is
            # moot (recovery plans already exclude the dead).
            self.quarantined.discard(gpu)

    def _dispatch(self, finding: Finding) -> None:
        spec = DEFAULT_POLICY.get(finding.monitor)
        if spec is None:
            self.log.unremediated.append(finding)
            obs_current().metrics.counter("heal.unremediated").inc()
            return
        handler = getattr(self, f"_act_{spec.kind}")
        applied, detail, params = handler(finding, dict(spec.params))
        time = finding.time if finding.time is not None else self._now
        action = RemediationAction(
            kind=spec.kind, monitor=finding.monitor, time=time,
            params=params,
        )
        self.log.records.append(
            RemediationRecord(action=action, applied=applied, detail=detail)
        )
        obs = obs_current()
        if obs.enabled:
            obs.tracer.instant(
                Category.CTRL,
                "remediation",
                track=HEAL_TRACK,
                time=time,
                action=spec.kind,
                monitor=finding.monitor,
                applied=applied,
            )
        obs.metrics.counter(f"heal.{spec.kind}").inc()
        if applied:
            obs.metrics.counter("heal.applied").inc()
        self._own.append(
            Finding(
                severity=Severity.INFO,
                monitor=self.name,
                message=(
                    f"{spec.kind} "
                    f"({'applied' if applied else 'declined'}) for "
                    f"{finding.monitor}: {detail}"
                ),
                time=time,
                track=HEAL_TRACK,
                details={
                    "action": spec.kind, "monitor": finding.monitor,
                    "applied": applied,
                },
            )
        )

    # -- actions --------------------------------------------------------
    def _act_throttle_replans(self, finding, params):
        gap = params.get("min_gap_s")
        if gap is None:
            # Derive a gap that would have kept the observed burst at
            # roughly half the storm threshold.
            window = float(finding.details.get("window_s", 5.0))
            replans = int(finding.details.get("replans", 8))
            gap = window / max(1, replans // 2)
            params["min_gap_s"] = gap
        kernel = self._kernel
        if kernel is None:
            return False, "no kernel attached", params
        action = RemediationAction(
            kind="throttle_replans", monitor=finding.monitor,
            time=self._now, params=params,
        )
        if not kernel.policy.apply_remediation(action):
            return False, "policy declined the throttle", params
        return True, f"replan gap clamped to {gap:.3f}s", params

    def _act_boost_weight(self, finding, params):
        job = finding.details.get("job")
        if job is None:
            return False, "finding names no job", params
        job = int(job)
        factor = float(params.get("factor", 2.0))
        cap = float(params.get("cap", 8.0))
        self._boost_decay = float(params.get("decay", self._boost_decay))
        new = min(cap, self.boosts.get(job, 1.0) * factor)
        self.boosts[job] = new
        self.max_boost_seen = max(self.max_boost_seen, new)
        self._freshly_boosted.add(job)
        params["job"] = job
        params["boost"] = new
        return True, f"job {job} weight boosted to {new:.2f}×", params

    def _act_force_replan(self, finding, params):
        kernel = self._kernel
        if kernel is None:
            return False, "no kernel attached", params
        if not kernel.request_replan():
            return False, "run already complete", params
        return True, "re-plan scheduled", params

    def _act_quarantine_gpu(self, finding, params):
        gpu = finding.details.get("gpu")
        if gpu is None:
            return False, "finding names no gpu", params
        gpu = int(gpu)
        already = gpu in self.quarantined
        self.quarantined.add(gpu)
        params["gpu"] = gpu
        detail = (
            f"gpu {gpu} already quarantined" if already
            else f"gpu {gpu} excluded from new commitments"
        )
        return True, detail, params

    def _act_observe(self, finding, params):
        return True, "logged only (observe policy)", params

    # ------------------------------------------------------------------
    def _decay_boosts(self) -> None:
        """Relax boosts towards 1.0 for jobs no longer flagged."""
        for job in list(self.boosts):
            if job in self._freshly_boosted:
                continue
            relaxed = 1.0 + (self.boosts[job] - 1.0) * self._boost_decay
            if relaxed - 1.0 < BOOST_FLOOR:
                del self.boosts[job]
            else:
                self.boosts[job] = relaxed
        self._freshly_boosted.clear()
