"""The online remediation engine: act on findings while the run is live.

The engine duck-types as a monitor, so it plugs into the existing
observability plumbing unchanged::

    engine = RemediationEngine(instance)
    obs = Obs.start(trace=False, record=True, monitors=[engine])
    with use(obs):
        result = run_policy(instance, policy, replan_interval=0.25,
                            heal=engine)

It wraps its own copy of the monitor catalogue and forwards every record
to it, so callers attach *either* plain monitors *or* the engine — not
both (the engine's ``findings`` already include everything its wrapped
monitors found, plus an INFO finding per action taken, so
``recorder.diagnose()`` keeps working).

Dispatch is three-stage: streaming monitors (replan storm, the invariant
checkers, RPC budget) surface findings the moment they observe them;
finish-time analyses (starvation, collapse) are evaluated incrementally
via ``Monitor.poll`` every ``poll_every`` records; failure-detector
SUSPECT/ALIVE/DEAD instants are consumed directly (``gpu_suspect`` is a
synthetic finding type — today those transitions are emitted but nothing
else consumes them). Each fresh finding is looked up in the policy
table and the mapped action applied through whatever hosts are attached:
a :class:`~repro.kernel.runner.SchedulingKernel` (throttle, boost,
force-replan) and/or the chaos control plane (quarantine consumption at
re-plan time).
"""

from __future__ import annotations

from typing import Mapping

from ..obs import Category, current as obs_current
from ..obs.monitors import (
    DiagnosisContext,
    Finding,
    Severity,
    default_monitors,
)
from .actions import RemediationAction, RemediationLog, RemediationRecord
from .policy import ActionSpec, resolve_policy

#: Trace track carrying ``remediation`` instants.
HEAL_TRACK = "heal"

#: Boost multipliers within this of 1.0 are dropped entirely.
BOOST_FLOOR = 0.05


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

    def __init__(
        self,
        instance=None,
        *,
        policy: Mapping[str, ActionSpec | None] | None = None,
        monitors=None,
        poll_every: int = 64,
    ) -> None:
        self.instance = instance
        self.policy_table = resolve_policy(policy)
        self.poll_every = poll_every
        self._monitors = (
            list(monitors) if monitors is not None
            else default_monitors(instance)
        )
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
        self._drained = [0] * len(self._monitors)
        self._drained_total = 0
        self._freshly_boosted: set[int] = set()
        self._boost_decay = 0.5
        self._records = 0
        self._now = 0.0
        self._dispatching = False

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
    def observe(self, record) -> None:
        if self._dispatching:
            return  # our own remediation instants echo back; ignore
        self._now = max(self._now, record.time)
        for m in self._monitors:
            m.observe(record)
        if (
            record.kind == "instant"
            and record.category == "fault"
            and "gpu" in record.args
            and "state" in record.args
        ):
            self._on_health(record)
        total = sum(len(m.findings) for m in self._monitors)
        if total != self._drained_total:
            self._drain()
        self._records += 1
        if self._records % self.poll_every == 0:
            self.poll_now()

    def poll_now(self) -> None:
        """Incrementally evaluate the wrapped monitors and dispatch."""
        ctx = DiagnosisContext(instance=self.instance, metrics=None)
        for m in self._monitors:
            m.poll(ctx)
        self._drain()
        self._decay_boosts()

    def finish(self, ctx: DiagnosisContext) -> None:
        for m in self._monitors:
            m.finish(ctx)
        self._drain()
        merged: list[Finding] = []
        for m in self._monitors:
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
            for i, m in enumerate(self._monitors):
                fresh = m.findings[self._drained[i]:]
                self._drained[i] = len(m.findings)
                for finding in fresh:
                    self._dispatch(finding)
            self._drained_total = sum(
                len(m.findings) for m in self._monitors
            )
        finally:
            self._dispatching = False

    def _on_health(self, record) -> None:
        gpu = int(record.args["gpu"])
        state = record.args["state"]
        if state == "suspect":
            finding = Finding(
                severity=Severity.WARNING,
                monitor="gpu_suspect",
                message=f"gpu {gpu} suspected by the failure detector",
                time=record.time,
                track=record.track,
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
        spec = self.policy_table.get(finding.monitor)
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
