"""Routed record fan-out: the same findings, remediation logs and
attribution as handing every record to every consumer."""

from __future__ import annotations

import dataclasses
import json
from unittest import mock

import pytest

from repro import api
from repro.cli import main
from repro.obs import diagnose_schedule
from repro.heal.engine import RemediationEngine
from repro.obs.monitors import (
    CommitmentMonotonicityMonitor,
    DiagnosisContext,
    Monitor,
    default_monitors,
    replay_monitors,
)
from repro.obs.recorder import FlightRecorder, Record, RecordRouter
from repro.schedulers.registry import available
from tests.core.oracles import schedule_of
from tests.obs.oracles import unrouted


def _outputs(result) -> str:
    out = {"diagnosis": result.diagnosis.to_json()}
    if result.remediation is not None:
        out["remediation"] = result.remediation.to_json()
    out["attribution"] = result.attribution().to_json()
    return json.dumps(out, sort_keys=True)


def _routed_and_unrouted(fn):
    routed = fn()
    with unrouted():
        plain = fn()
    return routed, plain


class TestRoutedEqualsUnrouted:
    @pytest.mark.parametrize("name", available())
    def test_every_registered_scheduler(self, name):
        def run():
            return _outputs(api.run_experiment(
                gpus=5, jobs=5, scheduler=name, seed=11, rounds_scale=0.2,
                arrivals="streaming", trace=False, monitors=True,
            ))

        routed, plain = _routed_and_unrouted(run)
        assert routed == plain

    def test_healed_online_run_with_a_crash(self):
        def run():
            return _outputs(api.run_experiment(
                gpus=6, jobs=8, scheduler="hare_online", seed=5,
                rounds_scale=0.3, arrivals="streaming", replan_interval=1.0,
                crashes=((4.0, 1),), heal=True, trace=False,
            ))

        routed, plain = _routed_and_unrouted(run)
        assert routed == plain
        assert '"remediation"' in routed

    def test_diagnose_schedule(self):
        r = api.run_experiment(
            gpus=4, jobs=5, scheduler="hare", seed=3, rounds_scale=0.2,
            simulate=False, trace=False,
        )
        sched = r.plan
        victim, donor = sorted(sched.assignments)[:2]
        moved = dataclasses.replace(
            sched[victim], gpu=sched[donor].gpu, start=sched[donor].start
        )
        sched = schedule_of(
            sched.instance,
            (
                moved if t == victim else a
                for t, a in sched.assignments.items()
            ),
        )

        def run():
            return diagnose_schedule(sched).to_json()

        routed, plain = _routed_and_unrouted(run)
        assert routed == plain
        assert not routed["ok"]

    def test_stream_where_every_monitor_fires(self):
        """A real run's records plus one anomaly per monitor: routing
        must not hide a single record any monitor acts on."""
        r = api.run_experiment(
            gpus=4, jobs=5, scheduler="hare_online", seed=5,
            rounds_scale=0.2, arrivals="streaming", trace=False,
            record=True,
        )
        records = r.obs.recorder.records()
        end = max(rec.end for rec in records)

        def add(kind, cat, name, track, t, dur=0.0, **args):
            records.append(
                Record(len(records), kind, cat, name, track, t, dur, args)
            )

        first = next(
            rec for rec in records
            if rec.kind == "span" and rec.track == "gpu/0"
        )
        add("span", "sim", "clone", "gpu/0", first.time, first.duration,
            job=first.args["job"], round=first.args["round"])
        add("instant", "sched", "kernel.commit", "kernel", end,
            job=0, rounds_done=0)
        for k in range(10):
            add("instant", "sched", "kernel.replan", "kernel",
                end + 0.1 * k)
        add("instant", "sim", "JOB_ARRIVED", "kernel", 0.0, job=99)
        add("span", "sim", "j99 r0", "gpu/1", 10 * end, 1.0,
            job=99, round=0, slot=0)
        add("instant", "fault", "rpc_budget_exhausted", "rpc", end,
            dst="gpu/2", attempts=4, consecutive=2, severity="error")
        add("instant", "sched", "cells.partition", "cells", 0.0, cells=2)
        add("instant", "sched", "cells.admit", "cells", 0.0,
            job=0, cell=0, work_s=100.0)
        metrics = {"sim.train_time_s": {"total": 0.0}}

        def run():
            return replay_monitors(list(records), metrics=metrics).to_json()

        routed, plain = _routed_and_unrouted(run)
        assert routed == plain
        fired = {f["monitor"] for f in plain["findings"]}
        assert fired == {m.name for m in default_monitors()} | {
            "schedule_constraints"
        }

    def test_repro_chaos(self, capsys):
        argv = [
            "chaos", "--jobs", "4", "--gpus", "6", "--rounds-scale", "0.3",
            "--seed", "3", "--crash", "8:1", "--checkpoint-interval", "2",
            "--drop-rate", "0.05", "--heal",
        ]

        def run():
            assert main(argv) == 0
            return capsys.readouterr().out

        routed, plain = _routed_and_unrouted(run)
        assert routed == plain
        assert "remediation OK" in routed


class _Seen(CommitmentMonotonicityMonitor):
    """Logs the name of every record routed to it."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []

    def on_record(self, record) -> None:
        self.names.append(record.name)
        super().on_record(record)


class _SeesAll:
    """A third-party consumer with no ``wants``."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def observe(self, record) -> None:
        self.names.append(record.name)


def _instant(rec: FlightRecorder, name: str, t: float, **args) -> None:
    rec.record("instant", "sched", name, track="kernel", time=t, args=args)


class TestRoutingContract:
    def test_engine_observe_equals_the_recorders_route(self):
        """``RemediationEngine.observe`` resolves each route once and
        finds what the engine finds behind a recorder."""
        r = api.run_experiment(
            gpus=6, jobs=8, scheduler="hare_online", seed=5,
            rounds_scale=0.3, arrivals="streaming", replan_interval=1.0,
            crashes=((4.0, 1),), heal=True, trace=False,
        )
        records = r.obs.recorder.records()
        observed = RemediationEngine(r.instance)
        resolve = RecordRouter._resolve
        with mock.patch.object(RecordRouter, "_resolve", autospec=True,
                               side_effect=resolve) as resolved:
            for record in records:
                observed.observe(record)
        keys = {
            (rec.kind, rec.category, rec.name.partition(" ")[0])
            for rec in records
        }
        assert resolved.call_count == len(keys)
        routed = RemediationEngine(r.instance)
        recorder = FlightRecorder(monitors=[routed])
        for rec in records:
            recorder.record(rec.kind, rec.category, rec.name, rec.track,
                            rec.time, rec.duration, rec.args)
        ctx = DiagnosisContext(instance=r.instance)
        observed.finish(ctx)
        routed.finish(ctx)
        assert [f.to_json() for f in observed.findings] == [
            f.to_json() for f in routed.findings
        ]
        assert observed.log.to_json() == routed.log.to_json()
        assert observed.log.records

    def test_name_with_a_space_after_a_wanted_prefix_still_arrives(self):
        """The route key is the name up to its first space, so
        ``kernel.commit x`` reaches a ``kernel.commit`` consumer, which
        filters it out itself."""
        seen = _Seen()
        rec = FlightRecorder(monitors=[seen])
        _instant(rec, "kernel.commit", 1.0, job=0, rounds_done=3)
        _instant(rec, "kernel.commit x", 2.0, job=0, rounds_done=1)
        _instant(rec, "kernel.commit", 3.0, job=0, rounds_done=4)
        assert seen.names == [
            "kernel.commit", "kernel.commit x", "kernel.commit"
        ]
        assert seen.findings == []  # the odd record changed nothing

    def test_unwanted_records_are_not_delivered(self):
        seen = _Seen()
        rec = FlightRecorder(monitors=[seen])
        _instant(rec, "kernel.round", 1.0, job=0)
        rec.record("span", "sim", "j0 r0", track="gpu/0", time=0.0,
                   duration=1.0)
        assert seen.names == []

    def test_consumer_without_wants_sees_every_record(self):
        plain, seen = _SeesAll(), _Seen()
        rec = FlightRecorder(monitors=[plain])
        rec.attach(seen)
        _instant(rec, "kernel.round", 1.0, job=0)
        _instant(rec, "kernel.commit", 2.0, job=0, rounds_done=1)
        rec.record("span", "sim", "j0 r0", track="gpu/0", time=0.0,
                   duration=1.0)
        assert plain.names == ["kernel.round", "kernel.commit", "j0 r0"]
        assert seen.names == ["kernel.commit"]

    def test_base_monitor_wants_everything(self):
        assert Monitor().wants("flow", "sync", "anything")

    def test_routes_are_memoized_per_prefix_not_per_name(self):
        router = RecordRouter([_Seen()])
        for r in range(5):
            router.route("instant", "sync", f"barrier j3 r{r}")
        router.route("instant", "sched", "kernel.commit")
        assert len(router._routes) == 2

    def test_attach_is_the_only_way_to_subscribe(self):
        """``monitors`` is read-only, so no consumer can join behind the
        route memo; one attached after a route was memoized still gets
        that route's records."""
        first, late = _SeesAll(), _SeesAll()
        rec = FlightRecorder(monitors=[first])
        assert rec.monitors == (first,)
        with pytest.raises(AttributeError):
            rec.monitors.append(late)
        with pytest.raises(AttributeError):
            rec.monitors = [first, late]
        _instant(rec, "kernel.commit", 1.0, job=0, rounds_done=1)
        rec.attach(late)
        _instant(rec, "kernel.commit", 2.0, job=0, rounds_done=2)
        assert rec.monitors == (first, late)
        assert first.names == ["kernel.commit", "kernel.commit"]
        assert late.names == ["kernel.commit"]
