"""Structured event tracer: typed spans, instants and flow arrows.

Every subsystem emits into one :class:`Tracer` through a small vocabulary:

* **spans** — an activity with sim-time extent on a named track (a task's
  compute on ``gpu/3``, a round's gradient sync on ``job/7``);
* **instants** — a point event (a round barrier opening, a failure-detector
  transition, a control-plane ack);
* **flows** — causal arrows between two points on (possibly different)
  tracks (a round barrier releasing the next round's first task);
* **wall spans** — wall-clock timings of the scheduler's *own* phases
  (relaxation solve, list scheduling), kept in a separate domain so the
  sim-time trace stays byte-reproducible across runs;
* **record blocks** — many sim-time spans, instants and flows at once,
  as columns (:class:`RecordBlock`): the DES replay hands its records
  over this way, in one call.

Events carry a :class:`Category` so viewers and tests can filter by
subsystem. The :class:`NullTracer` is the disabled path: recording methods
are no-ops, so hot loops emit unconditionally.

Export to Chrome/Perfetto JSON lives in :mod:`repro.obs.perfetto`.
"""

from __future__ import annotations

import enum
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

import numpy as np

from .metrics import Histogram


class Category(str, enum.Enum):
    """Event taxonomy: which subsystem emitted the event."""

    SCHED = "sched"    #: scheduling algorithm (plans, phases, objectives)
    SIM = "sim"        #: discrete-event simulator (task compute, engine)
    SWITCH = "switch"  #: task-switch overhead (the §4 pipeline)
    SYNC = "sync"      #: gradient synchronization and round barriers
    FAULT = "fault"    #: failures, detection, recovery
    CTRL = "ctrl"      #: control plane (submissions, shipping, acks)


#: Conventional track names (``tid`` rows in the exported trace).
def gpu_track(gpu_id: int) -> str:
    return f"gpu/{gpu_id}"


def job_track(job_id: int) -> str:
    return f"job/{job_id}"


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """An activity with extent ``[start, start + duration]`` in sim time."""

    category: Category
    name: str
    track: str
    start: float
    duration: float
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True, slots=True)
class InstantEvent:
    """A point event on a track."""

    category: Category
    name: str
    track: str
    time: float
    args: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class FlowEvent:
    """A causal arrow from one (track, time) to another."""

    flow_id: int
    category: Category
    name: str
    src_track: str
    src_time: float
    dst_track: str
    dst_time: float


@dataclass(frozen=True, slots=True)
class WallSpan:
    """A wall-clock timing of the tooling itself (profiling hook)."""

    category: Category
    name: str
    track: str
    start: float
    duration: float
    args: dict = field(default_factory=dict)


#: A block row's values by position: its four ints, then its value.
_POSITIONS = {"job": 0, "round": 1, "slot": 2, "gpu": 3}


def _positional(template: str) -> str:
    """*template* with each named int as its position in a row."""
    for name, k in _POSITIONS.items():
        template = template.replace(f"{{{name}}}", f"{{{k}}}")
    return template


@dataclass(frozen=True, slots=True)
class RecordSchema:
    """How one shape of :class:`RecordBlock` row becomes a record.

    ``name`` and ``track`` are :meth:`str.format` templates over the
    row's ``job``, ``round``, ``slot`` and ``gpu``; the name up to its
    first space (the prefix records are routed by) may read ``{job}``
    only. ``args`` names the record's arguments in order: ``job``,
    ``round``, ``slot`` and ``gpu`` read those columns, any other name
    reads the row's value. A flow row's arrow runs from ``track`` at the
    row's time to ``dst_track`` at its value; its id is ``(job * 10_000
    + round) * 10_000 + slot``.
    """

    kind: str
    category: Category
    name: str
    track: str
    args: tuple[str, ...] = ()
    dst_track: str = ""
    #: The name, track and destination templates over a row's values by
    #: position, and each argument's position.
    _form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_form", (
            _positional(self.name), _positional(self.track),
            _positional(self.dst_track),
            tuple(_POSITIONS.get(a, 4) for a in self.args),
        ))


def _gather(rows: list[int]):
    """A callable gathering *rows* of a column into a tuple."""
    if len(rows) == 1:
        row = rows[0]
        return lambda column: (column[row],)
    return itemgetter(*rows)


def _flow_args(dst_track: str, dst_time) -> dict:
    return {"dst_track": dst_track, "dst_time": dst_time}


@dataclass(frozen=True, slots=True)
class RecordBlock:
    """Sim-time records as columns, in emission order.

    Row *i* is a record of shape ``schemas[schema[i]]`` at ``time[i]``
    lasting ``duration[i]``; its name, track and arguments are derived
    from its ``job``/``round``/``slot``/``gpu`` ints and its ``value``
    only when something reads them (:meth:`rows`, :meth:`events`).
    Times and values keep the objects the emitter passed.
    """

    schemas: tuple[RecordSchema, ...]
    schema: list[int]
    time: list
    duration: list
    job: list[int]
    round: list[int]
    slot: list[int]
    gpu: list[int]
    value: list

    @classmethod
    def from_flat(cls, schemas: tuple[RecordSchema, ...],
                  values: list) -> "RecordBlock":
        """The block whose rows' eight values (schema, time, duration,
        job, round, slot, gpu, value) lie end to end in *values*."""
        return cls(schemas, *(values[k::8] for k in range(8)))

    def __len__(self) -> int:
        return len(self.schema)

    def rows(self, idx) -> list[tuple]:
        """The rows *idx*, in order, each as ``(kind, category, name,
        track, time, duration, args)``: the flight recorder's record
        fields. They are built one schema at a time, a column gather and
        a ``str.format`` map per field."""
        idx = list(idx)
        out: list = [None] * len(idx)
        #: per schema, the places in *idx* of its rows
        places: dict[int, list[int]] = {}
        for p, k in enumerate(map(self.schema.__getitem__, idx)):
            places.setdefault(k, []).append(p)
        for k, at in places.items():
            s = self.schemas[k]
            name, track, dst_track, where = s._form
            get = _gather([idx[p] for p in at])
            cols = tuple(map(get, (self.job, self.round, self.slot,
                                   self.gpu, self.value)))
            if s.kind == "flow":
                args = map(_flow_args, map(dst_track.format, *cols), cols[4])
            elif where:
                args = map(dict, map(zip, repeat(s.args),
                                     zip(*map(cols.__getitem__, where))))
            else:
                args = map(dict, repeat((), len(at)))
            fields = zip(
                repeat(s.kind), repeat(s.category._value_),
                map(name.format, *cols), map(track.format, *cols),
                get(self.time), get(self.duration), args,
            )
            for p, f in zip(at, fields):
                out[p] = f
        return out

    def route_keys(self) -> tuple[list[tuple[str, str, str]], np.ndarray]:
        """The distinct ``(kind, category, prefix)`` keys of the rows and
        each row's index into them."""
        width = max(self.job, default=0) + 2
        code = (np.asarray(self.schema, dtype=np.int64) * width
                + np.asarray(self.job, dtype=np.int64) + 1)
        index = np.zeros(len(self.schemas) * width, dtype=np.int64)
        index[code] = 1
        distinct = np.flatnonzero(index)
        index[distinct] = np.arange(len(distinct))
        keys = []
        for c in distinct.tolist():
            s = self.schemas[c // width]
            prefix = s.name.partition(" ")[0].format(job=c % width - 1)
            keys.append((s.kind, s.category._value_, prefix))
        return keys, index[code]

    def events(self, spans: list, instants: list, flows: list) -> None:
        """Append every row's tracer event to the list of its kind."""
        rows = self.rows(range(len(self)))
        for i, s in enumerate(map(self.schemas.__getitem__, self.schema)):
            kind, _, name, track, time, duration, args = rows[i]
            if kind == "span":
                spans.append(SpanEvent(s.category, name, track, time,
                                       duration, args))
            elif kind == "instant":
                instants.append(InstantEvent(s.category, name, track, time,
                                             args))
            else:
                flow_id = (self.job[i] * 10_000 + self.round[i]) * 10_000
                flows.append(FlowEvent(
                    flow_id + self.slot[i], s.category, name, track, time,
                    args["dst_track"], args["dst_time"],
                ))


@dataclass(slots=True)
class Tracer:
    """Collects structured events for one run.

    ``sink`` (optional) receives every event as it is emitted via the
    sink protocol (``on_span`` / ``on_instant`` / ``on_flow`` /
    ``on_wall``, and ``on_block`` for a whole :class:`RecordBlock`) —
    this is how the flight recorder subscribes. With ``keep=False``
    events are *only* forwarded, not retained, so a recorder-equipped
    run pays no unbounded list growth when nobody wants the Perfetto
    export; on that path spans, instants and flows build no event object
    and pass plain values to ``sink.record`` positionally, so a sink
    must also expose
    :meth:`repro.obs.recorder.FlightRecorder.record`'s signature.
    """

    enabled: bool = True
    #: Retain events in the in-memory lists (the Perfetto export path).
    keep: bool = True
    #: Streaming subscriber implementing the sink protocol, or None.
    sink: object | None = None
    spans: list[SpanEvent] = field(default_factory=list)
    instants: list[InstantEvent] = field(default_factory=list)
    flows: list[FlowEvent] = field(default_factory=list)
    wall_spans: list[WallSpan] = field(default_factory=list)
    #: epoch for the wall-clock domain (set on first wall span)
    _wall_epoch: float | None = None

    # ------------------------------------------------------------------
    def span(
        self,
        category: Category,
        name: str,
        *,
        track: str,
        start: float,
        end: float,
        **args,
    ) -> None:
        if not self.keep:
            if self.sink is not None:
                # Fast path: no retained event object, feed the recorder
                # directly (it normalizes into its own Record type anyway).
                # ``_value_`` is the member's plain attribute; ``.value``
                # is a property.
                self.sink.record(
                    "span", category._value_, name, track, start,
                    max(0.0, end - start), args,
                )
            return
        ev = SpanEvent(
            category=category,
            name=name,
            track=track,
            start=start,
            duration=max(0.0, end - start),
            args=args,
        )
        self.spans.append(ev)
        if self.sink is not None:
            self.sink.on_span(ev)

    def instant(
        self,
        category: Category,
        name: str,
        *,
        track: str,
        time: float,
        **args,
    ) -> None:
        if not self.keep:
            if self.sink is not None:
                self.sink.record(
                    "instant", category._value_, name, track, time, 0.0,
                    args,
                )
            return
        ev = InstantEvent(
            category=category, name=name, track=track, time=time, args=args
        )
        self.instants.append(ev)
        if self.sink is not None:
            self.sink.on_instant(ev)

    def flow(
        self,
        flow_id: int,
        category: Category,
        name: str,
        *,
        src_track: str,
        src_time: float,
        dst_track: str,
        dst_time: float,
    ) -> None:
        if not self.keep:
            if self.sink is not None:
                self.sink.record(
                    "flow", category._value_, name, src_track, src_time,
                    max(0.0, dst_time - src_time),
                    {"dst_track": dst_track, "dst_time": dst_time},
                )
            return
        ev = FlowEvent(
            flow_id=flow_id,
            category=category,
            name=name,
            src_track=src_track,
            src_time=src_time,
            dst_track=dst_track,
            dst_time=dst_time,
        )
        self.flows.append(ev)
        if self.sink is not None:
            self.sink.on_flow(ev)

    def block(self, block: RecordBlock) -> None:
        """Emit a block of records in one call.

        Kept events are built from the block, in row order, as
        :meth:`span`, :meth:`instant` and :meth:`flow` would have built
        them; the sink gets the block itself.
        """
        if self.keep:
            block.events(self.spans, self.instants, self.flows)
        if self.sink is not None:
            self.sink.on_block(block)

    # ------------------------------------------------------------------
    @contextmanager
    def timed(
        self,
        category: Category,
        name: str,
        *,
        track: str = "scheduler",
        hist: Histogram | None = None,
        **args,
    ):
        """Wall-clock a code block into the wall domain (profiling hook).

        The duration is additionally observed into *hist* when given, so
        phase timings show up in the metrics snapshot even when the trace
        itself is discarded.
        """
        t0 = _time.perf_counter()
        if self._wall_epoch is None:
            self._wall_epoch = t0
        try:
            yield
        finally:
            duration = _time.perf_counter() - t0
            ev = WallSpan(
                category=category,
                name=name,
                track=track,
                start=t0 - self._wall_epoch,
                duration=duration,
                args=args,
            )
            if self.keep:
                self.wall_spans.append(ev)
            if self.sink is not None:
                self.sink.on_wall(ev)
            if hist is not None:
                hist.observe(duration)

    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return (
            len(self.spans)
            + len(self.instants)
            + len(self.flows)
            + len(self.wall_spans)
        )

    def tracks(self) -> list[str]:
        """Every track name referenced by a sim-domain event, sorted."""
        names = {s.track for s in self.spans}
        names.update(i.track for i in self.instants)
        for f in self.flows:
            names.add(f.src_track)
            names.add(f.dst_track)
        return sorted(names)


class NullTracer(Tracer):
    """Recording disabled: every emission is a cheap no-op."""

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def span(self, *a, **kw) -> None:
        pass

    def instant(self, *a, **kw) -> None:
        pass

    def flow(self, *a, **kw) -> None:
        pass

    def block(self, block) -> None:
        pass

    @contextmanager
    def timed(self, category, name, *, track="scheduler", hist=None, **args):
        if hist is None:
            yield
            return
        t0 = _time.perf_counter()
        try:
            yield
        finally:
            # Phase timings still reach the metrics registry when asked to.
            hist.observe(_time.perf_counter() - t0)


NULL_TRACER = NullTracer()
