"""The flight recorder: a bounded-ring, spill-to-JSONL structured event log.

The tracer answers "what does this run look like in Perfetto"; the flight
recorder answers "what happened, in order, and can something *watch* it as
it streams by". It subscribes to a :class:`~repro.obs.trace.Tracer` as its
``sink``: every span, instant, flow arrow and wall-clock phase the run
emits, one at a time or as a :class:`~repro.obs.trace.RecordBlock`, joins
a bounded row log with a monotonic sequence number, and is read back as a
flat :class:`Record`. When the ring is full the oldest records are
evicted — spilled to a JSONL file when ``spill_path`` is set, counted as
:attr:`FlightRecorder.dropped` otherwise — so recording a long run costs
bounded memory.

Three consumers sit on top:

* **queries** — :meth:`FlightRecorder.query` filters the in-memory window
  by kind/category/track/name/time, and :meth:`FlightRecorder.span_stats`
  aggregates span durations (count/total/mean/max) for the harness and the
  ``repro record`` / ``repro replay`` CLI;
* **streaming monitors** — objects attached via
  :meth:`FlightRecorder.attach` receive the records they can act on at
  emission time (the ring may long have evicted them; see
  :class:`RecordRouter`); :meth:`FlightRecorder.diagnose` collects their
  findings into a :class:`~repro.obs.monitors.DiagnosisReport`;
* **replay** — :meth:`FlightRecorder.dump` writes the full history (spill
  + ring) as schema-versioned JSONL, and :meth:`load_flight_log` reads it
  back so monitors can re-run post-hoc on another machine.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

#: Flight-log schema identifier (the JSONL header line), bumped on
#: breaking layout changes.
FLIGHT_SCHEMA = "repro.flight-log/1"


@dataclass(slots=True)
class Record:
    """One normalized observability event.

    ``kind`` is one of ``"span"`` (sim-time extent), ``"instant"`` (point
    event), ``"flow"`` (causal arrow; ``time`` is the source end, the
    destination lands in ``args``) or ``"wall"`` (wall-clock phase timing
    of the tooling itself, in the wall domain).

    Not frozen — the dataclass is on the recorder's hot path and frozen
    construction costs an ``object.__setattr__`` per field — but treat
    instances as immutable: the ring, the spill file and every monitor
    share them.
    """

    seq: int
    kind: str
    category: str
    name: str
    track: str
    time: float
    duration: float = 0.0
    args: Mapping = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.time + self.duration

    def to_json(self) -> dict:
        out = {
            "seq": self.seq,
            "kind": self.kind,
            "cat": self.category,
            "name": self.name,
            "track": self.track,
            "t": self.time,
        }
        if self.duration:
            out["dur"] = self.duration
        if self.args:
            out["args"] = dict(self.args)
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "Record":
        return cls(
            seq=int(obj["seq"]),
            kind=str(obj["kind"]),
            category=str(obj["cat"]),
            name=str(obj["name"]),
            track=str(obj["track"]),
            time=float(obj["t"]),
            duration=float(obj.get("dur", 0.0)),
            args=dict(obj.get("args", {})),
        )


class RecordRouter:
    """Fans each record out to the consumers that can act on it.

    A consumer may declare ``wants(kind, category, prefix)``, where
    *prefix* is the record's name up to its first space. It must return
    True for a superset of the records it acts on: it still filters what
    it receives, so a name like ``"kernel.commit x"`` reaches a consumer
    of ``"kernel.commit"``. A consumer without ``wants`` sees every
    record. A record reaches a consumer's ``on_record`` when it has one
    (:meth:`repro.obs.monitors.Monitor.observe` only forwards there),
    its ``observe`` otherwise.

    A consumer that wraps monitors of its own (the remediation engine)
    exposes ``monitors`` and ``bookkeeper(key, reached)``. It is
    expanded in place: a route reaches the wrapped monitors that want
    the record directly, then the callable ``bookkeeper`` returned for
    the route's key and the monitors it *reached* (``None``: the wrapper
    takes no such records, and neither do its monitors).

    A :class:`~repro.obs.trace.RecordBlock` is routed by slices (see
    :meth:`FlightRecorder.on_block`): its rows reach the consumers and
    wrapped monitors that want them (:meth:`block_route`), and each
    wrapper then does its bookkeeping over the whole slice with
    ``take_block(block, lo, hi)``. A wrapper's ``slice_stop(block,
    lo)`` ends the slice at the row where its bookkeeping would emit (a
    poll, a health report), so only a slice's last row can. A block
    holds sim-time records only, and every wrapper takes them.

    Routes are memoized per ``(kind, category, prefix)``, never per full
    name, since names embed job and round ids.
    """

    __slots__ = ("consumers", "wrappers", "_routes", "_takers")

    def __init__(self, consumers: Iterable = ()) -> None:
        #: Read-only: :meth:`add` is the only way to subscribe, so no
        #: consumer misses a memoized route.
        self.consumers = ()
        #: The consumers with a ``bookkeeper``.
        self.wrappers = ()
        self._routes: dict[tuple[str, str, str], tuple] = {}
        self._takers: dict[tuple[str, str, str], tuple] = {}
        for consumer in consumers:
            self.add(consumer)

    def add(self, consumer) -> None:
        self.consumers += (consumer,)
        if getattr(consumer, "bookkeeper", None) is not None:
            self.wrappers += (consumer,)
        self._routes.clear()
        self._takers.clear()

    def route(self, kind: str, category: str, name: str) -> tuple:
        """The callables that take the record, in delivery order."""
        key = (kind, category, name.partition(" ")[0])
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._resolve(key)
        return route

    def block_route(self, key: tuple[str, str, str]) -> tuple:
        """The callables that take a block row of *key*: the consumers
        and wrapped monitors that want it, in route order, without the
        wrappers' bookkeeping."""
        takers = self._takers.get(key)
        if takers is None:
            found = []
            for consumer in self.consumers:
                if getattr(consumer, "bookkeeper", None) is not None:
                    found.extend(m for m in consumer.monitors
                                 if self.wants(m, key))
                elif self.wants(consumer, key):
                    found.append(consumer)
            takers = self._takers[key] = tuple(map(_entry, found))
        return takers

    def _resolve(self, key: tuple[str, str, str]) -> tuple:
        calls = []
        for consumer in self.consumers:
            bookkeeper = getattr(consumer, "bookkeeper", None)
            if bookkeeper is None:
                if self.wants(consumer, key):
                    calls.append(_entry(consumer))
            else:
                reached = tuple(
                    m for m in consumer.monitors if self.wants(m, key)
                )
                after = bookkeeper(key, reached)
                if after is not None:
                    calls.extend(map(_entry, reached))
                    calls.append(after)
        return tuple(calls)

    @staticmethod
    def wants(consumer, key: tuple[str, str, str]) -> bool:
        """Whether *consumer* takes records of *key*."""
        wants = getattr(consumer, "wants", None)
        return wants is None or wants(*key)


def _entry(consumer):
    """The method a routed record is handed to."""
    return getattr(consumer, "on_record", None) or consumer.observe


@dataclass(slots=True)
class _BlockRows:
    """Rows ``lo`` to ``hi`` of a block, in the recorder's log."""

    block: object
    lo: int
    hi: int


class FlightRecorder:
    """Bounded-ring structured event log with streaming observers.

    Implements the tracer sink protocol (``on_span`` / ``on_instant`` /
    ``on_flow`` / ``on_wall`` / ``on_block``); install it by building
    the tracer with ``sink=recorder`` — :meth:`repro.obs.Obs.start` does
    this when asked to ``record``.

    The ring is one row log: :meth:`record` appends a row of plain
    values, :meth:`on_block` a run of a block's rows. A :class:`Record`
    is built when something reads the log (:meth:`records`,
    :meth:`query`, :meth:`dump`, a spill on eviction) or when a
    consumer's route takes the row. Sequence numbers are positions in
    the log: the oldest retained row is ``seen - len(self)``.
    """

    def __init__(
        self,
        capacity: int = 65536,
        *,
        spill_path: str | Path | None = None,
        monitors: Iterable = (),
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"recorder capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self.spill_path = Path(spill_path) if spill_path is not None else None
        self._router = RecordRouter(monitors)
        self.dropped = 0
        #: rows: ``(kind, category, name, track, time, duration, args)``
        #: tuples and :class:`_BlockRows`
        self._log: deque = deque()
        #: seq of the next row, and of the oldest retained one
        self._seq = 0
        self._first = 0
        self._spill_file: IO[str] | None = None
        self._spilled = 0

    # -- core ----------------------------------------------------------
    def record(
        self,
        kind: str,
        category: str,
        name: str,
        track: str,
        time: float,
        duration: float = 0.0,
        args: Mapping | None = None,
    ) -> None:
        """Log one record and hand it to the consumers its route takes."""
        args = args if args is not None else {}
        seq = self._seq
        self._log.append((kind, category, name, track, time, duration, args))
        self._seq = seq + 1
        if seq + 1 - self._first > self.capacity:
            self._evict(1)
        router = self._router
        if router.consumers:
            route = router.route(kind, category, name)
            if route:
                rec = Record(seq, kind, category, name, track, time,
                             duration, args)
                for deliver in route:
                    deliver(rec)

    def on_block(self, block) -> None:
        """Take a :class:`~repro.obs.trace.RecordBlock`, rows in order.

        The block is logged slice by slice. A slice ends after the row
        where a wrapper's bookkeeping emits (``slice_stop``: its next
        poll or health report), or at the block's end. Its rows join
        the log, the rows some consumer takes are built into records and
        delivered, then each wrapper does its bookkeeping over the slice
        (``take_block``), so a poll at the slice's last row sees the same
        records, and emits at the same sequence numbers, as it would
        record by record. Rows no consumer takes are never built here.
        Consumers of block rows only observe: anything they record
        follows the slice.
        """
        n = len(block)
        router = self._router
        if not router.consumers:
            self._extend(block, 0, n)
            return
        keys, key_of = block.route_keys()
        routes = [router.block_route(key) for key in keys]
        taken = np.fromiter(map(bool, routes), dtype=bool, count=len(keys))
        picked = np.flatnonzero(taken[key_of])
        # (row, route, record fields) of each row some consumer takes,
        # then a sentinel
        rows = picked.tolist()
        picked = [*zip(rows, map(routes.__getitem__, key_of[picked].tolist()),
                       block.rows(rows)), (n, (), ())]
        wrappers = router.wrappers
        k = 0  # the next picked row
        start = 0
        while start < n:
            stop = min([n, *(w.slice_stop(block, start) for w in wrappers)])
            base = self._seq - start  # row i's seq is base + i
            self._extend(block, start, stop)
            row, route, fields = picked[k]
            while row < stop:
                rec = Record(base + row, *fields)
                for deliver in route:
                    deliver(rec)
                k += 1
                row, route, fields = picked[k]
            for w in wrappers:
                w.take_block(block, start, stop)
            start = stop

    def _extend(self, block, lo: int, hi: int) -> None:
        """Log *block*'s rows *lo* to *hi*."""
        log = self._log
        tail = log[-1] if log else None
        if type(tail) is _BlockRows and tail.block is block and tail.hi == lo:
            tail.hi = hi
        else:
            log.append(_BlockRows(block, lo, hi))
        self._seq += hi - lo
        excess = self._seq - self._first - self.capacity
        if excess > 0:
            self._evict(excess)

    def _evict(self, count: int) -> None:
        """Evict the *count* oldest rows: spilled when there is a spill
        file, counted as dropped otherwise."""
        log, spill = self._log, self.spill_path is not None
        seq = self._first
        self._first += count
        if not spill:
            self.dropped += count
        while count:
            head = log[0]
            if type(head) is tuple:
                log.popleft()
                if spill:
                    self._spill(Record(seq, *head))
                seq += 1
                count -= 1
                continue
            take = min(count, head.hi - head.lo)
            if spill:
                rows = head.block.rows(range(head.lo, head.lo + take))
                for fields in rows:
                    self._spill(Record(seq, *fields))
                    seq += 1
            head.lo += take
            count -= take
            if head.lo == head.hi:
                log.popleft()

    def _spill(self, rec: Record) -> None:
        if self._spill_file is None:
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            self._spill_file = self.spill_path.open("w")
        self._spill_file.write(json.dumps(rec.to_json(), sort_keys=True))
        self._spill_file.write("\n")
        self._spilled += 1

    # -- tracer sink protocol -------------------------------------------
    def on_span(self, ev) -> None:
        self.record(
            "span", ev.category._value_, ev.name,
            track=ev.track, time=ev.start, duration=ev.duration,
            args=ev.args,
        )

    def on_instant(self, ev) -> None:
        self.record(
            "instant", ev.category._value_, ev.name,
            track=ev.track, time=ev.time, args=ev.args,
        )

    def on_flow(self, ev) -> None:
        self.record(
            "flow", ev.category._value_, ev.name,
            track=ev.src_track, time=ev.src_time,
            duration=max(0.0, ev.dst_time - ev.src_time),
            args={"dst_track": ev.dst_track, "dst_time": ev.dst_time},
        )

    def on_wall(self, ev) -> None:
        self.record(
            "wall", ev.category._value_, ev.name,
            track=ev.track, time=ev.start, duration=ev.duration,
            args=ev.args,
        )

    # -- views ---------------------------------------------------------
    def __len__(self) -> int:
        return self._seq - self._first

    @property
    def seen(self) -> int:
        """Total records ever recorded (evicted ones included)."""
        return self._seq

    def records(self) -> list[Record]:
        """The in-memory window, oldest first."""
        return list(self._records())

    def _records(self) -> Iterator[Record]:
        seq = self._first
        for entry in self._log:
            if type(entry) is tuple:
                yield Record(seq, *entry)
                seq += 1
                continue
            for fields in entry.block.rows(range(entry.lo, entry.hi)):
                yield Record(seq, *fields)
                seq += 1

    def query(
        self,
        *,
        kind: str | None = None,
        category: str | None = None,
        name: str | None = None,
        track: str | None = None,
        since: float | None = None,
        until: float | None = None,
        limit: int | None = None,
    ) -> list[Record]:
        """Filter the in-memory window.

        ``name``/``track`` match exactly, or as a prefix when they end with
        ``*``; ``since``/``until`` bound the record's start time
        (inclusive / exclusive). Results keep emission order; ``limit``
        keeps the first N matches.
        """

        def field_match(pattern: str | None, value: str) -> bool:
            if pattern is None:
                return True
            if pattern.endswith("*"):
                return value.startswith(pattern[:-1])
            return value == pattern

        out: list[Record] = []
        for rec in self._records():
            if kind is not None and rec.kind != kind:
                continue
            if category is not None and rec.category != category:
                continue
            if not field_match(name, rec.name):
                continue
            if not field_match(track, rec.track):
                continue
            if since is not None and rec.time < since:
                continue
            if until is not None and rec.time >= until:
                continue
            out.append(rec)
            if limit is not None and len(out) >= limit:
                break
        return out

    def span_stats(
        self,
        *,
        category: str | None = None,
        name: str | None = None,
        track: str | None = None,
        kind: str = "span",
    ) -> dict:
        """Aggregate span durations over the in-memory window."""
        spans = self.query(
            kind=kind, category=category, name=name, track=track
        )
        if not spans:
            return {"count": 0, "total_s": 0.0, "mean_s": 0.0, "max_s": 0.0}
        durations = [s.duration for s in spans]
        return {
            "count": len(durations),
            "total_s": sum(durations),
            "mean_s": sum(durations) / len(durations),
            "max_s": max(durations),
        }

    # -- monitors ------------------------------------------------------
    @property
    def monitors(self) -> tuple:
        """The attached consumers, read-only; subscribe through
        :meth:`attach`."""
        return self._router.consumers

    def attach(self, monitor) -> None:
        """Subscribe *monitor* to the future records it wants."""
        self._router.add(monitor)

    def diagnose(self, *, instance=None, metrics: Mapping | None = None):
        """Finish the attached monitors and collect their findings.

        Returns a :class:`~repro.obs.monitors.DiagnosisReport`. Safe to
        call with no monitors attached (the report is empty).
        """
        from .monitors import collect_findings

        return collect_findings(
            self.monitors,
            records_seen=self._seq,
            instance=instance,
            metrics=metrics,
        )

    # -- persistence ---------------------------------------------------
    def _flush_spill(self) -> None:
        if self._spill_file is not None:
            self._spill_file.flush()

    def _spilled_records(self) -> Iterator[Record]:
        if self._spilled == 0 or self.spill_path is None:
            return iter(())
        self._flush_spill()
        return (
            Record.from_json(json.loads(line))
            for line in self.spill_path.read_text().splitlines()
            if line.strip()
        )

    def dump(self, path: str | Path) -> Path:
        """Write the full history (spill + ring) as JSONL with a header."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(
                {
                    "schema": FLIGHT_SCHEMA,
                    "records": self._spilled + len(self),
                    "dropped": self.dropped,
                },
                sort_keys=True,
            ))
            fh.write("\n")
            for rec in self._spilled_records():
                fh.write(json.dumps(rec.to_json(), sort_keys=True))
                fh.write("\n")
            for rec in self._records():
                fh.write(json.dumps(rec.to_json(), sort_keys=True))
                fh.write("\n")
        return path

    def close(self) -> None:
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None


def load_flight_log(path: str | Path) -> list[Record]:
    """Read a :meth:`FlightRecorder.dump` JSONL back into records."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty, not a flight log")
    header = json.loads(lines[0])
    if header.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"{path} is not a {FLIGHT_SCHEMA} flight log "
            f"(schema={header.get('schema')!r})"
        )
    return [
        Record.from_json(json.loads(line))
        for line in lines[1:]
        if line.strip()
    ]
