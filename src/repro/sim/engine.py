"""Generic discrete-event engine: a queue plus per-type handlers.

:class:`Engine` owns an :class:`~repro.sim.events.EventQueue` and a handler
registry; :meth:`run` drains the queue, dispatching each event to its
type's handler. The cluster simulator builds on this; it is equally usable
for other event-driven substrates (the tests drive it standalone).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.errors import SimulationError
from ..obs import Category
from ..obs import current as obs_current
from .events import Event, EventQueue, EventType

Handler = Callable[[Event], None]

#: Track name engine-level events appear under in exported traces.
ENGINE_TRACK = "engine"


@dataclass(slots=True)
class Engine:
    """Event loop with per-EventType handlers and an event budget."""

    queue: EventQueue = field(default_factory=EventQueue)
    _handlers: dict[EventType, Handler] = field(default_factory=dict)
    processed: int = 0

    @property
    def now(self) -> float:
        return self.queue.now

    def on(self, event_type: EventType, handler: Handler) -> None:
        """Register *handler* for *event_type* (one handler per type)."""
        if event_type in self._handlers:
            raise SimulationError(
                f"handler for {event_type.name} already registered"
            )
        self._handlers[event_type] = handler

    def push(self, event: Event) -> None:
        self.queue.push(event)

    def at(self, time: float, event_type: EventType, payload=None) -> None:
        """Convenience: push an event at an absolute time."""
        self.push(Event(time=time, type=event_type, payload=payload))

    def run(self, *, max_events: int | None = None) -> int:
        """Drain the queue; returns the number of events processed.

        ``max_events`` bounds the run (a livelock guard); exceeding it
        raises :class:`~repro.core.errors.SimulationError`. The budget is
        checked against *newly pushed* work, so handlers that enqueue
        follow-up events are fine as long as total volume stays bounded.

        When an observability context is active, every dispatched event
        lands as a ``sim`` instant on the ``engine`` track and the total
        event volume increments the ``sim.engine_events`` counter.
        """
        obs = obs_current()
        tracer = obs.tracer
        before = self.processed
        while self.queue:
            if max_events is not None and self.processed >= max_events:
                raise SimulationError(
                    f"event budget {max_events} exceeded; likely livelock"
                )
            event = self.queue.pop()
            self.processed += 1
            handler = self._handlers.get(event.type)
            if handler is None:
                raise SimulationError(
                    f"no handler registered for {event.type.name}"
                )
            if tracer.enabled:
                tracer.instant(
                    Category.SIM,
                    event.type.name,
                    track=ENGINE_TRACK,
                    time=event.time,
                )
            handler(event)
        obs.metrics.counter("sim.engine_events").inc(self.processed - before)
        return self.processed
