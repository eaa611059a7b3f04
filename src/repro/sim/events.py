"""Event taxonomy and priority queue for the discrete-event simulator."""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

from ..core.errors import SimulationError


class EventType(enum.IntEnum):
    """Kinds of simulator events.

    The integer values double as same-time tie-break priority: at one
    timestamp, sync completions commit first (they may release round
    barriers), then arrivals, then executors re-check their queues.
    """

    TASK_SYNC_DONE = 0
    TASK_COMPUTE_DONE = 1
    JOB_ARRIVAL = 2
    GPU_CHECK = 3
    GPU_FAILURE = 4


@dataclass(frozen=True, slots=True)
class Event:
    """One simulator event."""

    time: float
    type: EventType
    payload: Any = None


@dataclass(slots=True)
class EventQueue:
    """Time-ordered event queue with deterministic tie-breaking.

    Events at equal times pop in (EventType, insertion order). Popping
    never goes back in time; pushing into the past raises
    :class:`~repro.core.errors.SimulationError`.
    """

    _heap: list[tuple[float, int, int, Event]] = field(default_factory=list)
    _counter: itertools.count = field(default_factory=itertools.count)
    now: float = 0.0
    pushed: int = 0
    popped: int = 0

    def push(self, event: Event) -> None:
        if event.time < self.now - 1e-9:
            raise SimulationError(
                f"event at {event.time} pushed when clock is {self.now}"
            )
        heapq.heappush(
            self._heap,
            (event.time, int(event.type), next(self._counter), event),
        )
        self.pushed += 1

    def pop(self) -> Event:
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        time, _, _, event = heapq.heappop(self._heap)
        self.now = max(self.now, time)
        self.popped += 1
        return event

    def peek(self) -> Event:
        """The next event without popping it."""
        if not self._heap:
            raise SimulationError("peek into empty event queue")
        return self._heap[0][3]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
