"""Event taxonomy of the scheduling kernel.

The kernel reuses the DES substrate (:class:`repro.sim.events.Event` and
:class:`repro.sim.events.EventQueue`) as its one source of time; only the
event *vocabulary* differs from the cluster simulator's. Like
:class:`repro.sim.events.EventType`, the integer values double as
same-time tie-break priority: at one timestamp round barriers open first
(they may unlock successor rounds), then arrivals land, then GPUs report
free, then crashes apply, then periodic re-plan timers fire.
"""

from __future__ import annotations

import enum

from ..sim.events import Event, EventQueue

__all__ = ["Event", "EventQueue", "KernelEventType"]


class KernelEventType(enum.IntEnum):
    """Kinds of kernel events a policy may be woken for.

    Payload conventions (all payloads are plain dicts or ints):

    ``JOB_ARRIVED``
        payload = ``job_id``.
    ``ROUND_BARRIER_OPEN``
        payload = ``(job_id, round_idx)`` — round ``round_idx`` has fully
        synchronized, so round ``round_idx + 1`` may start.
    ``GPU_FREE``
        payload = ``gpu`` — the device's committed work drains at the
        event time (a pure wake-up; the availability vector φ is the
        authority).
    ``GPU_CRASHED``
        payload = ``gpu`` — a permanent failure; the GPU never returns.
    ``REPLAN_TIMER``
        payload = ``None`` — periodic wake-up requested via
        ``replan_interval``.

    The values are priorities, not a dense range: 4 is unused.
    """

    ROUND_BARRIER_OPEN = 0
    JOB_ARRIVED = 1
    GPU_FREE = 2
    GPU_CRASHED = 3
    REPLAN_TIMER = 5
