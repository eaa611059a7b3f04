"""Test oracle: record fan-out without routing.

:func:`unrouted` makes every :class:`~repro.obs.recorder.RecordRouter`
— the flight recorder's and :func:`~repro.obs.monitors.replay_monitors`'s
— hand every record to every consumer, the remediation engine's wrapped
monitors included, as the recorder did before consumers declared
``wants``. What is not routing stays: wall records still reach neither
the engine nor its monitors, and the engine does not count the records
it emits while dispatching.
``test_routing.py`` pins routed and unrouted runs to the same findings,
remediation logs and attribution.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.obs.recorder import RecordRouter


def _wants_all(consumer, key) -> bool:
    return True


@contextmanager
def unrouted():
    """Within the block every consumer sees every record."""
    with mock.patch.object(RecordRouter, "wants", staticmethod(_wants_all)):
        yield
