"""Test oracle: record fan-out without routing.

:func:`unrouted` makes every :class:`~repro.obs.recorder.RecordRouter` —
the flight recorder's, the remediation engine's and
:func:`~repro.obs.monitors.replay_monitors`'s — hand every record to
every consumer, as the recorder did before consumers declared ``wants``.
``test_routing.py`` pins routed and unrouted runs to the same findings,
remediation logs and attribution.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.obs.recorder import RecordRouter


def _route_to_all(self, kind: str, category: str, name: str) -> tuple:
    return tuple(c.observe for c in self.consumers)


@contextmanager
def unrouted():
    """Within the block every consumer sees every record."""
    with mock.patch.object(RecordRouter, "route", _route_to_all):
        yield
