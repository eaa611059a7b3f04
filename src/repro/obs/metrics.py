"""Metrics registry: counters, gauges and exact-quantile histograms.

The registry replaces the scattered ints/floats that used to live on
:class:`~repro.sim.telemetry.Telemetry`: every mutation goes through a
named instrument, and any consumer (the run manifest, the CLI, tests) reads
one structured :meth:`MetricsRegistry.snapshot`.

Three instrument kinds cover everything the reproduction measures:

* :class:`Counter` — monotonically increasing totals (tasks simulated,
  switches paid, RPC retries);
* :class:`Gauge` — last-written values (current cluster size, relaxation
  objective);
* :class:`Histogram` — full-sample distributions with **exact** quantiles
  (scheduler phase latencies, switch times). Samples are kept verbatim —
  the workloads here produce at most tens of thousands of observations, so
  exactness is cheaper than the bookkeeping of a sketch.

A :class:`NullRegistry` provides the disabled path: instruments accept
writes and drop them, so instrumented code needs no ``if enabled`` guards.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable

from ..core.errors import ConfigurationError


@dataclass(slots=True)
class Counter:
    """A monotonically increasing total."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


@dataclass(slots=True)
class Gauge:
    """A last-written value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


@dataclass(slots=True)
class Histogram:
    """A distribution over all observed samples, with exact quantiles.

    Samples are kept in sorted order (insertion via :mod:`bisect`), so
    quantiles are exact order statistics rather than bucket approximations.
    """

    name: str
    _sorted: list[float] = field(default_factory=list)
    _total: float = 0.0

    def observe(self, value: float) -> None:
        bisect.insort(self._sorted, float(value))
        self._total += float(value)

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / len(self._sorted) if self._sorted else 0.0

    @property
    def min(self) -> float:
        return self._sorted[0] if self._sorted else 0.0

    @property
    def max(self) -> float:
        return self._sorted[-1] if self._sorted else 0.0

    def quantile(self, q: float) -> float:
        """Exact q-quantile (linear interpolation between order statistics).

        ``q`` in [0, 1]. Matches ``numpy.quantile``'s default method on the
        same samples; returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile q must be in [0, 1], got {q}")
        xs = self._sorted
        if not xs:
            return 0.0
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        frac = pos - lo
        return xs[lo] * (1.0 - frac) + xs[hi] * frac

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


@dataclass(slots=True)
class MetricsRegistry:
    """Named instruments, created on first use, read via :meth:`snapshot`.

    Counters and gauges are point-in-time values; :meth:`sample` captures
    one ``(time, value)`` observation of an instrument so exports can
    render *curves* (Perfetto counter tracks: queue depth, busy GPUs)
    rather than only final totals. Sampling happens at deterministic sim
    times, so the timeline — like the trace — is byte-stable across runs.
    :meth:`extend_samples` appends a whole curve at once, for code that
    computes the values an instrument took instead of stepping through
    them (the array kernel's plan replay). :class:`NullRegistry` drops
    it like every other write; appending to ``_samples`` directly would
    fill the one shared disabled registry on every untraced run.
    """

    _instruments: dict[str, object] = field(default_factory=dict)
    #: (time, instrument name, value) triples, in sampling order.
    _samples: list[tuple[float, str, float]] = field(default_factory=list)

    def _get(self, name: str, kind: type):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ConfigurationError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """Every instrument's state, keyed by name, in sorted order."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    # -- timelines -----------------------------------------------------
    def sample(self, name: str, time: float) -> None:
        """Capture instrument *name*'s current value at sim-time *time*.

        A no-op when the instrument does not exist yet or is a histogram
        (distributions have no single curve value).
        """
        instrument = self._instruments.get(name)
        if instrument is None or isinstance(instrument, Histogram):
            return
        self._samples.append((float(time), name, float(instrument.value)))

    def extend_samples(
        self, name: str, times: Iterable[float], values: Iterable[float]
    ) -> None:
        """Append the curve ``zip(times, values)`` to instrument *name*'s
        timeline, as if :meth:`sample` had captured each value in turn.

        The values are given, not read from the instrument, so the
        caller sets the instrument's final value itself.
        """
        self._samples.extend(
            zip(map(float, times), repeat(name), map(float, values))
        )

    def timeline(self) -> dict[str, list[tuple[float, float]]]:
        """Sampled ``(time, value)`` curves keyed by instrument name."""
        out: dict[str, list[tuple[float, float]]] = {}
        for time, name, value in self._samples:
            out.setdefault(name, []).append((time, value))
        return {name: out[name] for name in sorted(out)}


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """Drops every write; instrumented code pays one no-op call."""

    _COUNTER = _NullCounter("null")
    _GAUGE = _NullGauge("null")
    _HISTOGRAM = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._COUNTER

    def gauge(self, name: str) -> Gauge:
        return self._GAUGE

    def histogram(self, name: str) -> Histogram:
        return self._HISTOGRAM

    def sample(self, name: str, time: float) -> None:
        pass

    def extend_samples(self, name, times, values) -> None:
        pass

    def snapshot(self) -> dict[str, dict]:
        return {}

    def timeline(self) -> dict[str, list[tuple[float, float]]]:
        return {}


NULL_REGISTRY = NullRegistry()
