"""repro.obs — the cross-cutting observability subsystem.

One import point for the four pieces the rest of the package emits into:

* :mod:`~repro.obs.trace` — structured event tracer (typed spans, instants
  and flow arrows, categorized ``sched``/``sim``/``switch``/``sync``/
  ``fault``/``ctrl``);
* :mod:`~repro.obs.metrics` — counters, gauges and exact-quantile
  histograms behind a :class:`MetricsRegistry`;
* :mod:`~repro.obs.perfetto` — Chrome/Perfetto trace JSON export (one
  track per GPU, one per job, flow arrows across round barriers);
* :mod:`~repro.obs.manifest` — the ``run.json`` artifact every traced run
  leaves behind.

On top of that substrate sits the continuous-observability stack,
exported from here too:

* :mod:`~repro.obs.recorder` — the flight recorder: a bounded-ring,
  spill-to-JSONL structured event log subscribed to the tracer;
* :mod:`~repro.obs.monitors` — streaming invariant checkers and anomaly
  detectors emitting severity-graded findings into a
  :class:`DiagnosisReport`;
* :mod:`~repro.obs.baseline` — the cross-run regression engine
  (schema-versioned metric baselines, direction-aware tolerance bands,
  ``repro check --baseline``);
* :mod:`~repro.obs.attrib` — the time-attribution engine: per-job JCT
  decomposition, cluster critical path, and attribution diffs
  (schema ``repro.attrib/1``, ``repro explain``).

Instrumented code reads the ambient context (:func:`current`) and emits
unconditionally; :func:`use` installs a live :class:`Obs` for a run's
extent. Tracing is **off by default** — outside ``use`` the context is
:data:`DISABLED` and every emission is a no-op.
"""

from .attrib import (
    ATTRIB_DIFF_SCHEMA,
    ATTRIB_SCHEMA,
    COMPONENTS,
    AttributionEngine,
    AttributionReport,
    JobAttribution,
    attribute_flight_log,
    attribute_records,
    attribute_schedule,
    load_attribution,
    write_attribution,
)
from .baseline import (
    BASELINE_SCHEMA,
    Tolerance,
    compare_bench_reports,
    compare_snapshots,
    read_baseline,
    snapshot_baseline,
    write_baseline,
)
from .context import DISABLED, Obs, current, use
from .manifest import SCHEMA, build_manifest, read_manifest, write_manifest
from .monitors import (
    DiagnosisReport,
    Finding,
    Monitor,
    Severity,
    default_monitors,
    diagnose_schedule,
    replay_monitors,
)
from .recorder import FLIGHT_SCHEMA, FlightRecorder, Record, load_flight_log
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .perfetto import (
    chrome_trace,
    trace_json,
    validate_chrome_trace,
    write_trace,
)
from .trace import (
    NULL_TRACER,
    Category,
    FlowEvent,
    InstantEvent,
    NullTracer,
    SpanEvent,
    Tracer,
    WallSpan,
    gpu_track,
    job_track,
)

__all__ = [
    "ATTRIB_DIFF_SCHEMA",
    "ATTRIB_SCHEMA",
    "AttributionEngine",
    "AttributionReport",
    "BASELINE_SCHEMA",
    "COMPONENTS",
    "Category",
    "Counter",
    "DISABLED",
    "DiagnosisReport",
    "FLIGHT_SCHEMA",
    "Finding",
    "FlightRecorder",
    "FlowEvent",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "JobAttribution",
    "MetricsRegistry",
    "Monitor",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "Obs",
    "Record",
    "SCHEMA",
    "Severity",
    "SpanEvent",
    "Tolerance",
    "Tracer",
    "WallSpan",
    "attribute_flight_log",
    "attribute_records",
    "attribute_schedule",
    "build_manifest",
    "chrome_trace",
    "compare_bench_reports",
    "compare_snapshots",
    "current",
    "default_monitors",
    "diagnose_schedule",
    "gpu_track",
    "job_track",
    "load_attribution",
    "load_flight_log",
    "read_baseline",
    "read_manifest",
    "replay_monitors",
    "snapshot_baseline",
    "trace_json",
    "use",
    "validate_chrome_trace",
    "write_attribution",
    "write_baseline",
    "write_manifest",
    "write_trace",
]
