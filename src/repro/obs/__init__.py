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

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".attrib": (
        "ATTRIB_DIFF_SCHEMA ATTRIB_SCHEMA COMPONENTS AttributionEngine "
        "AttributionReport JobAttribution attribute_records "
        "attribute_schedule load_attribution write_attribution"
    ),
    ".baseline": (
        "BASELINE_SCHEMA Tolerance compare_bench_reports compare_snapshots "
        "read_baseline snapshot_baseline write_baseline"
    ),
    ".context": "DISABLED Obs current use",
    ".manifest": "SCHEMA build_manifest read_manifest write_manifest",
    ".monitors": (
        "DiagnosisReport Finding Monitor Severity default_monitors "
        "diagnose_schedule replay_monitors"
    ),
    ".recorder": "FLIGHT_SCHEMA FlightRecorder Record load_flight_log",
    ".metrics": (
        "NULL_REGISTRY Counter Gauge Histogram MetricsRegistry NullRegistry"
    ),
    ".perfetto": "chrome_trace trace_json validate_chrome_trace write_trace",
    ".trace": (
        "NULL_TRACER Category FlowEvent InstantEvent NullTracer SpanEvent "
        "Tracer WallSpan gpu_track job_track"
    ),
})
