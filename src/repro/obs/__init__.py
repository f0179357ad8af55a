"""Observability for the KadoP stack: tracing, profiles, and telemetry.

The paper's results are *decompositions* of query cost — index phase vs.
document phase, hops, per-strategy data volume.  This package records the
same decompositions live, per query, instead of as end-of-run aggregates.
Two primary sources hold every run-time count: the span tree of a
:class:`Tracer` (simulated seconds, hops, queue waits, per-resource busy
time) and the :class:`~repro.sim.meter.TrafficMeter` (bytes and messages
per category).  The profile, EXPLAIN and utilization reports are views
computed from them:

:mod:`repro.obs.trace`
    a :class:`Tracer` of simulated-time spans (no wall clock anywhere),
    the per-run scheduler records behind utilization, and an exporter to
    Chrome trace-event JSON, openable in Perfetto or ``chrome://tracing``;
:mod:`repro.obs.metrics`
    the exact sample-rank quantile helpers every percentile in the repo
    goes through;
:mod:`repro.obs.profile`
    text reports: top spans by simulated self-time, per-resource
    utilization and queue wait, all derived from the tracer;
:mod:`repro.obs.telemetry`
    ring-buffered time-series of a serving run sampled on the serving
    clock (queue depth, in-flight queries, per-peer byte rates, ...);
:mod:`repro.obs.slo`
    a latency SLO tracker with windowed error-budget burn rates, and a
    rule-based diagnostics engine over the telemetry series;
:mod:`repro.obs.explain`
    per-query EXPLAIN ANALYZE: simulated time and bytes attributed to
    phase → peer → key from the span tree, reconciled exactly against
    the traffic meter and the query report;
:mod:`repro.obs.report`
    schema-versioned JSON export/validation plus the terminal
    rendering (``repro top``) of a telemetry payload.

Tracing and telemetry are strictly observational: enabling either must
not change a single answer, simulated second, or metered byte (asserted
by the differential tests in ``tests/test_obs.py`` and
``tests/test_telemetry.py``).
"""

from repro.obs.metrics import quantile_exact, quantile_rank
from repro.obs.trace import (
    Span,
    Tracer,
    observe_schedule,
    to_chrome_trace,
    validate_trace,
    validate_trace_file,
    write_chrome_trace,
)
from repro.obs.profile import (
    aggregate_spans,
    format_profile,
    phase_totals,
    top_spans,
    utilization,
)
from repro.obs.telemetry import (
    DEFAULT_CAPACITY,
    DEFAULT_INTERVAL_S,
    RingBuffer,
    Series,
    TelemetrySampler,
    install_standard_probes,
)
from repro.obs.slo import Finding, SLOTracker, diagnose
from repro.obs.explain import (
    ExplainReport,
    build_explain,
    explain_query,
)
from repro.obs.report import (
    EXPLAIN_SCHEMA_VERSION,
    STATS_SCHEMA_VERSION,
    TELEMETRY_SCHEMA_VERSION,
    check_schema_version,
    render_top,
    sparkline,
    validate_telemetry,
    write_json,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_INTERVAL_S",
    "EXPLAIN_SCHEMA_VERSION",
    "ExplainReport",
    "Finding",
    "RingBuffer",
    "SLOTracker",
    "STATS_SCHEMA_VERSION",
    "Series",
    "Span",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetrySampler",
    "Tracer",
    "aggregate_spans",
    "build_explain",
    "check_schema_version",
    "diagnose",
    "explain_query",
    "format_profile",
    "install_standard_probes",
    "observe_schedule",
    "phase_totals",
    "quantile_exact",
    "quantile_rank",
    "render_top",
    "sparkline",
    "to_chrome_trace",
    "top_spans",
    "utilization",
    "validate_telemetry",
    "validate_trace",
    "validate_trace_file",
    "write_chrome_trace",
    "write_json",
]
