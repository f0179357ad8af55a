"""Observability for the KadoP stack: tracing and the views over it.

The paper's results are *decompositions* of query cost: index phase vs.
document phase, hops, per-strategy data volume.  Two primary sources hold
every run-time count: the span tree of a :class:`Tracer` (simulated
seconds, hops, queue waits, busy time, the peer that served each read)
and the :class:`~repro.sim.meter.TrafficMeter` (bytes and messages per
category).  Every report here is a view computed from them, and from a
serve's own records, after the run; so is ``repro stats``
(:mod:`repro.kadop.stats`), which reads the hot peers and keys off the
span tree and the index sizes off the peers' stores:

* :mod:`~repro.obs.trace`: the tracer, its per-run scheduler records, and
  Chrome trace-event export (Perfetto, ``chrome://tracing``);
* :mod:`~repro.obs.metrics`: the exact sample-rank quantiles;
* :mod:`~repro.obs.profile`: top spans by self-time, utilization, waits,
  and :func:`served_reads`, the bytes each peer served per key;
* :mod:`~repro.obs.explain`: per-query EXPLAIN ANALYZE, reconciled
  exactly against the traffic meter and the query report;
* :mod:`~repro.obs.telemetry`: :func:`serving_view`, the time-series, SLO
  block and findings of one finished serve;
* :mod:`~repro.obs.report`: payload schema versions, validation and the
  ``repro top`` rendering.

Tracing is strictly observational: enabling it changes no answer,
simulated second or metered byte (``tests/test_obs.py`` and
``tests/test_telemetry.py`` assert it).
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
    served_reads,
    utilization,
)
from repro.obs.telemetry import serving_view
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
    format_finding,
    render_top,
    sparkline,
    validate_telemetry,
    write_json,
)

__all__ = [
    "EXPLAIN_SCHEMA_VERSION",
    "ExplainReport",
    "STATS_SCHEMA_VERSION",
    "Span",
    "TELEMETRY_SCHEMA_VERSION",
    "Tracer",
    "aggregate_spans",
    "build_explain",
    "check_schema_version",
    "explain_query",
    "format_finding",
    "format_profile",
    "observe_schedule",
    "phase_totals",
    "quantile_exact",
    "quantile_rank",
    "render_top",
    "served_reads",
    "serving_view",
    "sparkline",
    "to_chrome_trace",
    "utilization",
    "validate_telemetry",
    "validate_trace",
    "validate_trace_file",
    "write_chrome_trace",
    "write_json",
]
