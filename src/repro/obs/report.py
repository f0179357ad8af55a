"""Telemetry report surfacing: schema versions, validation, text.

Telemetry payloads outlive the process that produced them — they are
written to JSON and diffed in CI.  Everything crossing that boundary
carries a ``schema_version`` so a reader can refuse payloads it does not
understand instead of misrendering them:

* :data:`TELEMETRY_SCHEMA_VERSION` — ``serving_view`` payloads (series,
  SLO block and findings);
* :data:`STATS_SCHEMA_VERSION` — ``repro stats --json`` payloads;
* :data:`EXPLAIN_SCHEMA_VERSION` — ``ExplainReport.to_dict`` payloads.

:func:`check_schema_version` / :func:`validate_telemetry` are the
gatekeepers; :func:`render_top` is the terminal view behind ``repro
top`` (unicode sparklines, SLO status, findings).
"""

import json

from repro.obs.metrics import quantile_exact

#: version of the serving_view payload (2: computed after the run, one
#: shared ``instants`` list, integer ``wire_bytes`` per interval)
TELEMETRY_SCHEMA_VERSION = 2

#: version of the ``repro stats --json`` payload (2: no ``metrics`` key)
STATS_SCHEMA_VERSION = 2

#: version of the ExplainReport.to_dict payload
EXPLAIN_SCHEMA_VERSION = 1

#: every schema this build can read, by payload kind
KNOWN_SCHEMAS = {
    "telemetry": (TELEMETRY_SCHEMA_VERSION,),
    "stats": (STATS_SCHEMA_VERSION,),
    "explain": (EXPLAIN_SCHEMA_VERSION,),
}

_SPARK_GLYPHS = " ▁▂▃▄▅▆▇█"

#: columns of a ``repro top`` sparkline
SPARK_WIDTH = 32


def check_schema_version(payload, kind):
    """Reject payloads this build cannot read, with a message that says
    what was found, what is supported, and what to do about it."""
    if kind not in KNOWN_SCHEMAS:
        raise ValueError("unknown payload kind %r" % (kind,))
    if not isinstance(payload, dict):
        raise ValueError(
            "%s payload must be a JSON object, got %s"
            % (kind, type(payload).__name__)
        )
    version = payload.get("schema_version")
    supported = KNOWN_SCHEMAS[kind]
    if version is None:
        raise ValueError(
            "%s payload has no schema_version field; this build reads "
            "version(s) %s — was it produced by a pre-telemetry build?"
            % (kind, ", ".join(str(v) for v in supported))
        )
    if version not in supported:
        raise ValueError(
            "unsupported %s schema_version %r; this build reads "
            "version(s) %s — regenerate the report with a matching build"
            % (kind, version, ", ".join(str(v) for v in supported))
        )
    return version


def validate_telemetry(payload):
    """Schema-validate one telemetry JSON payload; returns it unchanged.

    Checks the version gate plus the invariants every reader leans on:
    non-decreasing instants, one value per instant in every series, an
    SLO block, and the exact byte reconciliation (wire bytes per interval
    plus the rebalancer's moved bytes equal the run's metered total)."""
    check_schema_version(payload, "telemetry")
    instants = payload.get("instants")
    series = payload.get("series")
    if not isinstance(instants, list) or not isinstance(series, dict):
        raise ValueError("telemetry payload has no instants list or series table")
    if any(b < a for a, b in zip(instants, instants[1:])):
        raise ValueError("telemetry instants go backwards")
    for name, values in series.items():
        if not isinstance(values, list) or len(values) != len(instants):
            raise ValueError(
                "series %r does not hold one value per instant" % (name,)
            )
    slo = payload.get("slo")
    for field in ("objective_s", "target", "windows"):
        if not isinstance(slo, dict) or field not in slo:
            raise ValueError("slo block is missing %r" % (field,))
    wire = sum(series.get("wire_bytes", ()))
    moved = payload.get("balance", {}).get("bytes_moved", 0)
    if wire + moved != payload.get("total_bytes"):
        raise ValueError(
            "wire bytes %d + moved %d do not reconcile with total_bytes %r"
            % (wire, moved, payload.get("total_bytes"))
        )
    return payload


def write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- terminal rendering (repro top) ----------------------------------------


def sparkline(values):
    """Unicode sparkline of ``values``, resampled to ``SPARK_WIDTH`` columns."""
    if not values:
        return ""
    if len(values) > SPARK_WIDTH:
        # average each column's bucket so spikes are not silently skipped
        out = []
        for col in range(SPARK_WIDTH):
            lo = col * len(values) // SPARK_WIDTH
            hi = max(lo + 1, (col + 1) * len(values) // SPARK_WIDTH)
            out.append(sum(values[lo:hi]) / (hi - lo))
        values = out
    lo, hi = min(values), max(values)
    span = hi - lo
    glyphs = _SPARK_GLYPHS
    if span <= 0:
        return glyphs[1] * len(values)
    scale = len(glyphs) - 2
    return "".join(
        glyphs[1 + int((v - lo) / span * scale)] for v in values
    )


def _series_row(name, values):
    return "  %-28s %s  last %10.1f  mean %10.1f  p99 %10.1f" % (
        name,
        sparkline(values),
        values[-1],
        sum(values) / len(values),
        quantile_exact(sorted(values), 0.99),
    )


def format_finding(finding):
    """One finding of a telemetry payload as a line of text."""
    return "[%s] %s %.2f-%.2fs: %s" % (
        finding["severity"],
        finding["kind"],
        finding["t0_s"],
        finding["t1_s"],
        finding["detail"],
    )


def render_top(payload):
    """The ``repro top`` terminal view of one telemetry payload."""
    validate_telemetry(payload)
    lines = [
        "telemetry: %d instants @ %.3fs interval over %.3fs (simulated)"
        % (
            len(payload["instants"]),
            payload["interval_s"],
            payload["makespan_s"],
        ),
        "",
        "series:",
    ]
    series = payload["series"]
    for name in sorted(series):
        lines.append(_series_row(name, series[name]))
    slo = payload["slo"]
    lines.append("")
    status = "OK" if slo["breaches"] == 0 else "BREACHED"
    lines.append(
        "slo: %s — p%d <= %.3fs, %d/%d breaches, "
        "compliance %.4f, budget spent %.2fx"
        % (
            status,
            round(slo["target"] * 100),
            slo["objective_s"],
            slo["breaches"],
            slo["total"],
            slo["compliance"],
            slo["budget_spent"],
        )
    )
    for window in slo["windows"]:
        marker = "!" if window["burn_rate"] > 1.0 else " "
        lines.append(
            "  %s [%6.2f, %6.2f)s  n=%-4d p99 %7.4fs  burn %6.2fx"
            % (
                marker,
                window["t0_s"],
                window["t1_s"],
                window["total"],
                window["p99_s"],
                window["burn_rate"],
            )
        )
    lines.append("")
    findings = payload.get("findings", ())
    lines.append("findings:" if findings else "findings: none")
    lines.extend("  " + format_finding(f) for f in findings)
    return "\n".join(lines)
