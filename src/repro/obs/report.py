"""Telemetry report surfacing: schema versions, validation, text.

Telemetry payloads outlive the process that produced them — they are
written to JSON and diffed in CI.  Everything crossing that boundary
carries a ``schema_version`` so a reader can refuse payloads it does not
understand instead of misrendering them:

* :data:`TELEMETRY_SCHEMA_VERSION` — ``TelemetrySampler.to_dict``
  payloads (series + SLO + findings);
* :data:`STATS_SCHEMA_VERSION` — ``repro stats --json`` payloads;
* :data:`EXPLAIN_SCHEMA_VERSION` — ``ExplainReport.to_dict`` payloads.

:func:`check_schema_version` / :func:`validate_telemetry` are the
gatekeepers; :func:`render_top` is the terminal view behind ``repro
top`` (unicode sparklines, SLO status, findings).
"""

import json

#: version of the TelemetrySampler.to_dict payload
TELEMETRY_SCHEMA_VERSION = 1

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

    Checks the version gate plus the structural invariants every reader
    leans on: a series table whose samples are ``[t, value]`` pairs with
    non-decreasing timestamps, and (when present) an SLO block with
    windows inside the run."""
    check_schema_version(payload, "telemetry")
    series = payload.get("series")
    if not isinstance(series, dict):
        raise ValueError("telemetry payload has no series table")
    for name, body in series.items():
        samples = body.get("samples")
        if not isinstance(samples, list):
            raise ValueError("series %r has no samples list" % (name,))
        prev = None
        for sample in samples:
            if not (isinstance(sample, list) and len(sample) == 2):
                raise ValueError(
                    "series %r sample %r is not a [t, value] pair"
                    % (name, sample)
                )
            t = sample[0]
            if prev is not None and t < prev:
                raise ValueError(
                    "series %r timestamps go backwards at t=%r" % (name, t)
                )
            prev = t
    slo = payload.get("slo")
    if slo is not None:
        for field in ("objective_s", "target", "windows"):
            if field not in slo:
                raise ValueError("slo block is missing %r" % (field,))
    return payload


def write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- terminal rendering (repro top) ----------------------------------------


def sparkline(values, width=32):
    """Unicode sparkline of ``values``, resampled to ``width`` columns."""
    if not values:
        return ""
    if len(values) > width:
        # average each column's bucket so spikes are not silently skipped
        out = []
        for col in range(width):
            lo = col * len(values) // width
            hi = max(lo + 1, (col + 1) * len(values) // width)
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


def _series_row(name, body, width):
    values = [v for _, v in body["samples"]]
    if not values:
        return "  %-34s (no samples)" % (name,)
    ordered = sorted(values)
    rank = max(1, -(-99 * len(ordered) // 100))  # ceil without math import
    tail = " (+%d evicted)" % body["dropped"] if body.get("dropped") else ""
    return "  %-34s %s  last %10.1f  mean %10.1f  p99 %10.1f%s" % (
        name,
        sparkline(values, width),
        values[-1],
        sum(values) / len(values),
        ordered[min(rank, len(ordered)) - 1],
        tail,
    )


def render_top(payload, findings=None, width=32):
    """The ``repro top`` terminal view of one telemetry payload."""
    validate_telemetry(payload)
    lines = [
        "telemetry: %d samples @ %.3fs interval over %.3fs (simulated)"
        % (
            payload["samples_taken"],
            payload["interval_s"],
            payload["makespan_s"],
        ),
        "",
        "series:",
    ]
    series = payload["series"]
    for name in sorted(series):
        lines.append(_series_row(name, series[name], width))
    slo = payload.get("slo")
    if slo is not None:
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
    if findings is not None:
        lines.append("")
        if findings:
            lines.append("findings:")
            for finding in findings:
                rendered = (
                    finding.format()
                    if hasattr(finding, "format")
                    else str(finding)
                )
                lines.append("  %s" % (rendered,))
        else:
            lines.append("findings: none")
    return "\n".join(lines)

