"""Profile reports over a recorded trace: where did simulated time go?

``repro profile`` prints two tables built here:

* **top spans by self-time** — a span's *self* time is its duration minus
  the time covered by its child spans, so an index phase that spent all of
  its seconds inside DHT fetches shows up near zero and the fetches
  themselves rank;
* **per-resource utilization** — busy seconds over capacity-seconds for
  every scheduler resource (egress links, the consumer's ingress), from
  the runs :func:`repro.obs.trace.observe_schedule` appends to
  ``tracer.schedules``.

:func:`served_reads` lists which peer served which read bytes: the hot
peers and keys of ``repro stats`` and the telemetry view's per-peer read
series.  All are views of the span tree; nothing here keeps a counter of
its own.
"""


def self_times(spans):
    """``{span_id: self_time_s}`` — duration minus children's durations.

    Children are credited to their explicit ``parent_id``; a child longer
    than its parent (possible for max-combined phases) clamps at zero.
    """
    child_time = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration_s
            )
    return {
        span.span_id: max(0.0, span.duration_s - child_time.get(span.span_id, 0.0))
        for span in spans
    }


def aggregate_spans(tracer):
    """Every ``(name, cat, count, total_self_s, total_s)`` row, spans
    aggregated by name, sorted by descending self-time."""
    selfs = self_times(tracer.spans)
    by_name = {}
    for span in tracer.spans:
        key = (span.name, span.cat)
        count, self_s, total_s = by_name.get(key, (0, 0.0, 0.0))
        by_name[key] = (
            count + 1,
            self_s + selfs[span.span_id],
            total_s + span.duration_s,
        )
    rows = [
        (name, cat, count, self_s, total_s)
        for (name, cat), (count, self_s, total_s) in by_name.items()
    ]
    rows.sort(key=lambda r: (-r[3], r[0]))
    return rows


def phase_totals(tracer):
    """Total self-time per span category — the span-level cost breakdown.

    This is the number EXPERIMENTS.md cites: e.g. how many simulated
    seconds of a workload went to DHT transfers vs. scheduler-task
    transfers vs. document-peer evaluation.
    """
    selfs = self_times(tracer.spans)
    totals = {}
    for span in tracer.spans:
        totals[span.cat] = totals.get(span.cat, 0.0) + selfs[span.span_id]
    return dict(sorted(totals.items()))


def served_reads(spans):
    """``(span, peer, key, nbytes)`` for every read a peer served: each
    ``dht`` span whose ``served_by`` names the holder whose copy answered,
    with its ``payload``, the bytes of that copy.  A copy lost under a
    FaultPlan is in the span's ``response_bytes`` but was served by no
    peer, so it is not charged.  A read of zero bytes is listed too."""
    for span in spans:
        if span.cat == "dht":
            args = span.args
            peer = args.get("served_by")
            if peer is not None:
                yield span, peer, args["key"], args["payload"]


def utilization(tracer):
    """``{resource: (busy_s, capacity_s, busy_s / capacity_s)}`` over every
    scheduler run in ``tracer.schedules``.

    Each run's busy time is already summed per resource; the runs are added
    in run order, so the totals do not depend on how the task spans of one
    run happen to be ordered."""
    busy_s, capacity_s = {}, {}
    for capacities, makespan, busy in tracer.schedules:
        for resource, capacity in capacities.items():
            busy_s[resource] = busy_s.get(resource, 0.0) + busy.get(resource, 0.0)
            capacity_s[resource] = capacity_s.get(resource, 0.0) + capacity * makespan
    return {
        resource: (
            busy_s[resource],
            capacity_s[resource],
            busy_s[resource] / capacity_s[resource] if capacity_s[resource] else 0.0,
        )
        for resource in busy_s
    }


def format_profile(tracer, top=12):
    """The ``repro profile`` report as text."""
    lines = []
    lines.append(
        "trace: %d queries, %d spans" % (tracer.queries, len(tracer.spans))
    )
    lines.append("")
    lines.append("top spans by simulated self-time:")
    lines.append(
        "%10s %10s %6s  %-8s %s" % ("self (ms)", "total (ms)", "count", "cat", "name")
    )
    rows = aggregate_spans(tracer)
    for name, cat, count, self_s, total_s in rows[:top]:
        lines.append(
            "%10.3f %10.3f %6d  %-8s %s"
            % (self_s * 1e3, total_s * 1e3, count, cat, name)
        )
    if len(rows) > top:
        # the table above is a cut, not the whole story — say so, and say
        # how much self-time the cut left out
        rest = rows[top:]
        rest_spans = sum(r[2] for r in rest)
        rest_self = sum(r[3] for r in rest)
        whole_self = sum(r[3] for r in rows)
        share = 100.0 * rest_self / whole_self if whole_self else 0.0
        lines.append(
            "... %d more span groups (%d spans), %.1f%% of self-time"
            % (len(rest), rest_spans, share)
        )
    totals = phase_totals(tracer)
    if totals:
        lines.append("")
        lines.append("self-time by category:")
        for cat, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            lines.append("%10.3f ms  %s" % (seconds * 1e3, cat))
    table = utilization(tracer)
    if table:
        lines.append("")
        lines.append("per-resource utilization (scheduler runs):")
        lines.append(
            "%10s %12s %12s  %s" % ("busy (ms)", "capacity (ms)", "util", "resource")
        )
        for resource in sorted(table):
            busy_s, capacity_s, ratio = table[resource]
            lines.append(
                "%10.3f %12.3f %11.1f%%  %s"
                % (busy_s * 1e3, capacity_s * 1e3, 100.0 * ratio, resource)
            )
    waits = [span.args["queue_wait_s"] for span in tracer.spans if span.cat == "task"]
    if waits:
        # left to right, as the waits were recorded: ``sum`` of floats is
        # compensated from Python 3.12 on and could print another digit
        wait_s = 0.0
        for wait in waits:
            wait_s += wait
        lines.append("")
        lines.append(
            "queue wait: %d tasks, %.3f ms total, mean %.3f ms"
            % (len(waits), wait_s * 1e3, wait_s / len(waits) * 1e3)
        )
    return "\n".join(lines)
