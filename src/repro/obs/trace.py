"""Simulated-time span tracing with Chrome trace-event export.

A :class:`Span` is an interval of *simulated* seconds — there is no wall
clock anywhere in this module.  The system computes durations (transfer
times, scheduler makespans, join CPU); the tracer only records where those
seconds sit on a per-query timeline, so a trace is exactly as deterministic
as the simulation itself.

Timeline model: the tracer keeps a global cursor.  Each query opens a root
span at the cursor and lays its phases out at relative offsets (the query
context's ``base``/``offset``); when the query ends, the cursor advances by
the query's simulated response time, so consecutive queries appear
back-to-back in Perfetto rather than stacked at t=0.

Export (:func:`to_chrome_trace`) maps spans onto the Chrome trace-event
JSON format: one ``ph: "X"`` complete event per span, ``ts``/``dur`` in
microseconds of simulated time, tracks (``tid``) per peer / link /
query-phase lane.  The result loads in ``chrome://tracing`` and Perfetto.
"""

import json

#: trailing idle gap inserted between consecutive queries on the timeline,
#: in simulated seconds — purely cosmetic, keeps query roots visually apart
QUERY_GAP_S = 0.0


class Span:
    """One simulated-time interval with attributes.

    ``track`` is the display lane ("query", "peer:3", "egress:5", ...);
    ``cat`` the coarse kind ("phase", "dht", "dht-hop", "task", "wait",
    "doc", "view", ...); ``args`` carries byte/hop/peer attributes.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "cat",
        "track",
        "start_s",
        "duration_s",
        "args",
    )

    def __init__(self, span_id, parent_id, name, cat, track, start_s, duration_s, args):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.track = track
        self.start_s = start_s
        self.duration_s = duration_s
        self.args = args

    @property
    def end_s(self):
        return self.start_s + self.duration_s

    def __repr__(self):
        return "Span(%r, %s, %.6g+%.6gs)" % (
            self.name,
            self.track,
            self.start_s,
            self.duration_s,
        )


class QueryContext:
    """The active query's position on the global timeline.

    ``base``       absolute start of the query (simulated seconds);
    ``offset``     current phase offset *within* the query — DHT ops and
                   scheduler observations anchor to ``base + offset``;
    ``root_id``    span id of the query's root span;
    ``parent_id``  span id new child spans should attach to.
    """

    __slots__ = ("base", "offset", "root_id", "parent_id", "name")

    def __init__(self, base, root_id, name):
        self.base = base
        self.offset = 0.0
        self.root_id = root_id
        self.parent_id = root_id
        self.name = name

    def now(self):
        return self.base + self.offset


class Tracer:
    """Collects spans; strictly observational (never changes results)."""

    def __init__(self):
        # a span's id is its 1-based position here: spans are only appended
        self.spans = []
        # (capacities, makespan, busy-by-resource) per observed scheduler
        # run, in run order; :func:`repro.obs.profile.utilization` reads it
        self.schedules = []
        self._cursor = 0.0
        self._ctx = None
        self.queries = 0

    # -- recording --------------------------------------------------------------

    @property
    def active(self):
        """True while a query context is open (ops should record spans)."""
        return self._ctx is not None

    @property
    def context(self):
        return self._ctx

    def add(self, name, cat, track, start_s, duration_s, args=None, parent=None):
        """Record one span; returns its id (usable as ``parent``)."""
        span_id = len(self.spans) + 1
        self.spans.append(
            Span(span_id, parent, name, cat, track, start_s, duration_s, args or {})
        )
        return span_id

    def set_duration(self, span_id, duration_s, args=None):
        """Patch a span's duration (and extra args) once known.

        Phase roots are opened before their children so the children can
        attach to them; the duration only exists after the phase closes.
        """
        if not 0 < span_id <= len(self.spans):
            raise KeyError("no span with id %r" % (span_id,))
        span = self.spans[span_id - 1]
        span.duration_s = duration_s
        if args:
            span.args.update(args)

    def seek(self, instant_s):
        """Move the timeline cursor to an absolute simulated instant.

        Concurrent serving opens each query's root span at its *admission*
        time rather than after the previous query closed; the serving
        engine seeks before each ``begin_query`` so overlapping queries
        land where they actually ran on the shared timeline."""
        if instant_s < 0:
            raise ValueError("cannot seek to negative time %r" % (instant_s,))
        self._cursor = float(instant_s)

    def begin_query(self, name, args=None):
        """Open a query root span at the timeline cursor."""
        root_id = self.add(name, "query", "query", self._cursor, 0.0, args=args)
        self._ctx = QueryContext(self._cursor, root_id, name)
        return self._ctx

    def end_query(self, ctx, duration_s, args=None):
        """Close the query: fix the root duration, advance the cursor.

        The cursor only ever moves forward here: when queries overlap (the
        serving engine seeks backward to admit a query at an earlier
        instant), a short query ending inside a longer one's window must
        not rewind the timeline for whoever begins next."""
        self.set_duration(ctx.root_id, duration_s, args)
        self._cursor = max(self._cursor, ctx.base + duration_s + QUERY_GAP_S)
        self.queries += 1
        if self._ctx is ctx:
            self._ctx = None

    # -- convenience ------------------------------------------------------------

    def spans_by_cat(self, cat):
        return [s for s in self.spans if s.cat == cat]

    def children_of(self, span_id):
        return [s for s in self.spans if s.parent_id == span_id]

    def __len__(self):
        return len(self.spans)


def observe_schedule(tracer, scheduler, rel_base=0.0):
    """Record one finished :class:`~repro.sim.tasks.Scheduler` run.

    Emits a span per task (on the task's egress-link track, or "ingress")
    plus a ``wait`` span for any queue time — the gap between a task
    becoming ready and actually starting, attributed to the resource that
    had no free slot.  Appends ``(capacities, makespan, busy)`` of the run
    to ``tracer.schedules``, the source of per-resource utilization
    (busy / (capacity * makespan)).

    Reads task ``start``/``finish``/``ready``/``blocked_on`` left behind by
    ``Scheduler.run``; it never mutates the scheduler, so calling it (or
    not) cannot change any simulated result.
    """
    tasks = scheduler.tasks
    if not tasks:
        return
    makespan = max((t.finish for t in tasks if t.finish is not None), default=0.0)
    ctx = tracer.context
    busy = {}
    for task in tasks:
        if task.start is None or task.finish is None:
            continue  # failed run: nothing trustworthy to record
        for resource in task.resources:
            busy[resource] = busy.get(resource, 0.0) + task.duration
        if ctx is not None:
            wait = (task.start - task.ready) if task.ready is not None else 0.0
            track = next(
                (r for r in task.resources if r.startswith("egress")),
                task.resources[0] if task.resources else "scheduler",
            )
            start_abs = ctx.base + rel_base + task.start
            attach = ctx.parent_id
            if wait > 0:
                # the wait span lives on the track of the resource that
                # actually had no free slot (the overloaded link/CPU), not
                # the task's nominal egress track — so hot-peer congestion
                # is visible as a pile-up on that peer's own track
                tracer.add(
                    "wait:%s" % task.name,
                    "wait",
                    task.blocked_on if task.blocked_on else track,
                    start_abs - wait,
                    wait,
                    args={"blocked_on": task.blocked_on},
                    parent=attach,
                )
            tracer.add(
                task.name,
                "task",
                track,
                start_abs,
                task.duration,
                args={
                    "resources": list(task.resources),
                    "queue_wait_s": wait,
                },
                parent=attach,
            )
    tracer.schedules.append((scheduler.capacities(), makespan, busy))


# -- Chrome trace-event export ------------------------------------------------

#: simulated seconds -> trace-event microseconds
_US = 1_000_000


def to_chrome_trace(tracer):
    """Render the tracer's spans as a Chrome trace-event JSON object.

    Every event (including the ``ph: "M"`` metadata that names tracks)
    carries the full required key set — ``name/ph/ts/dur/pid/tid`` — and
    events are sorted by ``ts``, so the output passes
    :func:`validate_trace` and loads in Perfetto / ``chrome://tracing``.
    """
    tracks = sorted({span.track for span in tracer.spans})
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "dur": 0,
            "pid": 1,
            "tid": 0,
            "args": {"name": "kadop-sim"},
        }
    ]
    for track in tracks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "dur": 0,
                "pid": 1,
                "tid": tids[track],
                "args": {"name": track},
            }
        )
    spans = sorted(tracer.spans, key=lambda s: (s.start_s, s.span_id))
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": round(span.start_s * _US, 3),
                "dur": round(span.duration_s * _US, 3),
                "pid": 1,
                "tid": tids[span.track],
                "args": dict(span.args, span_id=span.span_id),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer, path):
    """Write :func:`to_chrome_trace` output to ``path``; returns #events."""
    trace = to_chrome_trace(tracer)
    with open(path, "w") as handle:
        json.dump(trace, handle)
    return len(trace["traceEvents"])


_REQUIRED_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")


def validate_trace(obj):
    """Check trace-event JSON structure; returns the event count.

    Enforces exactly what the CI smoke step promises: every event has the
    required keys, timestamps are non-negative and monotonically
    non-decreasing in file order, durations are non-negative.
    """
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ValueError("trace must be an object with a 'traceEvents' array")
    events = obj["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty array")
    last_ts = 0
    for i, event in enumerate(events):
        for key in _REQUIRED_KEYS:
            if key not in event:
                raise ValueError("event %d missing required key %r" % (i, key))
        ts, dur = event["ts"], event["dur"]
        if ts < 0 or dur < 0:
            raise ValueError("event %d has negative ts/dur: %r/%r" % (i, ts, dur))
        if ts < last_ts:
            raise ValueError(
                "timestamps not monotonic at event %d: %r < %r" % (i, ts, last_ts)
            )
        last_ts = ts
    return len(events)


def validate_trace_file(path):
    """Validate a trace JSON file on disk; returns the event count."""
    with open(path) as handle:
        return validate_trace(json.load(handle))
