"""Serving-clock time-series: ring-buffered samples of a live run.

One-shot snapshots (``repro stats``) and end-of-run aggregates (the
metrics registry) cannot show a p99 spike forming or a hot-key promotion
landing — behaviour of the serving loop and the load balancer only makes
sense *over time*.  This module samples that state onto the serving
engine's own simulated clock:

* :class:`RingBuffer` / :class:`Series` — fixed-capacity ``(t, value)``
  rings with windowed min/mean/max/p99 aggregation;
* :class:`TelemetrySampler` — registered probes (gauges read directly,
  rates as deltas of cumulative counters per interval) sampled at every
  multiple of ``interval_s`` the serving clock crosses.

There is **zero wall clock** here.  The sampler is driven by
:meth:`advance_to` from the serving engine's admission loop (next to the
rebalance tick) and by :meth:`finish` once the run's makespan is known,
so every sample instant, and therefore every series, is a deterministic
function of the workload and seed.  Probes only *read* state — enabling
telemetry changes no answer, simulated second, or metered byte (the
differential test in ``tests/test_telemetry.py`` asserts byte-identical
reports and meter snapshots on Pastry and Chord).
"""

from repro.obs.metrics import quantile_exact

#: float-comparison slack for simulated instants
_EPS = 1e-9

#: default sampling interval (simulated seconds)
DEFAULT_INTERVAL_S = 0.1

#: default per-series capacity; at the default interval this covers runs
#: two orders of magnitude longer than the committed serving benchmarks
DEFAULT_CAPACITY = 512


class RingBuffer:
    """Fixed-capacity ring of ``(t_s, value)`` samples, oldest evicted."""

    __slots__ = ("capacity", "_items", "_head", "dropped")

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1, got %r" % (capacity,))
        self.capacity = int(capacity)
        self._items = []
        self._head = 0  # index of the oldest sample once full
        self.dropped = 0  # samples evicted by capacity (honesty counter)

    def append(self, t_s, value):
        if len(self._items) < self.capacity:
            self._items.append((t_s, value))
        else:
            self._items[self._head] = (t_s, value)
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def items(self):
        """Samples in time order (oldest first)."""
        return self._items[self._head:] + self._items[: self._head]

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self.items())


class Series:
    """One named time-series over a :class:`RingBuffer`."""

    __slots__ = ("name", "ring")

    def __init__(self, name, capacity=DEFAULT_CAPACITY):
        self.name = name
        self.ring = RingBuffer(capacity)

    def sample(self, t_s, value):
        self.ring.append(t_s, value)

    def items(self):
        return self.ring.items()

    def values(self):
        return [v for _, v in self.ring.items()]

    def last(self):
        items = self.ring.items()
        return items[-1] if items else None

    def window(self, t0_s, t1_s):
        """Samples with ``t0_s <= t < t1_s`` (end-exclusive)."""
        return [
            (t, v)
            for t, v in self.ring.items()
            if t0_s - _EPS <= t < t1_s - _EPS
        ]

    def window_stats(self, t0_s, t1_s):
        """min/mean/max/p99 over the window, or None when it is empty."""
        values = [v for _, v in self.window(t0_s, t1_s)]
        if not values:
            return None
        ordered = sorted(values)
        return {
            "t0_s": t0_s,
            "t1_s": t1_s,
            "count": len(ordered),
            "min": ordered[0],
            "mean": sum(ordered) / len(ordered),
            "max": ordered[-1],
            "p99": quantile_exact(ordered, 0.99),
        }

    def to_dict(self):
        items = self.ring.items()
        return {
            "name": self.name,
            "samples": [[t, v] for t, v in items],
            "dropped": self.ring.dropped,
        }


class TelemetrySampler:
    """Probes sampled at fixed serving-clock intervals; see module doc.

    Two probe kinds:

    * ``add_gauge(name, fn)`` — ``fn()`` read directly at each instant
      (queue depth, hot-key count, in-flight queries);
    * ``add_rate(name, fn)`` — ``fn()`` must be a cumulative counter; the
      series records ``(current - previous) / interval_s`` per instant
      (bytes on the wire, per-peer served read/write bytes from the
      :class:`~repro.balance.ledger.LoadLedger`).

    The serving engine calls :meth:`advance_to` at each admission instant
    and :meth:`finish` after the final shared-schedule run, which takes
    the closing sample at the makespan, back-fills the exact
    ``inflight_queries`` series from the finished records, and (when a
    tracer is attached) emits one instant span per sample so Perfetto
    traces show the sampling timeline alongside the queries.
    """

    def __init__(
        self,
        interval_s=DEFAULT_INTERVAL_S,
        capacity=DEFAULT_CAPACITY,
        slo=None,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self.capacity = int(capacity)
        self.slo = slo  # optional repro.obs.slo.SLOTracker
        self.series = {}
        self._gauges = {}  # name -> fn
        self._rates = {}  # name -> (fn, last_value)
        self._next_t = 0.0
        self._instants = []  # every boundary sampled so far, in order
        self.samples_taken = 0
        self.finished = False
        self.makespan_s = 0.0

    # -- probe registration ------------------------------------------------

    def _series(self, name):
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = Series(name, self.capacity)
        return series

    def add_gauge(self, name, fn):
        self._gauges[name] = fn
        self._series(name)
        return self

    def add_rate(self, name, fn):
        self._rates[name] = (fn, fn())
        self._series(name)
        return self

    # -- sampling clock ----------------------------------------------------

    def _take_sample(self, t_s):
        for name, fn in self._gauges.items():
            self._series(name).sample(t_s, fn())
        for name, (fn, last) in self._rates.items():
            current = fn()
            self._series(name).sample(
                t_s, (current - last) / self.interval_s
            )
            self._rates[name] = (fn, current)
        self._instants.append(t_s)
        self.samples_taken += 1

    def advance_to(self, now_s):
        """Sample every interval boundary the clock has crossed.

        Probes read the state visible *at the call* (sample-and-hold, the
        same contract a real scraper has); boundaries are stamped at their
        exact simulated instants so series align across runs."""
        while self._next_t <= now_s + _EPS:
            self._take_sample(self._next_t)
            self._next_t += self.interval_s

    def finish(self, result, tracer=None, scheduler=None):
        """Close out a serving run: final samples, SLO feed, trace events.

        ``result`` is the engine's :class:`ServingResult`.  Per-query
        finish times are provisional while the run is live (later
        admissions re-contend the shared timeline), so the completion-fed
        series — exact in-flight counts, shared-schedule concurrency, and
        the SLO error budget — are derived here, from the *final*
        schedule."""
        self.makespan_s = result.makespan_s
        self.advance_to(self.makespan_s)
        # exact in-flight profile from the final records: per-query finish
        # times are provisional mid-run, so this series is only derivable
        # once the final shared schedule exists
        inflight = self.series["inflight_queries"] = Series(
            "inflight_queries", self.capacity
        )
        instants = self._instants[-self.capacity:] or [0.0]
        for t in instants:
            count = sum(
                1
                for q in result.queries
                if q.admit_s <= t + _EPS and q.finish_s > t + _EPS
            )
            inflight.sample(t, count)
        if scheduler is not None:
            running = self.series["running_tasks"] = Series(
                "running_tasks", self.capacity
            )
            for t in instants:
                running.sample(t, len(scheduler.running_at(t)))
        if self.slo is not None:
            for q in sorted(result.queries, key=lambda q: (q.finish_s, q.seq)):
                self.slo.observe(q.finish_s, q.latency_s)
        self.finished = True
        if tracer is not None:
            for t in instants:
                tracer.add(
                    "telemetry:sample",
                    "telemetry",
                    "telemetry",
                    t,
                    0.0,
                    args={
                        name: self._value_at(name, t)
                        for name in sorted(self.series)
                    },
                )

    def _value_at(self, name, t_s):
        for t, v in self.series[name].items():
            if abs(t - t_s) <= _EPS:
                return v
        return None

    # -- export ------------------------------------------------------------

    def to_dict(self):
        from repro.obs.report import TELEMETRY_SCHEMA_VERSION

        payload = {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "interval_s": self.interval_s,
            "makespan_s": self.makespan_s,
            "samples_taken": self.samples_taken,
            "finished": self.finished,
            "series": {
                name: self.series[name].to_dict()
                for name in sorted(self.series)
            },
        }
        if self.slo is not None:
            payload["slo"] = self.slo.to_dict()
        return payload


def install_standard_probes(sampler, system, engine=None):
    """Wire the stock probe set for one ``KadopNetwork`` deployment.

    Global gauges: admission queue depth and drops, coalescer hits,
    hot-key extra copies, rebalancer migrations.  Global rates: total
    bytes on the wire.  Per-peer rates: served read and applied write
    bytes from the load ledger.  All read-only.
    """
    meter = system.net.meter
    sampler.add_rate("wire_bytes_per_s", lambda: meter.bytes())
    balance = getattr(system, "balance", None)
    if balance is not None:
        ledger = balance.ledger
        sampler.add_gauge("hot_keys", lambda: len(balance.extras))
        sampler.add_gauge("extra_copies", lambda: balance.extra_copies)
        sampler.add_gauge(
            "rebalancer_migrations", lambda: balance.rebalancer.migrations
        )
        for peer in system.peers:
            idx = peer.index
            sampler.add_rate(
                "peer_read_bytes_per_s{peer=%d}" % idx,
                lambda i=idx: ledger.peer_read_bytes.get(i, 0),
            )
            sampler.add_rate(
                "peer_write_bytes_per_s{peer=%d}" % idx,
                lambda i=idx: ledger.peer_write_bytes.get(i, 0),
            )
    if engine is not None:
        sampler.add_gauge("queue_depth", engine.queue_depth)
        sampler.add_gauge("admitted_queries", engine.admitted_count)
        sampler.add_gauge("admission_drops", engine.dropped_count)
        sampler.add_gauge("coalescer_hits", engine.coalescer_hits)
    return sampler
