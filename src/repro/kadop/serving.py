"""Concurrent multi-query serving on one shared scheduler timeline.

Single-query execution (:mod:`repro.kadop.execution`) gives every query an
idle network: its transfer schedule competes only with itself.  This
module serves an *open-loop stream* of queries — each arrives at a fixed
simulated instant, independent of when earlier queries finish — against
one shared :class:`~repro.sim.tasks.Scheduler`, so overlapping queries
genuinely contend for per-peer egress links, the source peer's ingress
capacity, and its join CPU.

The engine keeps the paper's answer semantics exactly: each admitted
query's *data path* runs through the unchanged executor (so answers, and
the per-query byte accounting, are identical to running the query alone),
while the executor's private transfer schedules are captured and
*replayed* onto the shared timeline with ``release = admission instant``.
A query's served latency is then arrival → the finish of its last task on
the shared schedule: queue wait + contention-stretched fetches + join +
document phase.

Three independently switchable mechanisms ride on top:

**Single-flight coalescing** (:class:`FetchCoalescer`): when a query
demands a term key / DPP root / DPP block / view whose fetch another
in-flight query already started, it joins that flight — same data, one
fanned-out receipt, zero additional simulated bytes — and its shared-
timeline join depends on the *producer's* transfer tasks instead of
duplicating them.  Strictly single-flight, not a cache: a flight whose
transfer has completed before the waiter was admitted is expired, and the
waiter fetches for real.

**Admission control**: at most ``max_inflight`` queries execute
concurrently; excess arrivals wait in an admission queue drained in
arrival order, so saturation degrades into queueing delay instead of
unbounded contention.

**Open-loop arrivals**: :func:`repro.workloads.profiles.open_loop_workload`
generates seeded Poisson arrival traces at a target rate; the
``experiments.serving`` sweep drives this engine across rates and reports
throughput and p50/p95/p99 latency from the span tracer.
"""

from dataclasses import dataclass, field

from repro.obs.metrics import quantile_exact
from repro.sim.tasks import Scheduler

#: float-comparison slack for simulated instants
_EPS = 1e-9


@dataclass(frozen=True)
class QueryArrival:
    """One open-loop arrival: a query plus the instant it shows up."""

    arrival_s: float
    query_text: object  # query string or a parsed TreePattern
    keyword_steps: tuple = ()
    src: int = 0  # source peer index


@dataclass
class ServedQuery:
    """One query's journey through the serving engine."""

    seq: int
    arrival_s: float
    admit_s: float
    src: int
    query_text: object
    keyword_steps: tuple
    answers: list = field(default_factory=list, repr=False)
    report: object = None
    finish_s: float = 0.0
    traffic: dict = field(default_factory=dict)
    coalesced_fetches: int = 0
    root_id: int = None  # tracer span id of the query root (if traced)
    tasks: list = field(default_factory=list, repr=False)

    @property
    def queue_wait_s(self):
        return self.admit_s - self.arrival_s

    @property
    def latency_s(self):
        return self.finish_s - self.arrival_s

    @property
    def service_s(self):
        return self.finish_s - self.admit_s


@dataclass
class ServingResult:
    """Everything one serving run produced."""

    queries: list
    max_inflight: object
    coalesce: bool
    traffic: dict = field(default_factory=dict)
    coalesced_hits: int = 0
    coalesced_bytes_saved: int = 0

    @property
    def total_bytes(self):
        return sum(self.traffic.values())

    @property
    def makespan_s(self):
        return max((q.finish_s for q in self.queries), default=0.0)

    @property
    def throughput_qps(self):
        if not self.queries:
            return 0.0
        span = self.makespan_s - min(q.arrival_s for q in self.queries)
        return len(self.queries) / span if span > 0 else float("inf")

    def latencies(self):
        return sorted(q.latency_s for q in self.queries)

    def percentile(self, p):
        """Nearest-rank latency percentile (p in [0, 100]), by the shared
        exact-sample quantile of ``obs.metrics``."""
        latencies = self.latencies()
        if not latencies:
            return 0.0
        return quantile_exact(latencies, p / 100.0)

    @property
    def mean_queue_wait_s(self):
        if not self.queries:
            return 0.0
        return sum(q.queue_wait_s for q in self.queries) / len(self.queries)

    def to_dict(self):
        return {
            "queries": len(self.queries),
            "max_inflight": self.max_inflight,
            "coalesce": self.coalesce,
            "throughput_qps": self.throughput_qps,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "mean_queue_wait_s": self.mean_queue_wait_s,
            "makespan_s": self.makespan_s,
            "total_bytes": self.total_bytes,
            "coalesced_hits": self.coalesced_hits,
            "coalesced_bytes_saved": self.coalesced_bytes_saved,
        }


class _Flight:
    """One in-flight fetch another query may join."""

    __slots__ = (
        "kind",
        "key",
        "data",
        "nbytes",
        "receipt_s",
        "owner_seq",
        "tasks",
        "finish_s",
    )

    def __init__(self, kind, key, data, nbytes, receipt_s, owner_seq):
        self.kind = kind
        self.key = key
        self.data = data
        self.nbytes = nbytes
        self.receipt_s = receipt_s
        self.owner_seq = owner_seq
        self.tasks = []  # the flight's tasks on the shared timeline
        self.finish_s = None  # provisional completion; None until replayed


def _flight_matcher(flight):
    """Predicate over *unprefixed* executor task names owned by ``flight``.

    Plain/pipelined fetches schedule ``xfer:<key>``; DPP block fetches
    schedule ``blk:<key>:<seq>``.  Root and view flights have no transfer task of
    their own (roots ride the locate latency, view fetches run inside the
    view outcome's time), so they match nothing.
    """
    if flight.kind in ("get", "pipelined_get"):
        target = "xfer:%s" % (flight.key,)
        return lambda name: name == target
    if flight.kind == "dppblk":
        target = "blk:%s:%d" % (flight.key[0], flight.key[1])
        return lambda name: name == target
    return lambda name: False


class FetchCoalescer:
    """Single-flight registry of in-flight fetches, keyed ``(kind, key)``.

    Installed on the :class:`~repro.dht.network.DhtNetwork` only while a
    serving engine runs with coalescing on; ``get`` / ``pipelined_get``,
    :meth:`DppIndex.root` / :meth:`DppIndex.fetch_block`, and
    :meth:`ViewBlockStore.fetch_all` consult it.  A lookup hits only when
    the flight is still in the air at the asking query's admission instant
    (``finish_s`` is provisional, from the latest shared-schedule run) —
    completed flights are expired, which is what makes this single-flight
    coalescing rather than a result cache.
    """

    def __init__(self):
        self._flights = {}  # (kind, key) -> _Flight
        self._joined = {}  # query seq -> [flights it joined]
        self._registered = {}  # query seq -> [flights it started]
        self.owner_seq = None
        self.now = 0.0
        self.hits = 0
        self.bytes_saved = 0

    def begin_query(self, seq, now_s):
        """Point the registry at the query about to execute."""
        self.owner_seq = seq
        self.now = now_s

    def lookup(self, kind, key):
        """The joinable flight for ``(kind, key)``, or None."""
        flight = self._flights.get((kind, key))
        if flight is None:
            return None
        if flight.owner_seq == self.owner_seq:
            # a query never coalesces with itself: a repeat fetch inside
            # one query pays again, exactly as it does running alone
            return None
        if flight.finish_s is not None and flight.finish_s <= self.now + _EPS:
            # the shared fetch already landed before this query was
            # admitted: single-flight only — fetch for real (and the real
            # fetch re-registers a fresh flight)
            del self._flights[(kind, key)]
            return None
        self.hits += 1
        self.bytes_saved += flight.nbytes
        self._joined.setdefault(self.owner_seq, []).append(flight)
        return flight

    def register(self, kind, key, data, nbytes, receipt_s):
        """Record a real fetch the current query just performed."""
        flight = _Flight(kind, key, data, nbytes, receipt_s, self.owner_seq)
        self._flights[(kind, key)] = flight
        self._registered.setdefault(self.owner_seq, []).append(flight)
        return flight

    def joined(self, seq):
        return self._joined.get(seq, [])

    def registered(self, seq):
        return self._registered.get(seq, [])

    def refresh_finishes(self):
        """Re-read provisional flight completions after a schedule run."""
        for flight in self._flights.values():
            if flight.tasks:
                flight.finish_s = max(t.finish for t in flight.tasks)


class ServingEngine:
    """Admits, executes, and schedules one open-loop query stream."""

    def __init__(self, system):
        self.system = system
        self.max_inflight = system.config.max_inflight
        self.coalesce = system.config.coalesce_fetches
        self._shared = None
        self._caps = None
        self._coalescer = None
        self._records = None

    # -- the serving loop -------------------------------------------------------

    def run(self, arrivals):
        """Serve ``arrivals`` (QueryArrival or ``(arrival_s, text[, kw[,
        src]])`` tuples); returns a :class:`ServingResult`."""
        system = self.system
        ordered = sorted(
            (self._normalize(a) for a in arrivals),
            key=lambda a: a.arrival_s,
        )
        shared = Scheduler()
        if system.net.faults is not None:
            shared.install_faults(system.net.faults)
        self._shared = shared
        self._caps = {}
        self._records = []
        coalescer = FetchCoalescer() if self.coalesce else None
        self._coalescer = coalescer
        system.net.coalescer = coalescer
        meter_start = system.net.meter.snapshot()
        queued = []  # (seq, QueryArrival), arrival order
        clock = 0.0
        i = 0
        try:
            while i < len(ordered) or queued:
                if not queued:
                    clock = max(clock, ordered[i].arrival_s)
                while True:
                    # pull every query that has arrived by ``clock`` into
                    # the admission queue, then, while no slot is free,
                    # jump to the earliest provisional completion
                    while (
                        i < len(ordered)
                        and ordered[i].arrival_s <= clock + _EPS
                    ):
                        queued.append((i, ordered[i]))
                        i += 1
                    if self.max_inflight is None:
                        break
                    inflight = [
                        r for r in self._records if r.finish_s > clock + _EPS
                    ]
                    if len(inflight) < self.max_inflight:
                        break
                    clock = min(r.finish_s for r in inflight)
                seq, arrival = queued.pop(0)
                # advance the rebalance clock to the admission instant:
                # rate decay, hot-copy demotion, and migration passes all
                # happen on the same simulated timeline as serving
                system.balance.maybe_tick(clock)
                for node in system.net.nodes:
                    # LSM stores fold runs on the same serving clock the
                    # balancer ticks on; other backends have no such hook.
                    # Compaction preserves logical content, so answers stay
                    # byte-identical — only store-time accounting moves
                    compact = getattr(node.store, "maybe_compact", None)
                    if compact is not None and node.alive:
                        compact(clock)
                self._process(seq, arrival, clock)
        finally:
            system.net.coalescer = None
        records = self._records
        self._finish_observation(records)
        result = ServingResult(
            queries=records,
            max_inflight=self.max_inflight,
            coalesce=self.coalesce,
            traffic=system.net.meter.delta_since(meter_start),
            coalesced_hits=coalescer.hits if coalescer else 0,
            coalesced_bytes_saved=coalescer.bytes_saved if coalescer else 0,
        )
        self._shared = None
        self._caps = None
        self._coalescer = None
        self._records = None
        return result

    @staticmethod
    def _normalize(item):
        if isinstance(item, QueryArrival):
            return item
        if isinstance(item, (tuple, list)) and len(item) >= 2:
            return QueryArrival(
                float(item[0]),
                item[1],
                tuple(item[2]) if len(item) > 2 else (),
                int(item[3]) if len(item) > 3 else 0,
            )
        raise TypeError("not an arrival: %r" % (item,))

    # -- per-query execution ----------------------------------------------------

    def _process(self, seq, arrival, admit_s):
        """Run one query's data path serially, replay it onto the shared
        timeline, and recompute every in-flight query's provisional finish."""
        system = self.system
        executor = system.executor
        tracer = system.tracer
        pattern = (
            arrival.query_text
            if hasattr(arrival.query_text, "root")
            else system.parse(arrival.query_text, arrival.keyword_steps)
        )
        src_peer = system.peers[arrival.src]
        if self._coalescer is not None:
            self._coalescer.begin_query(seq, admit_s)
        spans_before = 0
        if tracer is not None:
            tracer.seek(admit_s)
            spans_before = len(tracer.spans)
        meter_before = system.net.meter.snapshot()
        with executor.capturing() as capture:
            answers, report = executor.run(pattern, src_peer)
        record = ServedQuery(
            seq=seq,
            arrival_s=arrival.arrival_s,
            admit_s=admit_s,
            src=arrival.src,
            query_text=arrival.query_text,
            keyword_steps=arrival.keyword_steps,
            answers=answers,
            report=report,
            traffic=system.net.meter.delta_since(meter_before),
            coalesced_fetches=(
                len(self._coalescer.joined(seq)) if self._coalescer else 0
            ),
        )
        if tracer is not None:
            for span in tracer.spans[spans_before:]:
                if span.cat == "query":
                    record.root_id = span.span_id
                    break
        record.tasks = self._replay(
            record, admit_s, capture.captured, capture.doc_peer_times, report
        )
        self._shared.run()
        for rec in self._records:
            rec.finish_s = self._shared.makespan_of(rec.tasks)
        record.finish_s = self._shared.makespan_of(record.tasks)
        if self._coalescer is not None:
            self._coalescer.refresh_finishes()
        self._records.append(record)
        return record

    def _declare(self, name, capacity):
        """Declare a shared resource, widening capacity but never
        narrowing it (different fetch paths size ingress differently)."""
        known = self._caps.get(name)
        if known is None or capacity > known:
            self._shared.add_resource(name, capacity)
            self._caps[name] = capacity

    def _replay(self, record, admit_s, captured, doc_peer_times, report):
        """Re-submit one query's captured transfer schedules onto the
        shared timeline; returns the query's shared tasks.

        Every transfer keeps its serial duration and per-schedule release
        offset, shifted to the admission instant; the query-peer ingress
        becomes ``ingress:<src>`` (shared across that peer's queries) and
        producer egress links keep their global names, which is where
        cross-query contention comes from.  Transfers a coalesced flight
        made unnecessary are dropped; the query's join instead *depends
        on* the producer's tasks.  A closing ``join`` task (on the source
        peer's CPU) carries the remainder of the serial index time, and
        per-peer document tasks (on the document peers' egress links)
        carry the document phase.

        Tasks carry their *within-query ordinal* as list-scheduling
        priority: at a contended resource, the query that has made the
        least progress goes first (ties by admission order).  That models
        a server interleaving all in-flight queries fairly — processor
        sharing — rather than granting strict admission-order priority at
        every link.  It is exactly the regime admission control protects
        against: unbounded overload drags *every* query toward the
        makespan, while a bounded in-flight set keeps completions flowing
        in admission order.  Within one query the ordinal order equals
        submission order, so an uncontended replay is schedule-identical
        to the serial private run.
        """
        shared = self._shared
        seq = record.seq
        prefix = "q%d:" % seq
        ingress_name = "ingress:%d" % record.src
        cpu_name = "cpu:%d" % record.src
        joined = self._coalescer.joined(seq) if self._coalescer else []
        drop_matchers = [_flight_matcher(f) for f in joined]
        extra_deps = []
        for flight in joined:
            extra_deps.extend(flight.tasks)
        created = []
        xfer_tasks = []
        xfer_span = 0.0
        ordinal = 0  # per-query progress rank, used as scheduling priority
        for sched, rel_extra in captured:
            caps = sched.capacities()
            span = max(
                (t.finish for t in sched.tasks if t.finish is not None),
                default=0.0,
            )
            xfer_span = max(xfer_span, rel_extra + span)
            for t in sched.tasks:
                name = t.name
                if any(match(name) for match in drop_matchers):
                    continue  # the producer's flight carries these bytes
                resources = []
                for res in t.resources:
                    if res == "ingress":
                        self._declare(ingress_name, caps.get(res, 1))
                        resources.append(ingress_name)
                    else:
                        self._declare(res, caps.get(res, 1))
                        resources.append(res)
                task = shared.add_task(
                    prefix + name,
                    t.duration,
                    resources=tuple(resources),
                    release=admit_s + rel_extra + t.release,
                    tag=seq,
                    priority=ordinal,
                )
                ordinal += 1
                created.append(task)
                xfer_tasks.append(task)
        if self._coalescer is not None:
            for flight in self._coalescer.registered(seq):
                match = _flight_matcher(flight)
                flight.tasks = [
                    t for t in created if match(t.name[len(prefix):])
                ]
                if not flight.tasks:
                    # no transfer task of its own (root / view flights):
                    # the flight completes with its receipt
                    flight.finish_s = admit_s + flight.receipt_s
        # the remainder of the serial index phase not already on the
        # timeline as transfers: twig join CPU, locate/root latencies,
        # view consults.  xfer_span is measured from the *serial* private
        # schedules, so an uncontended replay finishes at exactly
        # admit + response_time_s.
        tail = max(0.0, report.response_time_s - report.doc_time_s - xfer_span)
        self._declare(cpu_name, 1)
        join_task = shared.add_task(
            prefix + "join",
            tail,
            deps=tuple(xfer_tasks) + tuple(extra_deps),
            resources=(cpu_name,),
            release=admit_s,
            tag=seq,
            priority=ordinal,
        )
        ordinal += 1
        created.append(join_task)
        for peer_idx, peer_s in doc_peer_times:
            egress = "egress:%d" % peer_idx
            self._declare(egress, 1)
            created.append(
                shared.add_task(
                    prefix + "doc:%d" % peer_idx,
                    peer_s,
                    deps=(join_task,),
                    resources=(egress,),
                    tag=seq,
                    priority=ordinal,
                )
            )
            ordinal += 1
        return created

    # -- observation ------------------------------------------------------------

    def _finish_observation(self, records):
        """Patch traced query roots to their served extents and emit
        admission-wait spans."""
        tracer = self.system.tracer
        if tracer is not None:
            for rec in records:
                if rec.root_id is None:
                    continue
                tracer.set_duration(
                    rec.root_id,
                    rec.service_s,
                    args={
                        "arrival_s": rec.arrival_s,
                        "admit_s": rec.admit_s,
                        "queue_wait_s": rec.queue_wait_s,
                        "latency_s": rec.latency_s,
                        "coalesced_fetches": rec.coalesced_fetches,
                    },
                )
                if rec.queue_wait_s > 0:
                    tracer.add(
                        "admit:wait q%d" % rec.seq,
                        "admission",
                        "admission",
                        rec.arrival_s,
                        rec.queue_wait_s,
                        parent=rec.root_id,
                    )
