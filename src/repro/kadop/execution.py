"""Distributed query execution.

KadoP processes a query in two phases (Section 2):

1. the **index query**: posting lists (or DPP blocks, or Bloom-reduced
   lists) of the query's terms are brought to the query peer and combined
   by the holistic twig join, yielding the candidate documents;
2. the **document phase**: the query is sent to the peers holding those
   documents, which run the same join over each document's own element
   streams (:meth:`KadopPeer.evaluate`) and ship back exact answers.

This module really executes both phases (answers are exact) and, in
parallel, accounts the simulated response time with the task scheduler:
posting-list transfers compete for producer egress links and the query
peer's ingress capacity, which is how pipelining (Section 3) and the DPP's
degree-K parallel block fetches (Section 4.2) earn their speedups.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

from repro.faults import OpTimeoutError
from repro.obs.trace import observe_schedule
from repro.postings.encoder import encoded_size, encoded_size_sum
from repro.postings.plist import PostingList
from repro.postings.term_relation import label_key, word_key
from repro.query.block_join import (
    Block,
    LazyBlock,
    demand_driven_block_join,
    parallel_block_join,
)
from repro.query.index_plan import build_index_plan
from repro.query.pattern import Axis
from repro.query.twigjoin import TwigPlan, twig_join

#: small fixed cost for emitting one joined answer tuple
ANSWER_TUPLE_BYTES = 40


@dataclass(frozen=True)
class Answer:
    """One query answer: ``(p, d, e1 ... en)`` as in the paper."""

    peer: int
    doc: int
    bindings: tuple  # sorted tuple of (pattern node_id, Posting)

    @property
    def doc_id(self):
        return (self.peer, self.doc)

    def binding_of(self, node_id):
        for nid, posting in self.bindings:
            if nid == node_id:
                return posting
        raise KeyError(node_id)


@dataclass
class QueryReport:
    """Cost accounting for one query execution."""

    response_time_s: float = 0.0
    time_to_first_s: float = 0.0
    index_time_s: float = 0.0
    doc_time_s: float = 0.0
    traffic: dict = field(default_factory=dict)
    postings_fetched: int = 0
    blocks_fetched: int = 0
    blocks_skipped: int = 0
    candidate_docs: int = 0
    precise: bool = True
    chosen_strategy: str = None  # set when the optimizer ("auto") ran
    complete: bool = True  # False if a document peer timed out (Section 3)
    timed_out_peers: int = 0
    # keys whose fetch exhausted its retries under an active FaultPlan;
    # the query degrades to a partial answer instead of raising
    unreachable_keys: tuple = ()
    block_vectors: int = 0  # meaningful block vectors joined (Section 4.2)
    view_hit: bool = False  # index phase answered from a materialized view
    view_id: str = None  # id of the serving view
    view_materialized: bool = False  # this query triggered materialization

    @property
    def total_bytes(self):
        return sum(self.traffic.values())


def term_key_of(node):
    """The DHT key of a pattern node's term."""
    kind, value = node.term
    return label_key(value) if kind == "label" else word_key(value)


def _term_keys(nodes):
    """The distinct DHT keys of ``nodes``' terms, in first-use order."""
    return list(dict.fromkeys(term_key_of(node) for node in nodes))


def _by_node(nodes, per_key):
    """``{node_id: per_key[the node's term key]}`` over ``nodes``."""
    return {node.node_id: per_key[term_key_of(node)] for node in nodes}


def _root_docs(component, bindings):
    """The ``(peer, doc)`` pairs the root of ``component`` is bound in."""
    root_id = component.root.node_id
    return {(sol[root_id].peer, sol[root_id].doc) for sol in bindings}


@dataclass
class Fetched:
    """What bringing one component's lists to the query peer produced.

    Plain / pipelined ``get`` and the Bloom reducers fill the first three
    fields.  DPP eager / window adds ``counters`` and, when ordered splits
    make block vectors meaningful, ``blocks``.  DPP lazy adds ``counters``
    and ``solutions``: it ran the demand-driven block join while fetching,
    because the solutions decide which blocks are pulled.
    """

    streams: dict  # component node_id -> PostingList
    time_s: float
    ttfa_s: float  # time to first data
    blocks: dict = None  # node_id -> [Block], for the block-vector join
    solutions: tuple = None  # (bindings, block vectors considered)
    counters: tuple = None  # (blocks fetched, blocks skipped)


class QueryRun:
    """The state of one query run: created by :meth:`QueryExecutor.run` (or
    by Fundex around its index look-ups) and passed down; nothing of it is
    kept on the executor.

    ``unreachable``     what becomes the report's ``unreachable_keys``
    ``captured``        None, or the list every finished transfer schedule
                        is appended to as ``(scheduler, rel_extra)``
                        (:meth:`QueryExecutor.capturing`)
    ``doc_peer_times``  ``[(peer_index, time_s)]`` of the document phase
    ``ctx``             the trace context this run opened; None when
                        tracing is off and in a nested run (view
                        materialization), which records no phase spans:
                        its DHT ops and document peers attach to the outer
                        query's context, which stays open
    """

    __slots__ = ("unreachable", "captured", "doc_peer_times", "tracer", "ctx")

    def __init__(self, tracer=None, captured=None):
        self.unreachable = set()
        self.captured = captured
        self.doc_peer_times = []
        self.tracer = tracer
        self.ctx = None

    def flag(self, report):
        """Name the unreachable keys in ``report``; it is then incomplete."""
        if self.unreachable:
            report.unreachable_keys = tuple(sorted(self.unreachable))
            report.complete = False

    def span(self, name, cat, duration, parent=None, delay=0.0, at=None, **args):
        """Record a query-track span under ``parent`` (default: the query
        root), ``delay`` after the current phase offset or at the phase
        offset ``at``; returns its id.  A no-op returning None when this
        run opened no context."""
        ctx = self.ctx
        if ctx is None:
            return None
        start = ctx.now() + delay if at is None else ctx.base + at
        parent = ctx.root_id if parent is None else parent
        return self.tracer.add(name, cat, "query", start, duration, args, parent)

    def enter(self, span_id, offset=None):
        """Attach what follows (DHT ops, transfer tasks) under ``span_id``,
        optionally moving the phase offset."""
        ctx = self.ctx
        if ctx is not None:
            ctx.parent_id = span_id
            if offset is not None:
                ctx.offset = offset

    def close(self, span_id, duration, **args):
        """Patch a span that was opened before its children."""
        if self.ctx is not None:
            self.tracer.set_duration(span_id, duration, args)

    def peer_span(self, name, peer_idx, duration, **args):
        """Record a document peer's span under whatever query context is
        open: this run's, or the outer query's for a nested run."""
        ctx = self.tracer.context if self.tracer is not None else None
        if ctx is not None:
            track = "peer:%d" % peer_idx
            self.tracer.add(name, "doc", track, ctx.now(), duration, args, ctx.parent_id)


class QueryExecutor:
    """Runs tree-pattern queries against a KadoP network."""

    def __init__(self, system):
        self.system = system
        # the record of the open :meth:`capturing` block, if any
        self._outer = None

    # -- entry point -------------------------------------------------------------

    @contextmanager
    def capturing(self):
        """The serving engine's hand-off: yields a :class:`QueryRun`.

        Every ``run`` started inside the block appends its finished
        transfer schedules to its ``captured`` instead of feeding the
        metrics registry — the engine replays the tasks into its shared
        timeline and feeds metrics once from there, so resource counters
        are not double-counted — and leaves its per-peer document times in
        ``doc_peer_times`` (a nested run finishes first, so the query's own
        document phase is what remains)."""
        self._outer = outer = QueryRun(captured=[])
        try:
            yield outer
        finally:
            self._outer = None

    def run(self, pattern, src_peer, strategy=None):
        """Execute ``pattern`` from ``src_peer``.

        Returns ``(answers, report)``.  ``strategy`` overrides the
        configured Bloom filter strategy for this query."""
        system = self.system
        meter = system.net.meter
        snapshot = meter.snapshot()
        report = QueryReport()
        outer = self._outer
        tracer = system.tracer
        state = QueryRun(tracer, outer.captured if outer is not None else None)
        # tracing (repro.obs): purely observational span recording
        if tracer is not None and not tracer.active:
            state.ctx = tracer.begin_query(
                pattern.to_string() if hasattr(pattern, "to_string") else repr(pattern),
                args={"src_peer": src_peer.index},
            )

        plan = build_index_plan(pattern)
        report.precise = plan.precise

        view_outcome = None
        try:
            if system.views is not None:
                view_outcome = system.views.pre_query(pattern, plan, src_peer)
        except OpTimeoutError as exc:
            # view machinery unreachable: fall back to the base index path
            state.unreachable.add(exc.key)
        if view_outcome is not None and view_outcome.served:
            # the view hands us the candidate documents directly: for the
            # rest of the run, "the index phase produced these candidates
            # at this time".  The document phase below runs unchanged, so
            # answers are identical to base evaluation (and exact views
            # restore precision even for plans the index evaluates
            # imprecisely — their documents come from verified answers,
            # not from index postings)
            report.view_hit = True
            report.view_id = view_outcome.view_id
            report.view_materialized = view_outcome.materialized
            report.precise = view_outcome.exact
            report.postings_fetched = view_outcome.postings
            report.index_time_s = view_outcome.time_s
            report.time_to_first_s = view_outcome.ttfa_s
            candidate_docs = set(view_outcome.docs)
            state.span(
                "view:serve %s" % view_outcome.view_id,
                "view",
                view_outcome.time_s,
                view_id=view_outcome.view_id,
                materialized=view_outcome.materialized,
                postings=view_outcome.postings,
            )
        else:
            candidate_docs = self._index_phase(
                plan, src_peer, strategy, view_outcome, report, state
            )

        report.candidate_docs = len(candidate_docs)
        doc_span = state.span("phase:document", "phase", 0.0, at=report.index_time_s)
        state.enter(doc_span, offset=report.index_time_s)
        answers, doc_time, timed_out = self._document_phase(
            pattern, src_peer, candidate_docs, state
        )
        if outer is not None:
            outer.doc_peer_times = state.doc_peer_times
        report.timed_out_peers = timed_out
        report.complete = timed_out == 0
        report.doc_time_s = doc_time
        report.response_time_s = report.index_time_s + doc_time
        report.time_to_first_s += doc_time
        report.traffic = meter.delta_since(snapshot)
        state.flag(report)
        self._finish_observation(state, doc_span, report, answers)
        return answers, report

    # -- index phase -------------------------------------------------------------

    def _index_phase(self, plan, src_peer, strategy, view_outcome, report, state):
        """Fetch and join every component of ``plan``: returns the candidate
        ``(peer, doc)`` set and fills the report's index-phase fields."""
        view_overhead = view_outcome.overhead_s if view_outcome else 0.0
        index_span = state.span("phase:index", "phase", 0.0)
        if view_overhead:
            state.span(
                "view:consult", "view", view_overhead, index_span,
                materialized=view_outcome.materialized,
            )
        state.enter(index_span, offset=view_overhead)

        if strategy is None:
            strategy = self.system.config.filter_strategy
        candidate_docs = None
        for component in plan.components:
            try:
                docs, component_time, component_ttfa = self._index_component(
                    component, src_peer, strategy, report, state, index_span
                )
            except OpTimeoutError as exc:
                # this component's statistics, exchange or push died beyond
                # its inner recovery: skip it — the document phase verifies
                # the full pattern on whatever candidates remain, so answers
                # stay exact, just possibly incomplete
                state.unreachable.add(exc.key)
                state.enter(index_span)
                continue
            state.enter(index_span)
            report.index_time_s = max(report.index_time_s, component_time)
            report.time_to_first_s = max(report.time_to_first_s, component_ttfa)
            candidate_docs = docs if candidate_docs is None else candidate_docs & docs
            if not candidate_docs:
                break

        # the rewriter consult (and any failed materialization) happened
        # before the index fetches, so it adds serially
        report.index_time_s += view_overhead
        report.time_to_first_s += view_overhead
        state.close(index_span, report.index_time_s)
        return candidate_docs or set()

    def _index_component(self, component, src_peer, strategy, report, state, index_span):
        """Bring one component's lists to the query peer and join them:
        returns its candidate ``(peer, doc)`` set, time and time to first
        data, and fills the report's per-component fields."""
        system = self.system
        config = system.config
        component_strategy = strategy
        if strategy == "auto":
            choice = system.optimizer.choose(component, src_peer)
            component_strategy = choice.executor_strategy
            report.chosen_strategy = choice.strategy
            report.index_time_s = max(report.index_time_s, choice.stats_time_s)
            state.span(
                "optimize:%s" % choice.strategy, "optimizer",
                choice.stats_time_s, index_span, strategy=choice.strategy,
            )
        if component_strategy == "pushdown" and len(component) == 1:
            component_strategy = None  # single term: nothing to push
        # the fetch span is opened before the fetch so the DHT ops and
        # scheduler tasks inside attach to it; duration patched after.
        # Bloom-filter exchanges get their own category so the profile
        # can split reducer traffic from plain fetches.
        pushdown = component_strategy == "pushdown"
        label = component_strategy or (
            self._dpp_label() if config.use_dpp else "plain"
        )
        fetch_span = state.span(
            "fetch[%s]" % label,
            "bloom" if component_strategy and not pushdown else "fetch",
            0.0, index_span, terms=len(component),
        )
        state.enter(fetch_span)
        if pushdown:
            docs, component_time = self._pushdown_join(
                component, src_peer, report, state
            )
            state.close(fetch_span, component_time)
            return docs, component_time, component_time
        fetched = self.fetch(component, src_peer, component_strategy, state)
        join_inputs = sum(len(s) for s in fetched.streams.values())
        report.postings_fetched += join_inputs
        join_cpu = system.net.cost.join_time(join_inputs)
        state.close(fetch_span, fetched.time_s, postings=join_inputs)
        overlapped = config.pipelined_get or config.use_dpp
        state.span(
            "twig-join", "join", join_cpu, index_span,
            delay=0.0 if overlapped else fetched.time_s,
            inputs=join_inputs,
        )
        if overlapped:
            component_time = max(fetched.time_s, join_cpu)
            component_ttfa = fetched.ttfa_s + system.net.cost.join_time(
                min(config.chunk_postings, max(join_inputs, 1))
            )
        else:
            component_time = fetched.time_s + join_cpu
            component_ttfa = component_time
        if config.index_granularity == "document":
            report.precise = False  # see component_docs
        if fetched.counters is not None:
            # a forest query reports the blocks of every component
            report.blocks_fetched += fetched.counters[0]
            report.blocks_skipped += fetched.counters[1]
        docs, vectors = self.component_docs(component, fetched)
        report.block_vectors += vectors
        return docs, component_time, component_ttfa

    def component_docs(self, component, fetched):
        """The one join dispatch: the candidate ``(peer, doc)`` pairs of
        ``component`` given what :meth:`fetch` brought, plus the number of
        meaningful block vectors joined (Section 4.2)."""
        if self.system.config.index_granularity == "document":
            # coarse index (Section 8): only (p, d) is recorded, so the
            # index query degenerates to a document-id intersection —
            # complete but imprecise
            doc_sets = [set(s.doc_ids()) for s in fetched.streams.values()]
            return set.intersection(*doc_sets), 0
        if fetched.solutions is not None:
            # lazy mode already ran the demand-driven block join while
            # fetching — the solutions drove which blocks were pulled
            bindings, vectors = fetched.solutions
        elif fetched.blocks is not None:
            # the block-based parallel twig join of Section 4.2: join
            # meaningful block vectors instead of merged lists
            result = parallel_block_join(component, fetched.blocks)
            bindings, vectors = result.solutions, result.vectors_considered
        else:
            bindings, vectors = twig_join(component, fetched.streams), 0
        return _root_docs(component, bindings), vectors

    def _finish_observation(self, state, doc_span, report, answers):
        """Close the query's trace context and bump per-query counters."""
        metrics = self.system.metrics
        if metrics is not None:
            metrics.counter("queries_total").inc()
            metrics.counter("answers_total").inc(len(answers))
            if report.view_hit:
                metrics.counter("view_hits_total").inc()
            if report.blocks_fetched or report.blocks_skipped:
                metrics.counter("blocks_fetched_total").inc(report.blocks_fetched)
                metrics.counter("blocks_pruned_total").inc(report.blocks_skipped)
        if state.ctx is None:
            return
        state.close(doc_span, report.doc_time_s)
        state.tracer.end_query(
            state.ctx,
            report.response_time_s,
            args={
                "answers": len(answers),
                "candidate_docs": report.candidate_docs,
                "total_bytes": report.total_bytes,
                "strategy": report.chosen_strategy,
                "view_hit": report.view_hit,
            },
        )

    def fetch(self, component, src_peer, strategy, state):
        """Bring every node's posting list to the query peer, by Bloom reducer
        ``strategy``, DPP blocks, or plain ``get``; returns a :class:`Fetched`."""
        if strategy:
            return Fetched(
                *self.system.reducers.fetch_reduced(component, src_peer, strategy)
            )
        if self.system.config.use_dpp:
            return self._fetch_dpp(component, src_peer, state)
        return self._fetch_plain(component, src_peer, state)

    def _fetch_plain(self, component, src_peer, state):
        """One stream per term, each from the term owner (Section 3)."""
        system = self.system
        net = system.net
        config = system.config
        nodes = component.nodes()
        term_lists = {}  # key -> (list, receipt)
        holders = {}  # key -> node that actually served the fetch
        locate_time = 0.0
        for key in _term_keys(nodes):
            try:
                if config.pipelined_get:
                    chunks, receipt = net.pipelined_get(
                        src_peer.node, key, config.chunk_postings
                    )
                    plist = PostingList()
                    for chunk in chunks:
                        plist = plist.merge(chunk)
                else:
                    plist, receipt = net.get(src_peer.node, key)
                term_lists[key] = (plist, receipt)
                holders[key] = net.last_holder
            except OpTimeoutError as exc:
                # unreachable term: degrade to an empty stream (the join
                # then under-approximates; the report's unreachable_keys
                # names what was lost)
                state.unreachable.add(exc.key)
                term_lists[key] = (PostingList(), exc.receipt)
                continue
            locate_time = max(locate_time, receipt.duration_s)

        scheduler = net.transfers()
        ttfa = 0.0
        for key, (plist, receipt) in term_lists.items():
            nbytes = encoded_size(plist)
            if config.striped_replica_fetch and net.replication > 1:
                # Section 4.2: "the transfer of a posting list can be
                # optimized by replicating it and transferring fragments
                # from different copies" — one fragment per replica, each
                # on its own egress link
                replicas = net.replica_nodes(key)
                for i, holder in enumerate(replicas):
                    scheduler.carry(
                        "xfer:%s:%d" % (key, i), nbytes / len(replicas), holder.peer_index
                    )
            else:
                # charge the transfer to the node that actually served the
                # fetch (a fanned-out replica or hot extra copy under the
                # balancer; the owner otherwise), so queue-wait spans point
                # at the congested link — coalesced fetches moved no bytes
                # and keep the owner's link as their nominal egress
                holder = holders.get(key) or net.owner_of(key)
                scheduler.carry("xfer:%s" % key, nbytes, holder.peer_index)
            # the receipt's duration already covers locate + first chunk
            ttfa = max(ttfa, receipt.duration_s)
        makespan = scheduler.run()
        self._observe_schedule(state, scheduler, rel_extra=locate_time)
        streams = {n.node_id: term_lists[term_key_of(n)][0] for n in nodes}
        return Fetched(streams, locate_time + makespan, ttfa)

    def _observe_schedule(self, state, scheduler, rel_extra=0.0):
        """Hand a finished transfer schedule to the tracer/metrics.

        ``rel_extra`` is the simulated time between the current phase
        offset and the schedule's t=0 (locate/root-block latency)."""
        system = self.system
        tracer, metrics = system.tracer, system.metrics
        if state.captured is not None:
            # serving capture: the engine replays these tasks into the
            # shared timeline and feeds the metrics registry from there
            state.captured.append((scheduler, rel_extra))
            metrics = None
        if tracer is None and metrics is None:
            return
        ctx = tracer.context if tracer is not None else None
        rel_base = (ctx.offset if ctx is not None else 0.0) + rel_extra
        observe_schedule(tracer, metrics, scheduler, rel_base=rel_base)

    def _dpp_label(self):
        """The effective DPP fetch mode (for span labels and reports)."""
        config = self.system.config
        if (
            config.dpp_fetch_mode == "lazy"
            and self.system.dpp.ordered_splits
            and config.index_granularity == "element"
        ):
            return "lazy"
        return "dpp" if config.dpp_fetch_mode != "eager" else "eager"

    @staticmethod
    def _window_candidates(root, doc_lo, doc_hi, viable_types):
        """The data blocks of ``root`` that survive the ``[min, max]``
        document window and the type filter (Sections 4.2 and 4.1)."""
        if doc_hi < doc_lo:
            return []
        return [
            entry
            for entry in root.entries
            if entry.condition is not None
            and entry.condition.intersects_docs(doc_lo, doc_hi)
            and not (
                entry.types and viable_types and not (entry.types & viable_types)
            )
        ]

    def _fetch_dpp(self, component, src_peer, state):
        """DPP block retrieval, in one of the three modes of
        ``KadopConfig.dpp_fetch_mode``: eager, window, or lazy.

        Lazy mode needs ordered splits (random scattering overlaps every
        condition, so block bounds cannot guide the join) and element
        granularity (document-granularity postings carry no usable
        structure); otherwise it degrades to window behaviour.  In every
        mode ``blocks_fetched + blocks_skipped == total blocks``: a block
        that was filtered out, never demanded, or unreachable is skipped.
        """
        system = self.system
        dpp = system.dpp
        nodes = component.nodes()
        roots = {}
        root_time = 0.0
        for key in _term_keys(nodes):
            try:
                root, receipt = dpp.root(src_peer.node, key)
            except OpTimeoutError as exc:
                # unreachable root: treated like a term with no postings
                # (the missing-entries early return below), flagged in the
                # report's unreachable_keys
                state.unreachable.add(exc.key)
                roots[key] = None
                continue
            roots[key] = root
            root_time = max(root_time, receipt.duration_s)

        # the [min, max] document window of Section 4.2
        lo_docs, hi_docs = [], []
        total_blocks = 0
        for root in roots.values():
            entries = [e for e in (root.entries if root else []) if e.condition]
            if not entries:
                empty = {node.node_id: PostingList() for node in nodes}
                return Fetched(empty, root_time, root_time)
            total_blocks += len(entries)
            lo_docs.append(entries[0].condition.lo_doc)
            hi_docs.append(entries[-1].condition.hi_doc)
        doc_lo = max(lo_docs)
        doc_hi = min(hi_docs)

        # type filtering (Section 4.1): a document type can only yield
        # answers if *every* query term has postings of that type, so the
        # viable types are the intersection of the per-term type sets
        viable_types = None
        for root in roots.values():
            term_types = set()
            for entry in root.entries:
                term_types |= entry.types
            viable_types = (
                term_types if viable_types is None else viable_types & term_types
            )
        viable_types = viable_types or set()

        lazy = self._dpp_label() == "lazy"
        windowed = system.config.dpp_fetch_mode != "eager"
        # demanded fetches are charged while the join runs, on the query's
        # own clock: they cannot start before the root blocks have arrived.
        # Eager and window schedules start when the roots are in
        release = root_time if lazy else 0.0
        scheduler = system.net.transfers(system.config.parallelism)
        term_parts = {key: [] for key in roots}
        first_times = {}  # key -> transfer time of its first fetched block

        def fetch_block(key, entry):
            try:
                postings, holder, receipt = dpp.fetch_block(
                    src_peer.node, key, entry,
                    doc_lo if windowed else None,
                    doc_hi if windowed else None,
                )
            except OpTimeoutError as exc:
                # the block never arrived: the join continues with an empty
                # cursor, and the block lands on the skipped side of the
                # conservation count
                state.unreachable.add(exc.key)
                return PostingList()
            first_times.setdefault(key, receipt.duration_s)
            scheduler.transfer(
                "blk:%s:%d" % (key, entry.seq), receipt.duration_s,
                holder.peer_index, release=release,
            )
            term_parts[key].append(postings)
            return postings

        blocks = solutions = None
        if lazy:
            solutions = self._demand_driven_join(
                component, roots, doc_lo, doc_hi, viable_types, fetch_block
            )
        else:
            for key, root in roots.items():
                entries = (
                    self._window_candidates(root, doc_lo, doc_hi, viable_types)
                    if windowed
                    else [e for e in root.entries if e.condition is not None]
                )
                for entry in entries:
                    fetch_block(key, entry)
            term_blocks = {
                key: [Block(part) for part in parts if len(part)]
                for key, parts in term_parts.items()
            }
            if dpp.ordered_splits and all(term_blocks.values()):
                blocks = _by_node(nodes, term_blocks)
        makespan = scheduler.run()
        firsts = list(first_times.values())
        if lazy:
            self._observe_schedule(state, scheduler, rel_extra=0.0)
            time_s = max(root_time, makespan)
            ttfa = root_time + (firsts[0] if firsts else 0.0)
        else:
            self._observe_schedule(state, scheduler, rel_extra=root_time)
            time_s = root_time + makespan
            ttfa = root_time + max(firsts, default=0.0)
        term_lists = {k: PostingList.concat(parts) for k, parts in term_parts.items()}
        fetched = sum(len(parts) for parts in term_parts.values())
        return Fetched(
            _by_node(nodes, term_lists), time_s, ttfa,
            blocks, solutions, (fetched, total_blocks - fetched),
        )

    def _demand_driven_join(
        self, component, roots, doc_lo, doc_hi, viable_types, fetch_block
    ):
        """The lazy mode's join: candidate blocks survive the document
        window, type, and zone-map level filters; the survivors become
        :class:`LazyBlock` cursors and :func:`demand_driven_block_join`
        calls ``fetch_block(key, entry)`` only for the ones a meaningful
        vector actually reaches.  Returns ``(solutions, vectors)``."""
        nodes = component.nodes()
        # window + type pre-filter, once per unique term
        candidates = {
            key: self._window_candidates(root, doc_lo, doc_hi, viable_types)
            for key, root in roots.items()
        }
        # zone-map level pruning, per pattern edge
        keep = _by_node(nodes, candidates)
        self._zone_level_prune(keep, nodes)

        # one LazyBlock per surviving (term, block): nodes sharing a term
        # share the cursor, so a block is transferred at most once
        lazy_by_entry = {}
        lazy_per_node = {}
        for node in nodes:
            key = term_key_of(node)
            lazies = []
            for entry in keep[node.node_id]:
                cursor = lazy_by_entry.get((key, entry.seq))
                if cursor is None:
                    cond = entry.condition
                    cursor = LazyBlock(
                        max(cond.lo_doc, doc_lo),
                        min(cond.hi_doc, doc_hi),
                        partial(fetch_block, key, entry),
                        count=entry.zone.count if entry.zone else 0,
                    )
                    lazy_by_entry[(key, entry.seq)] = cursor
                lazies.append(cursor)
            lazy_per_node[node.node_id] = lazies
        result = demand_driven_block_join(component, lazy_per_node)
        return result.solutions, result.vectors_considered

    @staticmethod
    def _zone_level_bounds(entries):
        """Aggregate ``[min, max]`` tree level over candidate block zones."""
        zones = [e.zone for e in entries if e.zone is not None]
        if not zones:
            return 0, float("inf")
        return min(z.min_level for z in zones), max(z.max_level for z in zones)

    @staticmethod
    def _zone_level_prune(keep, nodes):
        """Drop candidate blocks whose level zone cannot satisfy an axis.

        For an edge ``p -[axis]-> n`` every match binds ``n`` to an element
        structurally below (or at, for descendant-or-self) *some* ``p``
        element in the same document, so across all documents:

        * CHILD:      ``n.level == p.level + 1`` exactly (the axis
                      predicate itself checks this);
        * DESCENDANT: ``n.level >= p.level + 1`` (containment in a
                      well-formed tree implies a strictly deeper level);
        * DESC-OR-SELF: ``n.level >= p.level``.

        A block all of whose levels fall outside what the other side's
        blocks can pair with is pruned.  Bounds are zone aggregates, hence
        conservative; one pass per edge (no fixpoint needed for soundness).
        """
        inf = float("inf")
        for parent in nodes:
            for child in parent.children:
                exact = child.axis is Axis.CHILD
                gap = 0 if child.axis is Axis.DESCENDANT_OR_SELF else 1
                p_lo, p_hi = QueryExecutor._zone_level_bounds(keep[parent.node_id])
                c_lo, c_hi = QueryExecutor._zone_level_bounds(keep[child.node_id])
                # the level range each side's blocks must reach into
                for node_id, lo, hi in (
                    (child.node_id, p_lo + gap, p_hi + gap if exact else inf),
                    (parent.node_id, c_lo - gap if exact else -inf, c_hi - gap),
                ):
                    keep[node_id] = [
                        e for e in keep[node_id]
                        if e.zone is None
                        or (e.zone.max_level >= lo and e.zone.min_level <= hi)
                    ]

    # -- join pushdown (Section 4.2) ----------------------------------------------

    def _pushdown_join(self, component, src_peer, report, state):
        """Ship the *small* lists to the peer holding the longest one and
        join there; only the join results travel back.

        "Some structural joins could be pushed to the peer holding the
        longest posting list involved in the query, thus reducing data
        transfers" (Section 4.2).  Returns ``(candidate_docs, time_s)``.
        """
        net = self.system.net
        nodes = component.nodes()
        term_lists = {}
        owners = {}
        locate_time = 0.0
        for key in _term_keys(nodes):
            try:
                owner, receipt = net.locate(src_peer.node, key)
            except OpTimeoutError as exc:
                # unreachable term: joins against an empty list at the
                # host; named in the report's unreachable_keys
                state.unreachable.add(exc.key)
                owners[key] = src_peer.node
                term_lists[key] = PostingList()
                continue
            owners[key] = owner
            term_lists[key] = owner.store.get(key)
            locate_time = max(locate_time, receipt.duration_s)

        host_key = max(term_lists, key=lambda k: len(term_lists[k]))

        # the other lists travel to the host (parallel, host-ingress bound)
        scheduler = net.transfers()
        for key, plist in term_lists.items():
            if key == host_key:
                continue  # already local to the host
            seconds = net.ship(key, encoded_size(plist), "postings")
            report.postings_fetched += len(plist)
            scheduler.transfer("push:%s" % key, seconds, owners[key].peer_index)
        transfer_time = scheduler.run()
        self._observe_schedule(state, scheduler, rel_extra=locate_time)

        # the host runs the twig join locally over its own (disk) list
        streams = _by_node(nodes, term_lists)
        report.postings_fetched += len(term_lists[host_key])
        bindings = twig_join(component, streams)
        join_time = net.cost.join_time(sum(len(s) for s in streams.values()))

        # only the join results return to the query peer
        result_postings = sorted(
            {posting for sol in bindings for posting in sol.values()}
        )
        result_bytes = encoded_size(result_postings) + ANSWER_TUPLE_BYTES
        ship_time = net.ship(host_key, result_bytes, "postings")

        docs = _root_docs(component, bindings)
        return docs, locate_time + transfer_time + join_time + ship_time

    # -- document phase -------------------------------------------------------------

    def _document_phase(self, pattern, src_peer, candidate_docs, state):
        """Ship the query to document peers, collect exact answers.

        A candidate peer that left the network, or whose query or answers
        were lost for good, is detected by timeout (Section 3): its
        documents' answers are missing and the result is flagged
        incomplete.  Returns ``(answers, doc_time_s, timed_out)``
        and leaves the per-peer times in ``state.doc_peer_times``.
        """
        system = self.system
        net = system.net
        timeout_s = 4 * net.cost.params.hop_latency_s
        by_peer = {}
        for peer_idx, doc_idx in sorted(candidate_docs):
            # functional documents (Section 6) are index-only, never answers
            if doc_idx in system.peers[peer_idx].functional_docs:
                continue
            by_peer.setdefault(peer_idx, []).append(doc_idx)

        answers = []
        doc_peer_times = state.doc_peer_times
        timed_out = 0
        # one join plan per query, shared by every candidate document; no
        # membership change happens inside the loop, so one hop estimate
        plan = TwigPlan(pattern)
        hops = net.cost.expected_hops(len(net.alive_nodes()))
        for peer_idx, doc_indexes in by_peer.items():
            peer = system.peers[peer_idx]
            peer_time = None
            if peer.node.alive:
                found = []
                sent = []  # each answer's sorted postings, sized in one call
                for doc_idx in doc_indexes:
                    if doc_idx not in peer.documents:
                        # a candidate the peer no longer holds: an
                        # unpublished document whose postings linger
                        # somewhere (a stale view block awaiting its delta,
                        # or a resurrected index copy from a crash-restarted
                        # replica).  The document peer simply answers "no
                        # such document", keeping answers sound under
                        # update-heavy churn
                        continue
                    for postings, _incomplete in peer.evaluate(pattern, doc_idx, plan=plan):
                        found.append(
                            Answer(peer_idx, doc_idx, tuple(sorted(postings.items())))
                        )
                        sent.append(sorted(postings.values()))
                matched = len(sent)
                sent_bytes = ANSWER_TUPLE_BYTES * matched + encoded_size_sum(sent)
                uri = peer.node.uri
                try:
                    # query shipping + answer return, one round trip per doc peer
                    peer_time = net.ship(uri, 64, "control", hops=hops) + net.ship(
                        uri, sent_bytes, "documents"
                    )
                except OpTimeoutError:
                    pass  # the query or the answers were lost for good
            if peer_time is None:
                # a peer that left the network, or whose messages never
                # got through, is detected by timeout (Section 3)
                timed_out += 1
                doc_peer_times.append((peer_idx, timeout_s))
                state.peer_span(
                    "doc:timeout peer%d" % peer_idx, peer_idx, timeout_s,
                    timed_out=True, peer=peer_idx, docs=len(doc_indexes),
                )
                continue
            answers.extend(found)
            doc_peer_times.append((peer_idx, peer_time))
            state.peer_span(
                "doc:peer%d" % peer_idx,
                peer_idx,
                peer_time,
                peer=peer_idx,
                docs=len(doc_indexes),
                answers=matched,
                bytes=sent_bytes,
                # the query-ship round trip metered just above, so EXPLAIN
                # can attribute it to this doc peer exactly
                control_bytes=64 * hops,
            )
        doc_time = max((time_s for _, time_s in doc_peer_times), default=0.0)
        answers.sort(key=attrgetter("peer", "doc", "bindings"))
        return answers, doc_time, timed_out
