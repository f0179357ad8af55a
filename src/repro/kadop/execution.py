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

from dataclasses import dataclass, field

from repro.faults import OpTimeoutError
from repro.obs.trace import observe_schedule
from repro.postings.encoder import encoded_size
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
from repro.sim.tasks import Scheduler

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


def _root_docs(component, bindings):
    """The ``(peer, doc)`` pairs the root of ``component`` is bound in."""
    root_id = component.root.node_id
    return {(sol[root_id].peer, sol[root_id].doc) for sol in bindings}


class QueryExecutor:
    """Runs tree-pattern queries against a KadoP network."""

    def __init__(self, system):
        self.system = system
        # serving-engine capture (repro.kadop.serving): when not None, every
        # finished transfer schedule is appended as ``(scheduler, rel_extra)``
        # instead of being fed to the metrics registry — the engine replays
        # the tasks into its shared timeline and feeds metrics once from
        # there, so resource counters are not double-counted
        self._capture = None
        # per-peer document-phase times of the most recent run, as
        # ``[(peer_index, time_s)]`` — the serving engine turns these into
        # per-peer egress tasks on the shared timeline
        self._last_doc_peer_times = None
        # what the DPP fetch of the current component left for the join
        # (eager/window: the blocks; lazy: the solutions it already
        # joined) and its block counters; consumed and reset by ``run``
        self._last_dpp_blocks = None
        self._last_dpp_solutions = None
        self._last_dpp_counters = None

    # -- entry point -------------------------------------------------------------

    def run(self, pattern, src_peer, strategy=None):
        """Execute ``pattern`` from ``src_peer``.

        Returns ``(answers, report)``.  ``strategy`` overrides the
        configured Bloom filter strategy for this query."""
        system = self.system
        config = system.config
        meter = system.net.meter
        snapshot = meter.snapshot()
        report = QueryReport()
        # keys that timed out under an active FaultPlan this run; a nested
        # run (view materialization) resets and drains it for its own
        # report before control returns here
        self._unreachable = set()

        # tracing (repro.obs): purely observational span recording.  A
        # nested run (view materialization) keeps the outer query context —
        # its DHT ops attach there — rather than opening a second root.
        tracer = system.tracer
        ctx = None
        if tracer is not None and not tracer.active:
            ctx = tracer.begin_query(
                pattern.to_string() if hasattr(pattern, "to_string") else repr(pattern),
                args={"src_peer": src_peer.index},
            )

        plan = build_index_plan(pattern)
        report.precise = plan.precise

        try:
            view_outcome = (
                system.views.pre_query(pattern, plan, src_peer)
                if system.views is not None
                else None
            )
        except OpTimeoutError as exc:
            # view machinery unreachable: fall back to the base index path
            self._unreachable.add(exc.key)
            view_outcome = None
        if view_outcome is not None and view_outcome.served:
            # the view hands us the candidate documents directly; the
            # document phase below runs unchanged, so answers are identical
            # to base evaluation (and exact views restore precision even
            # for plans the index evaluates imprecisely — their documents
            # come from verified answers, not from index postings)
            report.view_hit = True
            report.view_id = view_outcome.view_id
            report.view_materialized = view_outcome.materialized
            report.precise = view_outcome.exact
            report.postings_fetched = view_outcome.postings
            report.index_time_s = view_outcome.time_s
            report.time_to_first_s = view_outcome.ttfa_s
            candidate_docs = set(view_outcome.docs)
            report.candidate_docs = len(candidate_docs)
            doc_span = None
            if ctx is not None:
                tracer.add(
                    "view:serve %s" % view_outcome.view_id,
                    "view",
                    "query",
                    ctx.base,
                    view_outcome.time_s,
                    args={
                        "view_id": view_outcome.view_id,
                        "materialized": view_outcome.materialized,
                        "postings": view_outcome.postings,
                    },
                    parent=ctx.root_id,
                )
                doc_span = tracer.add(
                    "phase:document",
                    "phase",
                    "query",
                    ctx.base + report.index_time_s,
                    0.0,
                    parent=ctx.root_id,
                )
                ctx.offset = report.index_time_s
                ctx.parent_id = doc_span
            answers, doc_time, timed_out = self._document_phase(
                pattern, src_peer, candidate_docs
            )
            report.timed_out_peers = timed_out
            report.complete = timed_out == 0
            report.doc_time_s = doc_time
            report.response_time_s = report.index_time_s + doc_time
            report.time_to_first_s += doc_time
            report.traffic = meter.delta_since(snapshot)
            self._finish_observation(ctx, doc_span, report, answers)
            return answers, report
        view_overhead = view_outcome.overhead_s if view_outcome else 0.0

        index_span = None
        if ctx is not None:
            index_span = tracer.add(
                "phase:index", "phase", "query", ctx.base, 0.0, parent=ctx.root_id
            )
            if view_outcome is not None and view_outcome.overhead_s:
                tracer.add(
                    "view:consult",
                    "view",
                    "query",
                    ctx.base,
                    view_outcome.overhead_s,
                    args={"materialized": view_outcome.materialized},
                    parent=index_span,
                )
            ctx.offset = view_overhead
            ctx.parent_id = index_span

        strategy = strategy if strategy is not None else config.filter_strategy
        candidate_docs = set()
        first = True
        for component, node_map in zip(plan.components, plan.node_maps):
            component_strategy = strategy
            if strategy == "auto":
                choice = system.optimizer.choose(component, src_peer)
                component_strategy = choice.executor_strategy
                report.chosen_strategy = choice.strategy
                report.index_time_s = max(report.index_time_s, choice.stats_time_s)
                if ctx is not None:
                    tracer.add(
                        "optimize:%s" % choice.strategy,
                        "optimizer",
                        "query",
                        ctx.now(),
                        choice.stats_time_s,
                        args={"strategy": choice.strategy},
                        parent=index_span,
                    )
            if component_strategy == "pushdown" and len(component) > 1:
                push_span = None
                if ctx is not None:
                    push_span = tracer.add(
                        "fetch[pushdown]",
                        "fetch",
                        "query",
                        ctx.now(),
                        0.0,
                        args={"terms": len(component)},
                        parent=index_span,
                    )
                    ctx.parent_id = push_span
                docs, push_time = self._pushdown_join(component, src_peer, report)
                report.index_time_s = max(report.index_time_s, push_time)
                report.time_to_first_s = max(report.time_to_first_s, push_time)
                if ctx is not None:
                    tracer.set_duration(push_span, push_time)
                    ctx.parent_id = index_span
                if first:
                    candidate_docs = docs
                    first = False
                else:
                    candidate_docs &= docs
                if not candidate_docs:
                    break
                continue
            if component_strategy == "pushdown":
                component_strategy = None  # single term: nothing to push
            fetch_span = None
            if ctx is not None:
                # opened before the fetch so the DHT ops and scheduler
                # tasks inside attach to it; duration patched after.
                # Bloom-filter exchanges get their own category so the
                # profile can split reducer traffic from plain fetches.
                label = component_strategy or (
                    self._dpp_label() if config.use_dpp else "plain"
                )
                fetch_span = tracer.add(
                    "fetch[%s]" % label,
                    "bloom" if component_strategy else "fetch",
                    "query",
                    ctx.now(),
                    0.0,
                    args={"terms": len(component)},
                    parent=index_span,
                )
                ctx.parent_id = fetch_span
            try:
                streams, fetch_time, ttfa = self._fetch_streams(
                    component, src_peer, component_strategy
                )
            except OpTimeoutError as exc:
                # this component's fetch died beyond its inner recovery
                # (e.g. a reducer exchange): skip it — the document phase
                # verifies the full pattern on whatever candidates remain,
                # so answers stay exact, just possibly incomplete
                self._unreachable.add(exc.key)
                if ctx is not None:
                    ctx.parent_id = index_span
                continue
            join_inputs = sum(len(s) for s in streams.values())
            report.postings_fetched += join_inputs
            join_cpu = system.net.cost.join_time(join_inputs)
            if ctx is not None:
                tracer.set_duration(
                    fetch_span, fetch_time, args={"postings": join_inputs}
                )
                ctx.parent_id = index_span
                join_start = (
                    ctx.now()
                    if (config.pipelined_get or config.use_dpp)
                    else ctx.now() + fetch_time
                )
                tracer.add(
                    "twig-join",
                    "join",
                    "query",
                    join_start,
                    join_cpu,
                    args={"inputs": join_inputs},
                    parent=index_span,
                )
            if config.pipelined_get or config.use_dpp:
                component_time = max(fetch_time, join_cpu)
                component_ttfa = ttfa + system.net.cost.join_time(
                    min(config.chunk_postings, max(join_inputs, 1))
                )
            else:
                component_time = fetch_time + join_cpu
                component_ttfa = component_time
            report.index_time_s = max(report.index_time_s, component_time)
            report.time_to_first_s = max(report.time_to_first_s, component_ttfa)

            dpp_blocks = self._last_dpp_blocks
            self._last_dpp_blocks = None
            dpp_solutions = self._last_dpp_solutions
            self._last_dpp_solutions = None
            if config.index_granularity == "document":
                # coarse index (Section 8): only (p, d) is recorded, so the
                # index query degenerates to a document-id intersection —
                # complete but imprecise
                report.precise = False
                docs = None
                for stream in streams.values():
                    stream_docs = set(stream.doc_ids())
                    docs = stream_docs if docs is None else docs & stream_docs
                docs = docs or set()
            elif dpp_solutions is not None:
                # lazy mode already ran the demand-driven block join while
                # fetching — the solutions drove which blocks were pulled
                bindings, vectors = dpp_solutions
                report.block_vectors += vectors
                docs = _root_docs(component, bindings)
            elif dpp_blocks is not None:
                # the block-based parallel twig join of Section 4.2: join
                # meaningful block vectors instead of merged lists
                result = parallel_block_join(component, dpp_blocks)
                report.block_vectors += result.vectors_considered
                docs = _root_docs(component, result.solutions)
            else:
                docs = _root_docs(component, twig_join(component, streams))
            if first:
                candidate_docs = docs
                first = False
            else:
                candidate_docs &= docs
            if not candidate_docs:
                break

        # the rewriter consult (and any failed materialization) happened
        # before the index fetches, so it adds serially
        report.index_time_s += view_overhead
        report.time_to_first_s += view_overhead
        report.candidate_docs = len(candidate_docs)
        doc_span = None
        if ctx is not None:
            tracer.set_duration(index_span, report.index_time_s)
            doc_span = tracer.add(
                "phase:document",
                "phase",
                "query",
                ctx.base + report.index_time_s,
                0.0,
                parent=ctx.root_id,
            )
            ctx.offset = report.index_time_s
            ctx.parent_id = doc_span
        answers, doc_time, timed_out = self._document_phase(
            pattern, src_peer, candidate_docs
        )
        report.timed_out_peers = timed_out
        report.complete = timed_out == 0
        report.doc_time_s = doc_time
        report.response_time_s = report.index_time_s + doc_time
        report.time_to_first_s += doc_time
        report.traffic = meter.delta_since(snapshot)
        self._merge_dpp_counters(report)
        self._finish_observation(ctx, doc_span, report, answers)
        return answers, report

    def _finish_observation(self, ctx, doc_span, report, answers):
        """Close the query's trace context and bump per-query counters.

        Also the single merge point (both exits of :meth:`run` pass here)
        for graceful degradation: keys whose fetch timed out under a
        FaultPlan land in the report instead of raising."""
        unreachable = getattr(self, "_unreachable", None)
        if unreachable:
            report.unreachable_keys = tuple(sorted(unreachable))
            report.complete = False
        self._unreachable = set()
        system = self.system
        if system.metrics is not None:
            system.metrics.counter("queries_total").inc()
            system.metrics.counter("answers_total").inc(len(answers))
            if report.view_hit:
                system.metrics.counter("view_hits_total").inc()
            if report.blocks_fetched or report.blocks_skipped:
                system.metrics.counter("blocks_fetched_total").inc(
                    report.blocks_fetched
                )
                system.metrics.counter("blocks_pruned_total").inc(
                    report.blocks_skipped
                )
        if ctx is None:
            return
        tracer = system.tracer
        if doc_span is not None:
            tracer.set_duration(doc_span, report.doc_time_s)
        tracer.end_query(
            ctx,
            report.response_time_s,
            args={
                "answers": len(answers),
                "candidate_docs": report.candidate_docs,
                "total_bytes": report.total_bytes,
                "strategy": report.chosen_strategy,
                "view_hit": report.view_hit,
            },
        )

    def _merge_dpp_counters(self, report):
        counters = self._last_dpp_counters
        if counters:
            report.blocks_fetched, report.blocks_skipped = counters
        self._last_dpp_counters = None

    # -- index phase -------------------------------------------------------------

    def _fetch_streams(self, component, src_peer, strategy):
        """Bring every node's posting list to the query peer.

        Returns ``(streams, fetch_time_s, time_to_first_data_s)``."""
        if strategy:
            return self.system.reducers.fetch_reduced(
                component, src_peer, strategy
            )
        if self.system.config.use_dpp:
            return self._fetch_dpp(component, src_peer)
        return self._fetch_plain(component, src_peer)

    def _ingress_slots(self):
        cost = self.system.net.cost.params
        return max(1, int(cost.ingress_bw / cost.egress_bw))

    def _scheduler(self):
        """A transfer scheduler wired to the network's FaultPlan (if any),
        so bulk transfers see the plan's deterministic link jitter."""
        scheduler = Scheduler()
        plan = self.system.net.faults
        if plan is not None:
            scheduler.install_faults(plan)
        return scheduler

    def _fetch_plain(self, component, src_peer):
        """One stream per term, each from the term owner (Section 3)."""
        system = self.system
        net = system.net
        config = system.config
        streams = {}
        term_lists = {}
        holders = {}  # key -> node that actually served the fetch
        locate_time = 0.0
        for node in component.nodes():
            key = term_key_of(node)
            if key not in term_lists:
                try:
                    if config.pipelined_get:
                        chunks, receipt = net.pipelined_get(
                            src_peer.node, key, config.chunk_postings
                        )
                        merged = PostingList()
                        for chunk in chunks:
                            merged = merged.merge(chunk)
                        term_lists[key] = (merged, receipt)
                    else:
                        plist, receipt = net.get(src_peer.node, key)
                        term_lists[key] = (plist, receipt)
                    holders[key] = net.last_holder
                except OpTimeoutError as exc:
                    # unreachable term: degrade to an empty stream (the
                    # join then under-approximates; the report's
                    # unreachable_keys names what was lost)
                    self._unreachable.add(exc.key)
                    term_lists[key] = (PostingList(), exc.receipt)
                    streams[node.node_id] = term_lists[key][0]
                    continue
                locate_time = max(locate_time, receipt.duration_s)
            streams[node.node_id] = term_lists[key][0]

        scheduler = self._scheduler()
        ingress = scheduler.add_resource("ingress", self._ingress_slots())
        ttfa = 0.0
        for key, (plist, receipt) in term_lists.items():
            nbytes = encoded_size(plist)
            if config.striped_replica_fetch and net.replication > 1:
                # Section 4.2: "the transfer of a posting list can be
                # optimized by replicating it and transferring fragments
                # from different copies" — one fragment per replica, each
                # on its own egress link
                replicas = net.replica_nodes(key)
                fragment = net.cost.transfer_time(
                    nbytes / len(replicas), hops=1
                )
                for i, holder in enumerate(replicas):
                    egress = "egress:%d" % holder.peer_index
                    if not scheduler.has_resource(egress):
                        scheduler.add_resource(egress, 1)
                    scheduler.add_task(
                        "xfer:%s:%d" % (key, i),
                        fragment,
                        resources=(egress, ingress),
                    )
            else:
                # charge the transfer to the node that actually served the
                # fetch (a fanned-out replica or hot extra copy under the
                # balancer; the owner otherwise), so queue-wait spans point
                # at the congested link — coalesced fetches moved no bytes
                # and keep the owner's link as their nominal egress
                holder = holders.get(key) or net.owner_of(key)
                egress = "egress:%d" % holder.peer_index
                if not scheduler.has_resource(egress):
                    scheduler.add_resource(egress, 1)
                scheduler.add_task(
                    "xfer:%s" % key,
                    net.cost.transfer_time(nbytes, hops=1),
                    resources=(egress, ingress),
                )
            # the receipt's duration already covers locate + first chunk
            ttfa = max(ttfa, receipt.duration_s)
        makespan = scheduler.run()
        self._observe_schedule(scheduler, rel_extra=locate_time)
        return streams, locate_time + makespan, ttfa

    def _observe_schedule(self, scheduler, rel_extra=0.0):
        """Hand a finished transfer schedule to the tracer/metrics.

        ``rel_extra`` is the simulated time between the current phase
        offset and the schedule's t=0 (locate/root-block latency)."""
        system = self.system
        tracer, metrics = system.tracer, system.metrics
        if self._capture is not None:
            # serving capture: the engine replays these tasks into the
            # shared timeline and feeds the metrics registry from there
            self._capture.append((scheduler, rel_extra))
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

    def _fetch_dpp(self, component, src_peer):
        """DPP block retrieval, in one of three modes (``dpp_fetch_mode``):

        ``eager``   fetch every block of every term, unfiltered — the
                    baseline the ablation compares against;
        ``window``  the paper's Section 4.2 ``[min, max]`` document window
                    plus type filtering, fetching every surviving block;
        ``lazy``    window + zone-map pruning, then *demand-driven*
                    fetching: blocks are handed to the block join as
                    unfetched cursors and transferred only when a
                    meaningful vector reaches their document range.

        Lazy mode needs ordered splits (random scattering overlaps every
        condition, so block bounds cannot guide the join) and element
        granularity (document-granularity postings carry no usable
        structure); otherwise it degrades to window behaviour.
        """
        system = self.system
        net = system.net
        dpp = system.dpp
        config = system.config

        nodes = component.nodes()
        roots = {}
        root_time = 0.0
        for node in nodes:
            key = term_key_of(node)
            if key in roots:
                continue
            try:
                root, receipt = dpp.root(src_peer.node, key)
            except OpTimeoutError as exc:
                # unreachable root: treated like a term with no postings
                # (the missing-entries early return below), flagged in the
                # report's unreachable_keys
                self._unreachable.add(exc.key)
                roots[key] = None
                continue
            roots[key] = root
            root_time = max(root_time, receipt.duration_s)

        # the [min, max] document window of Section 4.2
        lo_docs, hi_docs = [], []
        for root in roots.values():
            entries = [e for e in (root.entries if root else []) if e.condition]
            if not entries:
                return (
                    {node.node_id: PostingList() for node in nodes},
                    root_time,
                    root_time,
                )
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
            if viable_types is None:
                viable_types = set(term_types)
            else:
                viable_types &= term_types
        viable_types = viable_types or set()

        if self._dpp_label() == "lazy":
            return self._fetch_dpp_lazy(
                component, src_peer, roots, root_time,
                doc_lo, doc_hi, viable_types,
            )

        use_window = config.dpp_fetch_mode != "eager"
        scheduler = self._scheduler()
        ingress = scheduler.add_resource("ingress", config.parallelism)
        fetched, skipped = 0, 0
        term_lists = {}
        term_blocks = {}
        ttfa = root_time
        for key, root in roots.items():
            parts = []
            blocks = []
            first_block_time = None
            for entry in root.entries:
                if entry.condition is None:
                    continue
                if use_window:
                    if doc_hi < doc_lo or not entry.condition.intersects_docs(
                        doc_lo, doc_hi
                    ):
                        skipped += 1
                        continue
                    if entry.types and viable_types and not (
                        entry.types & viable_types
                    ):
                        skipped += 1
                        continue
                try:
                    postings, holder, receipt = dpp.fetch_block(
                        src_peer.node, key, entry,
                        doc_lo if use_window else None,
                        doc_hi if use_window else None,
                    )
                except OpTimeoutError as exc:
                    # an unreachable block counts as skipped so the
                    # blocks_fetched + blocks_skipped conservation holds
                    self._unreachable.add(exc.key)
                    skipped += 1
                    continue
                fetched += 1
                parts.append(postings)
                if len(postings):
                    blocks.append(Block(postings))
                egress = "egress:%d" % holder.peer_index
                if not scheduler.has_resource(egress):
                    scheduler.add_resource(egress, 1)
                scheduler.add_task(
                    "blk:%s:%d" % (key, entry.seq),
                    receipt.duration_s,
                    resources=(egress, ingress),
                )
                if first_block_time is None:
                    first_block_time = receipt.duration_s
            term_lists[key] = PostingList.concat(parts)
            term_blocks[key] = blocks
            if first_block_time is not None:
                ttfa = max(ttfa, root_time + first_block_time)
        makespan = scheduler.run()
        self._observe_schedule(scheduler, rel_extra=root_time)
        self._last_dpp_counters = (fetched, skipped)
        streams = {
            node.node_id: term_lists[term_key_of(node)] for node in nodes
        }
        if dpp.ordered_splits and all(term_blocks.values()):
            self._last_dpp_blocks = {
                node.node_id: term_blocks[term_key_of(node)] for node in nodes
            }
        return streams, root_time + makespan, ttfa

    @staticmethod
    def _zone_level_bounds(entries):
        """Aggregate ``[min, max]`` tree level over candidate block zones."""
        levels = [
            (e.zone.min_level, e.zone.max_level)
            for e in entries
            if e.zone is not None
        ]
        if not levels:
            return 0, float("inf")
        return min(lo for lo, _ in levels), max(hi for _, hi in levels)

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
        for parent in nodes:
            for child in parent.children:
                axis = child.axis
                p_lo, p_hi = QueryExecutor._zone_level_bounds(keep[parent.node_id])
                c_lo, c_hi = QueryExecutor._zone_level_bounds(keep[child.node_id])
                if axis is Axis.CHILD:
                    child_ok = lambda z: (  # noqa: E731
                        z.max_level >= p_lo + 1 and z.min_level <= p_hi + 1
                    )
                    parent_ok = lambda z: (  # noqa: E731
                        z.max_level >= c_lo - 1 and z.min_level <= c_hi - 1
                    )
                elif axis is Axis.DESCENDANT:
                    child_ok = lambda z: z.max_level >= p_lo + 1  # noqa: E731
                    parent_ok = lambda z: z.min_level <= c_hi - 1  # noqa: E731
                else:  # DESCENDANT_OR_SELF
                    child_ok = lambda z: z.max_level >= p_lo  # noqa: E731
                    parent_ok = lambda z: z.min_level <= c_hi  # noqa: E731
                keep[child.node_id] = [
                    e for e in keep[child.node_id]
                    if e.zone is None or child_ok(e.zone)
                ]
                keep[parent.node_id] = [
                    e for e in keep[parent.node_id]
                    if e.zone is None or parent_ok(e.zone)
                ]

    def _fetch_dpp_lazy(
        self, component, src_peer, roots, root_time, doc_lo, doc_hi, viable_types
    ):
        """Zone-map–pruned, demand-driven block fetching (the lazy mode).

        Candidate blocks survive the document window, type, and zone-map
        level filters; the survivors become :class:`LazyBlock` cursors and
        :func:`demand_driven_block_join` fetches only the ones a meaningful
        vector actually reaches.  Fetches are charged to the scheduler as
        they are demanded, released at ``root_time`` (they cannot start
        before the root blocks have arrived); accounting holds
        ``blocks_fetched + blocks_skipped == total blocks`` with every
        never-fetched block counted as skipped.
        """
        system = self.system
        net = system.net
        dpp = system.dpp
        config = system.config
        nodes = component.nodes()

        total_entries = sum(
            sum(1 for e in root.entries if e.condition is not None)
            for root in roots.values()
        )

        # window + type pre-filter, once per unique term
        candidates = {}
        for key, root in roots.items():
            cands = []
            for entry in root.entries:
                if entry.condition is None:
                    continue
                if doc_hi < doc_lo or not entry.condition.intersects_docs(
                    doc_lo, doc_hi
                ):
                    continue
                if entry.types and viable_types and not (
                    entry.types & viable_types
                ):
                    continue
                cands.append(entry)
            candidates[key] = cands

        # zone-map level pruning, per pattern edge
        keep = {
            node.node_id: list(candidates[term_key_of(node)]) for node in nodes
        }
        self._zone_level_prune(keep, nodes)

        scheduler = self._scheduler()
        ingress = scheduler.add_resource("ingress", config.parallelism)
        term_parts = {key: [] for key in roots}
        state = {"fetched": 0, "first": None}

        def make_loader(key, entry):
            def load():
                try:
                    postings, holder, receipt = dpp.fetch_block(
                        src_peer.node, key, entry, doc_lo, doc_hi
                    )
                except OpTimeoutError as exc:
                    # the demanded block never arrived: the join continues
                    # with an empty cursor and, because ``fetched`` is not
                    # bumped, the block lands on the skipped side of the
                    # conservation count
                    self._unreachable.add(exc.key)
                    return PostingList()
                state["fetched"] += 1
                if state["first"] is None:
                    state["first"] = receipt.duration_s
                egress = "egress:%d" % holder.peer_index
                if not scheduler.has_resource(egress):
                    scheduler.add_resource(egress, 1)
                scheduler.add_task(
                    "blk:%s:%d" % (key, entry.seq),
                    receipt.duration_s,
                    resources=(egress, ingress),
                    release=root_time,
                )
                term_parts[key].append(postings)
                return postings

            return load

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
                        make_loader(key, entry),
                        count=entry.zone.count if entry.zone else 0,
                    )
                    lazy_by_entry[(key, entry.seq)] = cursor
                lazies.append(cursor)
            lazy_per_node[node.node_id] = lazies

        result = demand_driven_block_join(component, lazy_per_node)

        makespan = scheduler.run()
        fetch_time = max(root_time, makespan)
        self._observe_schedule(scheduler, rel_extra=0.0)
        fetched = state["fetched"]
        self._last_dpp_counters = (fetched, total_entries - fetched)
        self._last_dpp_solutions = (
            result.solutions, result.vectors_considered
        )
        term_lists = {
            key: PostingList.concat(parts) for key, parts in term_parts.items()
        }
        streams = {
            node.node_id: term_lists[term_key_of(node)] for node in nodes
        }
        ttfa = root_time + (state["first"] or 0.0)
        return streams, fetch_time, ttfa

    # -- join pushdown (Section 4.2) ----------------------------------------------

    def _pushdown_join(self, component, src_peer, report):
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
        for node in nodes:
            key = term_key_of(node)
            if key not in term_lists:
                try:
                    owner, receipt = net.locate(src_peer.node, key)
                except OpTimeoutError as exc:
                    # unreachable term: joins against an empty list at the
                    # host; named in the report's unreachable_keys
                    self._unreachable.add(exc.key)
                    owners[key] = src_peer.node
                    term_lists[key] = PostingList()
                    continue
                owners[key] = owner
                term_lists[key] = owner.store.get(key)
                locate_time = max(locate_time, receipt.duration_s)

        host_key = max(term_lists, key=lambda k: len(term_lists[k]))
        host = owners[host_key]

        # the other lists travel to the host (parallel, host-ingress bound)
        scheduler = self._scheduler()
        ingress = scheduler.add_resource("ingress", self._ingress_slots())
        for key, plist in term_lists.items():
            if key == host_key:
                continue  # already local to the host
            nbytes = encoded_size(plist)
            net.meter.record("postings", nbytes)
            report.postings_fetched += len(plist)
            egress = "egress:%d" % owners[key].peer_index
            if not scheduler.has_resource(egress):
                scheduler.add_resource(egress, 1)
            scheduler.add_task(
                "push:%s" % key,
                net.cost.transfer_time(nbytes, hops=1),
                resources=(egress, ingress),
            )
        transfer_time = scheduler.run()
        self._observe_schedule(scheduler, rel_extra=locate_time)

        # the host runs the twig join locally over its own (disk) list
        streams = {
            node.node_id: term_lists[term_key_of(node)] for node in nodes
        }
        report.postings_fetched += len(term_lists[host_key])
        bindings = twig_join(component, streams)
        join_time = net.cost.join_time(sum(len(s) for s in streams.values()))

        # only the join results return to the query peer
        result_postings = sorted(
            {posting for sol in bindings for posting in sol.values()}
        )
        result_bytes = encoded_size(result_postings) + ANSWER_TUPLE_BYTES
        net.meter.record("postings", result_bytes)
        ship_time = net.cost.transfer_time(result_bytes, hops=1)

        docs = {
            (sol[component.root.node_id].peer, sol[component.root.node_id].doc)
            for sol in bindings
        }
        return docs, locate_time + transfer_time + join_time + ship_time

    # -- document phase -------------------------------------------------------------

    def _document_phase(self, pattern, src_peer, candidate_docs):
        """Ship the query to document peers, collect exact answers.

        A candidate peer that left the network is detected by timeout
        (Section 3): its documents' answers are missing and the result is
        flagged incomplete.  Returns ``(answers, doc_time_s, timed_out)``.
        """
        system = self.system
        net = system.net
        tracer = system.tracer
        ctx = tracer.context if tracer is not None else None
        timeout_s = 4 * net.cost.params.hop_latency_s
        by_peer = {}
        for peer_idx, doc_idx in sorted(candidate_docs):
            # functional documents (Section 6) are index-only, never answers
            if doc_idx in system.peers[peer_idx].functional_docs:
                continue
            by_peer.setdefault(peer_idx, []).append(doc_idx)

        answers = []
        peer_times = []
        doc_peer_times = []
        timed_out = 0
        # one join plan per query, shared by every candidate document; no
        # membership change happens inside the loop, so one hop estimate
        # and one query-shipping time
        plan = TwigPlan(pattern)
        hops = net.cost.expected_hops(len(net.alive_nodes()))
        ship_time = net.cost.transfer_time(64, hops=hops)
        for peer_idx, doc_indexes in by_peer.items():
            peer = system.peers[peer_idx]
            if not peer.node.alive:
                timed_out += 1
                peer_times.append(timeout_s)
                doc_peer_times.append((peer_idx, timeout_s))
                if ctx is not None:
                    tracer.add(
                        "doc:timeout peer%d" % peer_idx,
                        "doc",
                        "peer:%d" % peer_idx,
                        ctx.now(),
                        timeout_s,
                        args={
                            "timed_out": True,
                            "peer": peer_idx,
                            "docs": len(doc_indexes),
                        },
                        parent=ctx.parent_id,
                    )
                continue
            sent_bytes = 0
            matched = 0
            for doc_idx in doc_indexes:
                if doc_idx not in peer.documents:
                    # a candidate the peer no longer holds: an unpublished
                    # document whose postings linger somewhere (a stale
                    # view block awaiting its delta, or a resurrected
                    # index copy from a crash-restarted replica).  The
                    # document peer simply answers "no such document",
                    # keeping answers sound under update-heavy churn
                    continue
                for postings, _incomplete in peer.evaluate(pattern, doc_idx, plan=plan):
                    answers.append(
                        Answer(
                            peer_idx,
                            doc_idx,
                            tuple(sorted(postings.items())),
                        )
                    )
                    matched += 1
                    sent_bytes += ANSWER_TUPLE_BYTES + encoded_size(
                        sorted(postings.values())
                    )
            # query shipping + answer return, one round trip per doc peer
            net.meter.record("control", 64 * hops)
            net.meter.record("documents", sent_bytes)
            peer_time = ship_time + net.cost.transfer_time(sent_bytes, hops=1)
            peer_times.append(peer_time)
            doc_peer_times.append((peer_idx, peer_time))
            if ctx is not None:
                tracer.add(
                    "doc:peer%d" % peer_idx,
                    "doc",
                    "peer:%d" % peer_idx,
                    ctx.now(),
                    peer_time,
                    args={
                        "peer": peer_idx,
                        "docs": len(doc_indexes),
                        "answers": matched,
                        "bytes": sent_bytes,
                        # the query-ship round trip metered just above, so
                        # EXPLAIN can attribute it to this doc peer exactly
                        "control_bytes": 64 * hops,
                    },
                    parent=ctx.parent_id,
                )
        doc_time = max(peer_times) if peer_times else 0.0
        self._last_doc_peer_times = doc_peer_times
        answers.sort(key=lambda a: (a.peer, a.doc, a.bindings))
        return answers, doc_time, timed_out
