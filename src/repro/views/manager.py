"""The view manager: catalog, rewriting, and incremental maintenance.

This is the serving-stack facade of the views subsystem.  The catalog of
view definitions follows the ViP2P model: the authoritative copy lives in
the DHT — a directory object under the well-known key ``viewdir`` plus one
``viewdef:<view_id>`` record per view — and every catalog *change* is
advertised to all peers (a metered control broadcast, charged to the
operation that caused it).  Queries therefore consult their peer's local
catalog copy for free; only catalog updates, never lookups, put bytes on
the wire.  In this in-process simulation one shared dict models the
disseminated copies.

Query path (:meth:`ViewManager.pre_query`): count the query's popularity,
find materialized views that subsume the query, pick the cheapest, compare
it against the base-index cost the materializing run measured (cost-based
choice), fetch the view's blocks, and hand the executor the candidate
document set — the document phase then runs unchanged, which is what makes
view-served answers identical to base evaluation.

Hot queries materialize themselves: when a canonical pattern has been asked
``view_auto_materialize_after`` times with no subsuming view, the manager
evaluates it once through the base executor (guarded against recursion) and
freezes the answer's root postings as clustered blocks.  The triggering
query is charged the materialization cost — the cache is an investment that
the warm phase pays back.

Maintenance (:meth:`on_publish` / :meth:`on_unpublish`): the publishing
peer evaluates each materialized view's pattern against the document being
added or withdrawn — publication is the rare, local operation — and routes
exactly the matching root postings into or out of the view's blocks.
"""

from repro.errors import UnindexableQueryError
from repro.faults import OpTimeoutError
from repro.postings.plist import PostingList
from repro.query.index_plan import build_index_plan
from repro.query.twigjoin import TwigPlan, twig_roots
from repro.views.definition import BLOCK_KEY_PREFIX, ViewDefinition, canonical_pattern
from repro.views.rewrite import equivalent, pick_view, subsumes, view_beats_base
from repro.views.store import ViewBlockStore, ViewIntegrityError

#: DHT key of the catalog directory object
DIRECTORY_KEY = "viewdir"

#: fixed directory-object header bytes
DIRECTORY_HEADER_BYTES = 16

#: prefix of every view's catalog-record DHT key
RECORD_KEY_PREFIX = "viewdef:"

_VIEW_KEY_PREFIXES = (BLOCK_KEY_PREFIX, RECORD_KEY_PREFIX)


def view_record_key(view_id):
    """DHT key of one view's catalog record."""
    return "%s%s" % (RECORD_KEY_PREFIX, view_id)


def is_view_key(key):
    """Whether DHT ``key`` holds view state rather than the index: an
    answer block (:func:`~repro.views.definition.block_key`, in a store),
    a catalog record or the directory (objects)."""
    return str(key).startswith(_VIEW_KEY_PREFIXES) or key == DIRECTORY_KEY


class ViewOutcome:
    """What consulting the rewriter produced for one query.

    ``docs is None`` means the query falls back to the base index (no
    usable view, or the cost-based choice preferred base); ``overhead_s``
    is then the time spent deciding (materialization attempts, mostly),
    which the executor adds to the index phase.  On a hit, ``time_s`` and
    ``ttfa_s`` replace the index phase entirely (decision + fetch + merge;
    plus the materialization cost when this very query triggered it)."""

    __slots__ = (
        "docs",
        "view_id",
        "exact",
        "postings",
        "time_s",
        "ttfa_s",
        "overhead_s",
        "materialized",
    )

    def __init__(
        self,
        docs=None,
        view_id=None,
        exact=False,
        postings=0,
        time_s=0.0,
        ttfa_s=0.0,
        overhead_s=0.0,
        materialized=False,
    ):
        self.docs = docs
        self.view_id = view_id
        self.exact = exact
        self.postings = postings
        self.time_s = time_s
        self.ttfa_s = ttfa_s
        self.overhead_s = overhead_s
        self.materialized = materialized

    @property
    def served(self):
        return self.docs is not None


class ViewManager:
    """One network's view subsystem: catalog + rewriter + maintenance."""

    def __init__(self, system):
        self.system = system
        self.store = ViewBlockStore(system)
        self.popularity = {}  # canonical pattern -> times queried
        self.hits = 0
        self.misses = 0
        self.materializations = 0
        self.maintenance_added = 0
        self.maintenance_removed = 0
        self.dematerializations = 0  # views dropped on integrity failure
        self._catalog = {}  # canonical -> ViewDefinition (disseminated copy)
        self._active = False  # recursion guard while materializing

    # -- catalog ---------------------------------------------------------------

    def catalog(self):
        """The (locally replicated) catalog: ``{canonical: ViewDefinition}``."""
        return self._catalog

    def _directory_bytes(self):
        return DIRECTORY_HEADER_BYTES + sum(
            view.encoded_bytes() for view in self._catalog.values()
        )

    def _publish_record(self, src_node, view):
        """Write the authoritative record + directory to the DHT and
        advertise the change to every peer.  Returns the simulated cost the
        *originating* operation pays (the broadcast itself is one direct
        hop per peer, in parallel)."""
        net = self.system.net
        receipt = net.put_object(
            src_node, view_record_key(view.view_id), view, view.encoded_bytes()
        )
        receipt.merge(
            net.put_object(
                src_node, DIRECTORY_KEY, self._catalog, self._directory_bytes()
            )
        )
        others = max(0, len(net.alive_nodes()) - 1)
        return receipt.duration_s + net.ship(
            view_record_key(view.view_id), view.encoded_bytes(), "control",
            fanout=others,
        )

    # -- materialization -------------------------------------------------------

    def materialize(self, pattern, src_peer, canonical=None):
        """Evaluate ``pattern`` once, freeze its answers as view blocks.

        Returns ``(view, simulated_cost_s)``; ``view`` is None when the
        pattern cannot be materialized (nothing indexable, or the base
        evaluation was incomplete — freezing a partial answer would lose
        documents forever)."""
        canonical = canonical or canonical_pattern(pattern)
        view = self._catalog.get(canonical)
        if view is not None and view.materialized:
            return view, 0.0
        try:
            build_index_plan(pattern)
        except UnindexableQueryError:
            return None, 0.0  # no indexable term: not evaluable from the index
        self._active = True
        try:
            answers, report = self.system.executor.run(pattern, src_peer)
        finally:
            self._active = False
        if not report.complete:
            return None, report.response_time_s
        if view is None:
            view = ViewDefinition(pattern, canonical)
            self._catalog[canonical] = view
        root_id = pattern.root.node_id
        postings = PostingList([answer.binding_of(root_id) for answer in answers])
        write_receipt = self.store.write_blocks(src_peer.node, view, postings)
        view.materialized = True
        # the statistic the cost-based choice uses: what the index phase of
        # the base evaluation actually put on the wire
        view.base_bytes = report.traffic.get("postings", 0) + report.traffic.get(
            "filters", 0
        )
        advertise_s = self._publish_record(src_peer.node, view)
        self.materializations += 1
        cost = report.response_time_s + write_receipt.duration_s + advertise_s
        return view, cost

    # -- the query path --------------------------------------------------------

    def pre_query(self, pattern, plan, src_peer):
        """Consult the rewriter for one query; see class docstring.

        Returns None only from inside a materialization (recursion guard);
        otherwise always a :class:`ViewOutcome`."""
        if self._active:
            return None
        config = self.system.config
        canonical = canonical_pattern(pattern)
        count = self.popularity.get(canonical, 0) + 1
        self.popularity[canonical] = count

        candidates = [
            view
            for view in self._catalog.values()
            if view.materialized and subsumes(view.pattern, pattern)
        ]
        materialized_now = False
        mat_s = 0.0
        if (
            not candidates
            and config.view_auto_materialize_after is not None
            and count >= config.view_auto_materialize_after
        ):
            view, mat_s = self.materialize(pattern, src_peer, canonical)
            if view is not None:
                candidates = [view]
                materialized_now = True
        if not candidates:
            self.misses += 1
            return ViewOutcome(overhead_s=mat_s)

        view = pick_view(candidates)
        decision_s = 0.0
        if config.view_cost_based and not materialized_now:
            wins, stats_s = view_beats_base(
                view, plan, self.system.optimizer, src_peer
            )
            decision_s = stats_s
            if not wins:
                self.misses += 1
                return ViewOutcome(overhead_s=decision_s)

        merged, fetch_s, first_s, _nbytes = self.store.fetch_all(
            src_peer.node, view
        )
        if len(merged) != view.total_postings:
            # integrity check: the fetched blocks disagree with the
            # catalog metadata — a single-copy block holder crashed, or a
            # maintenance delta landed on a successor while the real copy
            # sits on a downed disk.  Serving from this view would
            # silently lose answers, so treat it as a miss and fall back
            # to the base index, charging the wasted probe
            self.misses += 1
            return ViewOutcome(overhead_s=decision_s + mat_s + fetch_s)
        merge_s = self.system.net.cost.join_time(len(merged))
        exact = view.canonical == canonical or equivalent(view.pattern, pattern)
        self.hits += 1
        return ViewOutcome(
            docs=set(merged.doc_ids()),
            view_id=view.view_id,
            exact=exact,
            postings=len(merged),
            time_s=decision_s + mat_s + fetch_s + merge_s,
            ttfa_s=decision_s + mat_s + first_s + merge_s,
            materialized=materialized_now,
        )

    # -- incremental maintenance -----------------------------------------------

    def _root_postings(self, pattern, peer, doc_index, document):
        """The root postings ``document`` contributes to ``pattern``: the
        root rows the twig join's reducer keeps over its element streams.

        A functional document has no streams; it is never an answer, so
        no view holds its postings."""
        if document.streams is None:
            return PostingList()
        plan = TwigPlan(pattern)
        streams = peer.document_streams(plan, doc_index, document)
        if streams is None:
            return PostingList()
        return twig_roots(pattern, dict(enumerate(streams)), plan)

    def on_publish(self, peer, doc_index, document):
        """Route a newly published document's deltas into live views."""
        added = 0
        for view in self._catalog.values():
            if not view.materialized:
                continue
            # the base index grew: the base-cost statistic cached at
            # materialization time no longer describes it, so drop it and
            # let the next cost-based decision re-measure (and re-cache).
            # This holds even when the document contributes no answer
            # postings — its terms still widened the base posting lists
            view.base_bytes = None
            postings = self._root_postings(view.pattern, peer, doc_index, document)
            if not len(postings):
                continue
            try:
                self.store.append(peer.node, view, postings)
                self._publish_record(peer.node, view)
            except (ViewIntegrityError, OpTimeoutError):
                self._dematerialize(peer.node, view)
                continue
            added += len(postings)
        self.maintenance_added += added
        return added

    def on_unpublish(self, peer, doc_index, document):
        """Remove a withdrawn document's postings from live views."""
        removed = 0
        for view in self._catalog.values():
            if not view.materialized:
                continue
            # mirror of on_publish: the withdrawn document shrank the base
            # index, so the cached base-cost statistic is stale — without
            # this, a warm view keeps comparing against the pre-unpublish
            # base bytes and the cost-based gate serves from whichever side
            # the dead statistic favours
            view.base_bytes = None
            postings = self._root_postings(view.pattern, peer, doc_index, document)
            if not len(postings):
                continue
            try:
                count, _receipt = self.store.delete_doc(
                    peer.node, view, (peer.index, doc_index), postings
                )
                self._publish_record(peer.node, view)
            except (ViewIntegrityError, OpTimeoutError):
                self._dematerialize(peer.node, view)
                continue
            removed += count
        self.maintenance_removed += removed
        return removed

    def _dematerialize(self, src_node, view):
        """Drop a view whose single-copy block state can no longer be
        incrementally maintained: a holder lost its copy
        (:class:`ViewIntegrityError`), or a maintenance message was lost
        for good under a FaultPlan, so the delta did not land whole.  The
        catalog entry survives with its popularity, so a later hot query
        re-materializes it from the base index.  Reachable block copies
        are deleted best-effort, and so is the change advertised;
        stranded copies are garbage under never-reused block keys."""
        for block in view.blocks:
            holder, _hops = self.system.net.route(src_node, block.key)
            if block.key in holder.store:
                holder.store.delete(block.key)
        view.materialized = False
        view.blocks = []
        view.base_bytes = None
        self.dematerializations += 1
        try:
            self._publish_record(src_node, view)
        except OpTimeoutError:
            pass  # the drop stands; the next catalog change advertises it

    # -- introspection ---------------------------------------------------------

    def storage_by_peer(self):
        """Per-peer view-block storage: ``{peer_index: (blocks, bytes)}``."""
        from repro.postings.encoder import encoded_size

        usage = {}
        for node in self.system.net.alive_nodes():
            blocks = 0
            nbytes = 0
            for key in node.store.terms():
                if not is_view_key(key):
                    continue
                blocks += 1
                nbytes += encoded_size(node.store.get(key))
            if blocks:
                usage[node.peer_index] = (blocks, nbytes)
        return usage
