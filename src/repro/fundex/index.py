"""The Fundex proper: registration, Rev relation, query completion.

See the package docstring for the scheme.  Functional documents are
indexed into the regular ``Term`` relation using a functional document id
(a large doc index at the peer in charge of the function call) in place of
a normal ``(p, d)``, exactly as the paper prescribes, so all index
machinery (including DPP and filters) applies to them transparently; the
query executor simply never reports functional documents as answers.
"""

from dataclasses import dataclass, field

from repro.errors import EntityResolutionError
from repro.faults import OpTimeoutError
from repro.postings.encoder import encoded_size
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.query.matcher import match_document, match_to_postings
from repro.query.pattern import PatternNode, TreePattern
from repro.fundex.representative import skeleton_labels, skeleton_matches
from repro.kadop.execution import Answer, QueryRun
from repro.xmldata.parser import parse_document

#: functional doc indexes start here, far above any real doc index
FUNCTIONAL_DOC_BASE = 1 << 40

#: bytes for one Rev occurrence entry on the wire
REV_ENTRY_BYTES = 24


def fun_key(target):
    """The DHT key of a function call / include target (``fun:w``)."""
    return "fun:" + target


def rev_key(peer_index, fdoc_index):
    """The DHT key of the reverse-pointer list of a functional id."""
    return "rev:%d:%d" % (peer_index, fdoc_index)


@dataclass
class FundexReport:
    """Cost accounting of one Fundex-mode query."""

    mode: str = "fundex"
    response_time_s: float = 0.0
    index_time_s: float = 0.0
    functional_docs_evaluated: int = 0
    functional_docs_pruned: int = 0
    potential_answers: int = 0
    completed_answers: int = 0
    candidate_docs: int = 0
    traffic: dict = field(default_factory=dict)
    # as in QueryReport: keys whose fetch exhausted its retries under an
    # active FaultPlan; the answer is then partial, not silently empty
    complete: bool = True
    unreachable_keys: tuple = ()

    @property
    def total_bytes(self):
        return sum(self.traffic.values())


class FunctionalDoc:
    """A materialized-then-forgotten function result (we keep the parse for
    local evaluation, standing in for the peer's ability to re-derive it)."""

    __slots__ = ("fid", "target", "document", "skeleton")

    def __init__(self, fid, target, document):
        self.fid = fid  # (peer_index, fdoc_index)
        self.target = target
        self.document = document
        self.skeleton = skeleton_labels(document)


class FundexIndex:
    """Fundex state and algorithms for one KadoP network."""

    def __init__(self, system):
        self.system = system
        self._functional = {}  # target -> FunctionalDoc
        self._by_fid = {}  # fid -> FunctionalDoc
        self._intensional_docs = set()  # (peer_index, doc_index)
        self._next_fdoc = {}  # fun peer index -> next local functional index

    # -- registration (publish-time) -------------------------------------------

    def register_document(self, peer, doc_index, document):
        """Called when an intensional document is published."""
        self._intensional_docs.add((peer.index, doc_index))
        for ref in document.iter_refs():
            fdoc = self._materialize(ref.target)
            if fdoc is None:
                continue
            container = ref.parent
            occurrence = Posting(
                peer.index,
                doc_index,
                container.sid.start,
                container.sid.end,
                container.sid.level,
            )
            self.system.net.append(
                peer.node, rev_key(*fdoc.fid), [occurrence]
            )

    def _materialize(self, target):
        """Index the function result once, at the peer in charge of it."""
        if target in self._functional:
            return self._functional[target]
        text = self.system.resolver(target)
        if text is None:
            raise EntityResolutionError(
                "cannot materialize function call %r" % target
            )
        fun_owner = self.system.net.owner_of(fun_key(target))
        fun_peer = self.system.peers[fun_owner.peer_index]
        fdoc_index = FUNCTIONAL_DOC_BASE + self._next_fdoc.get(fun_peer.index, 0)
        self._next_fdoc[fun_peer.index] = (
            self._next_fdoc.get(fun_peer.index, 0) + 1
        )
        document = parse_document(text, uri=target, resolver=self.system.resolver)
        fdoc = FunctionalDoc((fun_peer.index, fdoc_index), target, document)
        self._functional[target] = fdoc
        self._by_fid[fdoc.fid] = fdoc
        # the functional document enters the regular Term index
        fun_peer.documents[fdoc_index] = document
        fun_peer.functional_docs.add(fdoc_index)
        self.system.publisher.publish(
            fun_peer.node, document, fun_peer.index, fdoc_index
        )
        return fdoc

    @property
    def functional_count(self):
        return len(self._functional)

    def intensional_docs(self):
        return set(self._intensional_docs)

    # -- query processing (Section 6) --------------------------------------------

    def query(self, pattern, src_peer, mode="fundex"):
        """Evaluate ``pattern`` with intensional data handled per ``mode``.

        Modes: ``naive`` (ignore intensional data — incomplete), ``brutal``
        (treat every intensional document as a candidate — imprecise),
        ``fundex`` (complete, Rev-based), ``representative`` (fundex with
        skeleton pruning of the functional evaluations).
        Returns ``(answers, FundexReport)``.
        """
        if mode not in ("naive", "brutal", "fundex", "representative"):
            raise ValueError("unknown fundex mode %r" % (mode,))
        meter = self.system.net.meter
        snapshot = meter.snapshot()
        report = FundexReport(mode=mode)

        if mode in ("naive", "brutal"):
            shipped = self._intensional_docs if mode == "brutal" else ()
            return self._query_extensional(
                pattern, src_peer, report, snapshot, shipped
            )
        return self._query_fundex(pattern, src_peer, report, snapshot, mode)

    # -- naive / brutal ------------------------------------------------------------

    def _query_extensional(self, pattern, src_peer, report, snapshot, shipped):
        """The plain executor's answers, plus the cost of shipping every
        document of ``shipped`` whole: none for ``naive``, *every*
        intensional document for ``brutal``."""
        answers, exec_report = self.system.executor.run(pattern, src_peer)
        report.index_time_s = exec_report.index_time_s
        report.complete = exec_report.complete
        report.unreachable_keys = exec_report.unreachable_keys
        net = self.system.net
        # contacting every candidate peer and shipping whole documents; a
        # withdrawn document is no longer held, so nothing ships for it
        ship_time = 0.0
        held = 0
        for peer_idx, doc_idx in sorted(shipped):
            peer = self.system.peers[peer_idx]
            document = peer.documents.get(doc_idx)
            if document is None:
                continue
            held += 1
            nbytes = document.source_bytes
            try:
                seconds = net.ship(peer.node.uri, nbytes, "documents")
            except OpTimeoutError as exc:
                report.complete = False  # a document lost for good
                seconds = exc.receipt.duration_s  # the retries it cost
            ship_time = max(ship_time, seconds)
        report.candidate_docs = held + exec_report.candidate_docs
        report.response_time_s = exec_report.response_time_s + ship_time
        report.completed_answers = len(answers)
        report.traffic = net.meter.delta_since(snapshot)
        return answers, report

    # -- fundex / representative ------------------------------------------------------

    def _query_fundex(self, pattern, src_peer, report, snapshot, mode):
        system = self.system
        net = system.net

        # 1. potential answers over candidate documents
        run = QueryRun()
        candidates, index_time = self._candidate_docs(pattern, src_peer, run)
        report.candidate_docs = len(candidates)
        report.index_time_s = index_time
        complete, potential, doc_time = self._potential_answers(
            pattern, candidates, report
        )
        report.potential_answers = len(potential)

        # 2 + 3. evaluate missing sub-patterns over functional documents
        needed_subtrees = self._needed_subtrees(pattern, potential)
        sa, eval_time, evaluated, pruned = self._matching_fids(
            needed_subtrees, prune=(mode == "representative")
        )
        report.functional_docs_evaluated = evaluated
        report.functional_docs_pruned = pruned

        # 4. Rev look-ups: map matching fids to their occurrences
        ra, rev_time = self._rev_occurrences(sa, run)

        # 5. θ-join: complete the potential answers
        completed = self._complete(pattern, potential, ra)
        answers = sorted(
            set(complete) | set(completed),
            key=lambda a: (a.peer, a.doc, a.bindings),
        )
        report.completed_answers = len(answers)
        report.response_time_s = (
            index_time + doc_time + eval_time + rev_time
        )
        report.traffic = net.meter.delta_since(snapshot)
        run.flag(report)
        return answers, report

    def _component_docs(self, component, src_peer, run):
        """Candidate ``(peer, doc)`` ids of one index-plan component.

        Fundex must not re-implement posting retrieval or the join over
        what was retrieved: under DPP the Term relation lives in blocks
        (plain ``net.get`` on a term key returns nothing),
        ``dpp_fetch_mode`` decides how those blocks arrive, and a coarse
        index joins by document id.  Both steps are the executor's own;
        ``run`` collects the keys that timed out under a FaultPlan."""
        executor = self.system.executor
        fetched = executor.fetch(component, src_peer, None, run)
        docs, _ = executor.component_docs(component, fetched)
        return docs, fetched.time_s

    def _candidate_docs(self, pattern, src_peer, run):
        """Complete candidate set: extensional index candidates plus the
        intensional documents that contain the root term."""
        from repro.query.index_plan import build_index_plan

        plan = build_index_plan(pattern)
        candidates = set()
        index_time = 0.0
        for component, _ in zip(plan.components, plan.node_maps):
            docs, fetch_time = self._component_docs(component, src_peer, run)
            index_time = max(index_time, fetch_time)
            candidates |= docs

        # intensional docs whose extensional part holds the pattern root:
        # looked up as a single-node pattern through the same machinery,
        # so the root-term postings too come off the DPP blocks when DPP
        # is on (a raw ``net.get`` here found only the empty plain key and
        # silently dropped every intensional candidate)
        root = pattern.root
        if root.term is not None:
            single = _single_node_pattern(root)
            root_docs, lookup_time = self._component_docs(single, src_peer, run)
            index_time = max(index_time, lookup_time)
            candidates |= self._intensional_docs & root_docs
        else:
            candidates |= self._intensional_docs
        # functional documents are never answers themselves
        return {
            (p, d) for (p, d) in candidates if d < FUNCTIONAL_DOC_BASE
        }, index_time

    def _potential_answers(self, pattern, candidates, report):
        """Complete and potential answers; lost ones leave ``report`` incomplete."""
        complete, potential = [], []
        doc_time = 0.0
        net = self.system.net
        for peer_idx, doc_idx in sorted(candidates):
            peer = self.system.peers[peer_idx]
            found, partial = [], []
            sent = 0
            for postings, incomplete in peer.evaluate(
                pattern, [doc_idx], allow_incomplete=True
            ):
                answer = Answer(peer_idx, doc_idx, tuple(sorted(postings.items())))
                if incomplete:
                    partial.append((answer, frozenset(incomplete)))
                else:
                    found.append(answer)
                sent += encoded_size(sorted(postings.values())) + 8
            try:
                seconds = net.ship(peer.node.uri, sent, "documents")
                complete += found
                potential += partial
            except OpTimeoutError as exc:
                report.complete = False
                seconds = exc.receipt.duration_s  # the retries it cost
            doc_time = max(doc_time, seconds)
        return complete, potential, doc_time

    def _needed_subtrees(self, pattern, potential):
        """The sub-patterns that must be sought in functional data.

        For an answer incomplete at node ``n``, the children of ``n``
        without a binding are the missing sub-patterns."""
        by_id = {node.node_id: node for node in pattern.nodes()}
        needed = {}
        for answer, incomplete in potential:
            bound = {nid for nid, _ in answer.bindings}
            for nid in incomplete:
                node = by_id[nid]
                for child in node.children:
                    if child.node_id not in bound:
                        needed.setdefault(child.node_id, child)
        return needed

    def _matching_fids(self, needed_subtrees, prune):
        """``Sa`` per missing sub-pattern: fids whose document matches.

        The sub-queries are shipped to the peers in charge of the function
        calls, which evaluate their own functional documents in parallel;
        the simulated time is the slowest peer's batch (one RPC plus, per
        document, re-materialization I/O and matching CPU).  This is the
        "backward pointer chasing" cost that makes Fundex-simple the
        slowest curve of Figure 9; representative-data-indexing prunes
        documents whose skeleton cannot match before paying it."""
        cost = self.system.net.cost
        sa = {}
        evaluated = pruned = 0
        per_peer_time = {}
        for nid, subtree in needed_subtrees.items():
            sub_pattern = _subtree_pattern(subtree)
            matching = set()
            for fdoc in self._functional.values():
                peer_idx = fdoc.fid[0]
                if prune and not skeleton_matches(sub_pattern.root, fdoc.skeleton):
                    pruned += 1
                    continue
                evaluated += 1
                doc = fdoc.document
                per_peer_time[peer_idx] = per_peer_time.get(peer_idx, 0.0) + (
                    cost.params.hop_latency_s  # chase the backward pointer
                    + cost.disk_read_time(doc.source_bytes or 1024)
                    + cost.parse_time(doc.source_bytes or 1024)
                    + cost.join_time(doc.element_count * len(sub_pattern))
                )
                if match_document(sub_pattern, doc):
                    matching.add(fdoc.fid)
            sa[nid] = matching
        # a latency estimate, not a message of its own: the sub-queries
        # ride one routed 64 B request per peer, which is not metered
        rpc = cost.transfer_time(
            64, hops=cost.expected_hops(len(self.system.net.alive_nodes()))
        )
        eval_time = (rpc + max(per_peer_time.values())) if per_peer_time else 0.0
        return sa, eval_time, evaluated, pruned

    def _rev_occurrences(self, sa, run):
        """``Ra`` per missing sub-pattern: occurrence postings via Rev.

        Look-ups for fids owned by the same peer are batched into one
        round trip; distinct owners answer in parallel, so the simulated
        time is the slowest owner's batch.

        Unlike term postings, ``rev:*`` keys are read off the owner's
        store directly on purpose: the Rev relation is Fundex control
        data written with plain ``net.append`` (never routed through
        ``dpp.append``), so there are no DPP blocks to consult and no
        ``dpp_fetch_mode`` to honour — the reply is shipped right here.  A
        reply lost for good names its key in ``run``'s unreachable keys."""
        net = self.system.net
        ra = {}
        per_owner_time = {}
        for nid, fids in sa.items():
            occurrences = PostingList()
            for fid in sorted(fids):
                key = rev_key(*fid)
                owner = net.owner_of(key)
                plist = owner.store.get(key)
                try:
                    reply_s = net.ship(key, REV_ENTRY_BYTES * max(1, len(plist)), "control")
                    occurrences = occurrences.merge(plist)
                except OpTimeoutError as exc:
                    run.unreachable.add(exc.key)
                    reply_s = exc.receipt.duration_s  # the retries it cost
                prev = per_owner_time.get(owner.peer_index, None)
                if prev is None:
                    # a latency estimate: the owner's batched look-up
                    # request is one routed 64 B envelope, not metered
                    hops = net.cost.expected_hops(len(net.alive_nodes()))
                    prev = net.cost.transfer_time(64, hops=hops)
                per_owner_time[owner.peer_index] = prev + reply_s
            ra[nid] = occurrences
        rev_time = max(per_owner_time.values()) if per_owner_time else 0.0
        return ra, rev_time

    def _complete(self, pattern, potential, ra):
        """θ-join: a potential answer completes if, for every missing
        sub-pattern, a matching occurrence lies under the incomplete
        element."""
        by_id = {node.node_id: node for node in pattern.nodes()}
        completed = []
        for answer, incomplete in potential:
            bound = {nid: p for nid, p in answer.bindings}
            ok = True
            for nid in incomplete:
                node = by_id[nid]
                element_posting = bound[nid]
                for child in node.children:
                    if child.node_id in bound:
                        continue
                    occurrences = ra.get(child.node_id, PostingList())
                    if not any(
                        occ.peer == element_posting.peer
                        and occ.doc == element_posting.doc
                        and (
                            element_posting.start <= occ.start
                            and occ.end <= element_posting.end
                        )
                        for occ in occurrences
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                completed.append(answer)
        return completed


def _single_node_pattern(node):
    """A one-node descendant pattern matching just ``node``'s term."""
    from repro.query.pattern import Axis

    copy = (
        PatternNode(word=node.word, axis=Axis.DESCENDANT)
        if node.is_word
        else PatternNode(label=node.label, axis=Axis.DESCENDANT)
    )
    return TreePattern(copy)


def _subtree_pattern(node):
    """A standalone pattern for the subtree of ``node`` (descendant root)."""
    from repro.query.pattern import Axis

    def clone(n, axis):
        copy = (
            PatternNode(word=n.word, axis=axis)
            if n.is_word
            else PatternNode(label=n.label, axis=axis)
        )
        for child in n.children:
            copy.add_child(clone(child, child.axis))
        return copy

    root = clone(node, Axis.DESCENDANT)
    return TreePattern(root)
