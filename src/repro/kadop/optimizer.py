"""Cost-based selection of the query evaluation strategy.

Section 5.4 ends with the heuristic the system uses — "we identify the
subset of the query that has a guaranteed low selectivity factor, by
examining the sizes of the stored posting lists, and we apply Structural
Bloom Filters on the specific subset" — and Section 8 announces a cost
model and optimizer as work in progress.  This module implements that
optimizer over the statistics a KadoP index can actually provide:

1. for each query term, the owner peer reports its posting count and
   distinct document count (a small control round trip, charged);
2. per-strategy traffic is estimated with an explicit reduction model:
   a filter built from a list spanning ``d_f`` documents keeps roughly a
   ``min(1, d_f / d_x)`` fraction of a list spanning ``d_x`` documents
   (document overlap is the dominant, estimable factor; structural overlap
   within a document is not estimable from index statistics);
3. filter wire sizes follow the actual Bloom sizing formulas;
4. the cheapest of {baseline, ab, db, bloom, subquery} is chosen.

The optimizer is deliberately conservative: when no strategy's *estimate*
beats the baseline, it ships full lists (filters are never free).
"""

import math
from dataclasses import dataclass, field

from repro.bloom.structural import PSI_C, psi
from repro.dht.network import CONTROL_BYTES
from repro.kadop.execution import term_key_of
from repro.query.pattern import Axis

#: average wire bytes of one delta-encoded posting
POSTING_BYTES = 4.0

#: average dyadic-cover size (Table 1 territory)
AVG_COVER = 1.4

@dataclass
class TermStats:
    """Owner-reported statistics of one term's posting list."""

    postings: int
    documents: int
    max_end: int = 1  # largest end-tag number seen (sizes filter domains)

    @property
    def wire_bytes(self):
        return self.postings * POSTING_BYTES


@dataclass
class Choice:
    """The optimizer's decision and its reasoning."""

    strategy: str  # None is encoded as "baseline"
    estimates: dict = field(default_factory=dict)
    stats_time_s: float = 0.0

    @property
    def executor_strategy(self):
        return None if self.strategy == "baseline" else self.strategy


def _bits_per_item(fp_rate):
    return -math.log(fp_rate) / (math.log(2) ** 2)


class StrategyOptimizer:
    """Chooses a filter strategy for a pattern before execution."""

    def __init__(self, system):
        self.system = system

    # -- statistics gathering ---------------------------------------------------

    def gather_stats(self, component, src_peer):
        """Ask each term's owner for (postings, documents) counts.

        Returns ``({node_id: TermStats}, simulated_seconds)``; the control
        round trips run in parallel, so time is the slowest one."""
        net = self.system.net
        stats = {}
        per_term = {}
        slowest = 0.0
        for node in component.nodes():
            key = term_key_of(node)
            if key not in per_term:
                owner, receipt = net.locate(src_peer.node, key)
                plist = owner.store.get(key)
                per_term[key] = TermStats(
                    postings=len(plist),
                    documents=len(plist.doc_ids()),
                    max_end=plist.max_end() or 1,
                )
                slowest = max(
                    slowest, receipt.duration_s + net.ship(key, CONTROL_BYTES, "control")
                )
            stats[node.node_id] = per_term[key]
        return stats, slowest

    # -- reduction model ----------------------------------------------------------

    @staticmethod
    def _survival(filter_docs, target_docs):
        """AB survival: a descendant survives only if its document holds
        some filter posting, so the document-overlap ratio bounds it."""
        if target_docs <= 0:
            return 0.0
        return min(1.0, filter_docs / target_docs)

    @staticmethod
    def _survival_db(filter_postings, target_postings):
        """DB survival: every kept ancestor needs at least one (mostly
        distinct) filter posting in its subtree, so the posting-count
        ratio bounds the kept fraction — much tighter than document
        overlap when the filter list is small."""
        if target_postings <= 0:
            return 0.0
        return min(1.0, filter_postings / target_postings)

    def _domain_level(self, stats):
        """The dyadic domain depth l implied by the gathered statistics."""
        from repro.bloom.dyadic import level_for

        max_end = max((s.max_end for s in stats.values()), default=1)
        return level_for(max(max_end, 1))

    def _ab_filter_bytes(self, postings):
        config = self.system.config
        avg_psi = psi(4, PSI_C)  # traces at the typical mid level
        items = postings * AVG_COVER * avg_psi
        return items * _bits_per_item(config.ab_fp_rate) / 8 + 16

    def _db_filter_bytes(self, postings, l):
        config = self.system.config
        items = postings * (l + 1)
        return items * _bits_per_item(config.db_fp_rate) / 8 + 16

    def _estimate_ab(self, component, stats):
        """Top-down AB pass: root ships full, children get reduced."""
        total = 0.0
        reduced_docs = {}
        for node in component.nodes():
            stat = stats[node.node_id]
            if node.parent is None:
                total += stat.wire_bytes  # unfiltered root list
                total += self._ab_filter_bytes(stat.postings) * len(node.children)
                reduced_docs[node.node_id] = stat.documents
                continue
            parent_docs = reduced_docs[node.parent.node_id]
            survival = self._survival(parent_docs, stat.documents)
            kept_postings = stat.postings * survival
            kept_docs = min(stat.documents, parent_docs)
            total += kept_postings * POSTING_BYTES
            total += self._ab_filter_bytes(kept_postings) * len(node.children)
            reduced_docs[node.node_id] = kept_docs
        return total

    def _estimate_db(self, component, stats):
        """Bottom-up DB pass: leaves ship full, inner nodes get reduced."""
        total = 0.0
        l = self._domain_level(stats)

        def visit(node):
            stat = stats[node.node_id]
            postings, docs = stat.postings, stat.documents
            for child in node.children:
                child_postings, child_docs = visit(child)
                nonlocal total
                total += self._db_filter_bytes(child_postings, l)
                postings *= self._survival_db(child_postings, postings)
                docs = min(docs, child_docs)
            total += postings * POSTING_BYTES
            return postings, docs

        visit(component.root)
        return total

    def _estimate_subquery(self, component, stats):
        """DB reduction along the path through the rarest leaf only."""
        leaves = [n for n in component.nodes() if n.is_leaf]
        pivot = min(leaves, key=lambda n: stats[n.node_id].documents)
        path_ids = set()
        node = pivot
        while node is not None:
            path_ids.add(node.node_id)
            node = node.parent
        total = 0.0
        # off-path lists ship entire
        for node in component.nodes():
            if node.node_id not in path_ids:
                total += stats[node.node_id].wire_bytes
        # on-path: DB chain from the pivot upward
        l = self._domain_level(stats)
        postings = stats[pivot.node_id].postings
        total += postings * POSTING_BYTES
        node = pivot.parent
        while node is not None:
            total += self._db_filter_bytes(postings, l)
            stat = stats[node.node_id]
            postings = stat.postings * self._survival_db(postings, stat.postings)
            total += postings * POSTING_BYTES
            node = node.parent
        return total

    # -- decision ---------------------------------------------------------------------

    def estimate_all(self, component, stats):
        baseline = sum(
            stats[n.node_id].wire_bytes for n in component.nodes()
        )
        estimates = {
            "baseline": baseline,
            "ab": self._estimate_ab(component, stats),
            "db": self._estimate_db(component, stats),
            "subquery": self._estimate_subquery(component, stats),
        }
        # the hybrid pays both filter sets; approximate as db's postings
        # with ab+db filter overheads
        estimates["bloom"] = (
            estimates["db"]
            + sum(
                self._ab_filter_bytes(stats[n.node_id].postings)
                for n in component.nodes()
                if n.children
            )
        )
        return estimates

    def choose(self, component, src_peer):
        """Pick the strategy with the lowest estimated traffic."""
        if len(component) == 1:
            return Choice("baseline", {"baseline": 0.0})
        stats, stats_time = self.gather_stats(component, src_peer)
        if any(s.postings == 0 for s in stats.values()):
            # some list is empty: the join is empty, nothing to optimize
            return Choice("baseline", {"baseline": 0.0}, stats_time)
        estimates = self.estimate_all(component, stats)
        strategy = min(estimates, key=lambda k: (estimates[k], k))
        return Choice(strategy, estimates, stats_time)
