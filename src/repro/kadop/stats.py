"""Network introspection: index sizes, load balance, hot terms.

Section 8 lists load balancing among the optimizer's future targets; the
prerequisite is visibility into how the DHT spread the index.  This module
computes per-peer and per-term statistics over a live network — the same
numbers an operator (or the future load balancer) would need.
"""

from dataclasses import asdict, dataclass, field

from repro.postings.encoder import encoded_size


@dataclass
class PeerLoad:
    """One peer's share of the distributed index."""

    peer_index: int
    postings: int = 0
    terms: int = 0
    documents: int = 0
    objects: int = 0
    view_blocks: int = 0  # materialized-view answer blocks held here
    view_bytes: int = 0  # encoded bytes of those blocks


@dataclass
class NetworkStats:
    """Aggregate index statistics for a KadoP network."""

    peers: list = field(default_factory=list)  # PeerLoad, by peer index
    total_postings: int = 0
    total_terms: int = 0
    hottest_terms: list = field(default_factory=list)  # (count, term)
    views: int = 0  # materialized views in the catalog
    view_hits: int = 0
    view_misses: int = 0
    view_bytes: int = 0  # total view-block storage
    # load-ledger views (repro.balance): empty when nothing was metered
    hot_keys: list = field(default_factory=list)  # (read_bytes, key)
    hot_peers: list = field(default_factory=list)  # (read_bytes, peer)
    balance: dict = field(default_factory=dict)  # LoadBalancer.summary()
    kernel_backend: str = ""  # active repro.postings.kernels backend
    store_backend: str = ""  # per-peer store implementation in use
    # LSM internals (zero unless store_backend == "lsm"): frozen runs
    # across peers, buffered memtable postings, and compaction folds
    lsm_runs: int = 0
    lsm_memtable_postings: int = 0
    lsm_compactions: int = 0

    @property
    def gini(self):
        """Gini coefficient of per-peer posting counts (0 = perfectly even).

        The standard load-imbalance summary: the DHT hashes terms, so the
        load is uneven exactly to the extent posting lists are skewed —
        which DBLP's are, heavily (Section 4.3)."""
        loads = sorted(p.postings for p in self.peers)
        n = len(loads)
        total = sum(loads)
        if n == 0 or total == 0:
            return 0.0
        cum = 0.0
        for i, load in enumerate(loads, start=1):
            cum += i * load
        return (2 * cum) / (n * total) - (n + 1) / n

    @property
    def max_over_mean(self):
        """Peak-to-average posting load (1.0 = perfectly even)."""
        loads = [p.postings for p in self.peers]
        if not loads or not sum(loads):
            return 1.0
        return max(loads) / (sum(loads) / len(loads))

    def format(self):
        lines = [
            "peers: %d   postings: %d   distinct terms: %d"
            % (len(self.peers), self.total_postings, self.total_terms),
            "load balance: gini=%.3f  max/mean=%.2f"
            % (self.gini, self.max_over_mean),
            "hottest terms:",
        ]
        if self.kernel_backend:
            lines.insert(1, "kernel backend: %s" % self.kernel_backend)
        if self.store_backend:
            line = "store backend: %s" % self.store_backend
            if self.store_backend == "lsm":
                line += "  (runs: %d  memtable postings: %d  compactions: %d)" % (
                    self.lsm_runs,
                    self.lsm_memtable_postings,
                    self.lsm_compactions,
                )
            lines.insert(1, line)
        for count, term in self.hottest_terms:
            lines.append("  %8d  %s" % (count, term))
        if self.hot_keys or self.hot_peers:
            lines.append("hottest peers by served read bytes:")
            for nbytes, peer in self.hot_peers:
                lines.append("  %10d  peer %d" % (nbytes, peer))
            lines.append("hottest keys by served read bytes:")
            for nbytes, key in self.hot_keys:
                lines.append("  %10d  %s" % (nbytes, key))
        if self.balance:
            lines.append(
                "balancing: policy=%s  fanout reads: %d  hot keys: %d "
                "(+%d copies)  promotions/demotions: %d/%d  migrations: %d "
                "(%d keys, %d bytes)"
                % (
                    self.balance.get("read_policy"),
                    self.balance.get("fanout_reads", 0),
                    self.balance.get("hot_keys", 0),
                    self.balance.get("extra_copies", 0),
                    self.balance.get("promotions", 0),
                    self.balance.get("demotions", 0),
                    self.balance.get("migrations", 0),
                    self.balance.get("keys_moved", 0),
                    self.balance.get("bytes_moved", 0),
                )
            )
        if self.views or self.view_hits or self.view_misses:
            served = self.view_hits + self.view_misses
            rate = self.view_hits / served if served else 0.0
            lines.append(
                "views: %d materialized   %d bytes stored   hits/misses: %d/%d"
                " (%.0f%% hit rate)"
                % (
                    self.views,
                    self.view_bytes,
                    self.view_hits,
                    self.view_misses,
                    100.0 * rate,
                )
            )
        return "\n".join(lines)

    def to_dict(self):
        """A JSON-ready dict of every field plus the derived summaries."""
        data = asdict(self)
        data["peers"] = [asdict(p) for p in self.peers]
        data["hottest_terms"] = [
            {"count": count, "term": term} for count, term in self.hottest_terms
        ]
        data["hot_keys"] = [
            {"read_bytes": nbytes, "key": key} for nbytes, key in self.hot_keys
        ]
        data["hot_peers"] = [
            {"read_bytes": nbytes, "peer": peer}
            for nbytes, peer in self.hot_peers
        ]
        data["gini"] = self.gini
        data["max_over_mean"] = self.max_over_mean
        return data


def network_stats(system, top_terms=8):
    """Collect :class:`NetworkStats` for a live network."""
    from repro.postings import kernels

    stats = NetworkStats(
        kernel_backend=kernels.backend_name(),
        store_backend=getattr(system.config, "store_backend", "") or "",
    )
    term_counts = {}
    for peer in system.peers:
        if not peer.node.alive:
            continue
        load = PeerLoad(peer_index=peer.index)
        store = peer.node.store
        stats.lsm_runs += getattr(store, "num_runs", 0)
        stats.lsm_memtable_postings += getattr(store, "memtable_entries", 0)
        stats.lsm_compactions += getattr(store, "compactions", 0)
        for term in store.terms():
            if term.startswith("viewblk:"):
                # view answer blocks are cache, not index: tallied apart
                load.view_blocks += 1
                load.view_bytes += encoded_size(store.get(term))
                continue
            count = store.count(term)
            load.postings += count
            load.terms += 1
            # aggregate only primary copies: owner-held keys
            if system.net.owner_of(term) is peer.node:
                term_counts[term] = term_counts.get(term, 0) + count
        load.documents = len(peer.documents)
        load.objects = len(peer.node.objects)
        stats.peers.append(load)
        stats.total_postings += load.postings
    stats.total_terms = len(term_counts)
    stats.hottest_terms = sorted(
        ((count, term) for term, count in term_counts.items()), reverse=True
    )[:top_terms]
    balance = getattr(system, "balance", None)
    if balance is not None:
        ledger = balance.ledger
        if ledger.total_reads or ledger.total_writes:
            stats.hot_keys = ledger.hottest_keys(top_terms)
            stats.hot_peers = ledger.hottest_peers(top_terms)
            stats.balance = balance.summary()
    views = getattr(system, "views", None)
    if views is not None:
        stats.view_hits = views.hits
        stats.view_misses = views.misses
        stats.views = sum(
            1 for v in views.catalog().values() if v.materialized
        )
        stats.view_bytes = sum(load.view_bytes for load in stats.peers)
    return stats
