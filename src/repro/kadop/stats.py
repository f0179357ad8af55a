"""Network introspection: index sizes, load balance, hot terms.

Section 8 lists load balancing among the optimizer's future targets; the
prerequisite is visibility into how the DHT spread the index.  Everything
here is a view computed after the run: index sizes from the alive peers'
stores, the reads each peer served from the span tree
(:func:`repro.obs.served_reads`, so the hot peers and keys need a tracer
on while the reads ran), and the balancer's and view manager's counters.
:func:`network_stats` builds the ``network`` payload of ``repro stats
--json`` and :func:`format_stats` renders it as text.
"""

from collections import Counter

from repro.obs.profile import served_reads
from repro.postings.encoder import encoded_size
from repro.views import is_view_key


def gini(loads):
    """Gini coefficient of ``loads`` (0 = perfectly even).

    The standard load-imbalance summary: the DHT hashes terms, so the
    load is uneven exactly to the extent posting lists are skewed —
    which DBLP's are, heavily (Section 4.3)."""
    loads = sorted(loads)
    n = len(loads)
    total = sum(loads)
    if n == 0 or total == 0:
        return 0.0
    cum = 0.0
    for i, load in enumerate(loads, start=1):
        cum += i * load
    return (2 * cum) / (n * total) - (n + 1) / n


def max_over_mean(loads):
    """Peak-to-average load (1.0 = perfectly even)."""
    if not loads or not sum(loads):
        return 1.0
    return max(loads) / (sum(loads) / len(loads))


def _hottest(read_bytes, field, n):
    """The ``n`` entries of ``read_bytes`` with the most bytes (ties by
    ident), as ``{"read_bytes": ..., field: ident}`` rows."""
    ranked = sorted(read_bytes.items(), key=lambda item: (-item[1], item[0]))
    return [{"read_bytes": nbytes, field: ident} for ident, nbytes in ranked[:n]]


def network_stats(system, top_terms=8):
    """The ``network`` payload of ``repro stats --json`` for a live
    network: one row per alive peer, the totals, the ``top_terms``
    heaviest terms, peers and keys, and the balancing and view counters."""
    from repro.postings import kernels

    alive = [peer for peer in system.peers if peer.node.alive]
    stores = [peer.node.store for peer in alive]
    peers = []
    term_counts = {}
    for peer, store in zip(alive, stores):
        row = dict(
            peer_index=peer.index,
            postings=0,
            terms=0,
            documents=len(peer.documents),
            objects=len(peer.node.objects),
            view_blocks=0,
            view_bytes=0,
        )
        for term in store.terms():
            if is_view_key(term):
                # view answer blocks are cache, not index: tallied apart
                row["view_blocks"] += 1
                row["view_bytes"] += encoded_size(store.get(term))
                continue
            count = store.count(term)
            row["postings"] += count
            row["terms"] += 1
            # aggregate only primary copies: owner-held keys
            if system.net.owner_of(term) is peer.node:
                term_counts[term] = term_counts.get(term, 0) + count
        peers.append(row)
    loads = [row["postings"] for row in peers]
    hottest_terms = sorted(
        ((count, term) for term, count in term_counts.items()), reverse=True
    )[:top_terms]
    key_bytes, peer_bytes = Counter(), Counter()
    tracer = system.tracer
    for _, peer, key, nbytes in served_reads(tracer.spans if tracer else ()):
        key_bytes[key] += nbytes
        peer_bytes[peer] += nbytes
    # the balancer's counters are shown once a posting list has moved
    moved = system.meter.messages("postings")
    stats = {
        "peers": peers,
        "total_postings": sum(loads),
        "total_terms": len(term_counts),
        "hottest_terms": [
            {"count": count, "term": term} for count, term in hottest_terms
        ],
        "gini": gini(loads),
        "max_over_mean": max_over_mean(loads),
        "hot_keys": _hottest(key_bytes, "key", top_terms),
        "hot_peers": _hottest(peer_bytes, "peer", top_terms),
        "balance": system.balance.summary() if moved else {},
        "kernel_backend": kernels.backend_name(),
        "store_backend": system.config.store_backend,
        # LSM internals, zero on the other stores: frozen runs, buffered
        # memtable postings and compaction folds
        "lsm_runs": sum(getattr(s, "num_runs", 0) for s in stores),
        "lsm_memtable_postings": sum(getattr(s, "memtable_entries", 0) for s in stores),
        "lsm_compactions": sum(getattr(s, "compactions", 0) for s in stores),
        "views": 0,
        "view_hits": 0,
        "view_misses": 0,
        "view_bytes": 0,
    }
    views = system.views
    if views is not None:
        stats["views"] = sum(1 for v in views.catalog().values() if v.materialized)
        stats["view_hits"] = views.hits
        stats["view_misses"] = views.misses
        stats["view_bytes"] = sum(row["view_bytes"] for row in peers)
    return stats


def format_stats(stats):
    """The text of ``repro stats``: a :func:`network_stats` payload."""
    lines = [
        "peers: %d   postings: %d   distinct terms: %d"
        % (len(stats["peers"]), stats["total_postings"], stats["total_terms"])
    ]
    store = "store backend: %(store_backend)s" % stats
    if stats["store_backend"] == "lsm":
        store += (
            "  (runs: %(lsm_runs)d  memtable postings: %(lsm_memtable_postings)d"
            "  compactions: %(lsm_compactions)d)" % stats
        )
    lines.append(store)
    lines.append("kernel backend: %(kernel_backend)s" % stats)
    lines.append("load balance: gini=%(gini).3f  max/mean=%(max_over_mean).2f" % stats)
    lines.append("hottest terms:")
    for row in stats["hottest_terms"]:
        lines.append("  %8d  %s" % (row["count"], row["term"]))
    if stats["hot_keys"] or stats["hot_peers"]:
        lines.append("hottest peers by served read bytes:")
        for row in stats["hot_peers"]:
            lines.append("  %10d  peer %d" % (row["read_bytes"], row["peer"]))
        lines.append("hottest keys by served read bytes:")
        for row in stats["hot_keys"]:
            lines.append("  %10d  %s" % (row["read_bytes"], row["key"]))
    if stats["balance"]:
        lines.append(
            "balancing: policy=%(read_policy)s  fanout reads: %(fanout_reads)d"
            "  hot keys: %(hot_keys)d (+%(extra_copies)d copies)"
            "  promotions/demotions: %(promotions)d/%(demotions)d"
            "  migrations: %(migrations)d (%(keys_moved)d keys, %(bytes_moved)d bytes)"
            % stats["balance"]
        )
    hits, misses = stats["view_hits"], stats["view_misses"]
    if stats["views"] or hits or misses:
        rate = hits / (hits + misses) if hits + misses else 0.0
        lines.append(
            "views: %d materialized   %d bytes stored   hits/misses: %d/%d"
            " (%.0f%% hit rate)"
            % (stats["views"], stats["view_bytes"], hits, misses, 100.0 * rate)
        )
    return "\n".join(lines)
