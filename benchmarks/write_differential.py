"""Seeded configuration differential for refactors of the index write path.

Publishes one seeded 16-document DBLP-like corpus on 8 peers, once per
configuration: 8 serial ``publish`` calls, the 4 queries (so views
materialise before the later writes hit them), one ``publish_batch`` of 8,
3 ``unpublish``, 1 ``republish``, ``repair()``, the 4 queries again.  The
configurations cover every arm of the write path: flat ``append``;
PAST-style ``put`` on the naive store; LSM; DPP ordered / unordered; DPP +
auto-materialised views at a 2-posting block size; replication 1 and 3; Chord; a crash, a
publish while the peer is down and a restart.  One digest line per configuration
hashes every ``PublishReceipt``, removed count, repair report, meter
total, per-node store content and stamp, every DPP root (``seq``,
pseudo-key, condition, zone, types per entry), every view's blocks, and
the answers.  ``--dump FILE`` writes the undigested log.  Two checkouts
behave identically when their outputs are byte-equal, under any
``PYTHONHASHSEED``:

    PYTHONHASHSEED=1 PYTHONPATH=<parent>/src python benchmarks/write_differential.py > a
    PYTHONHASHSEED=2 PYTHONPATH=src python benchmarks/write_differential.py > b
    cmp a b
"""

import argparse
import hashlib

from repro.index.dpp import DppIndex
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.workloads.dblp import DblpGenerator

PEERS = 8
SERIAL = 8  # documents published one at a time, two per peer 0-3
BULK = 8  # documents of the one publish_batch, all at BULK_PEER
BULK_PEER = 2  # mid-order, so the batch's postings span existing DPP blocks
DOWN_PEER = 6  # publishes nothing; the one that may crash

QUERIES = (
    "//article//author",
    "//article[//title]//author",
    "//dblp//article//journal",
    "//article[contains(.//title,'system')]//author",
)

#: (peer, doc_index) withdrawn: a serial document, one of the batch, a
#: serial one; then (peer 1, doc 0) is republished
UNPUBLISH = ((0, 0), (BULK_PEER, 3), (3, 1))
REPUBLISH = (1, 0)

DPP = dict(use_dpp=True, dpp_block_entries=16)

#: name -> (config overrides, crash DOWN_PEER around an extra publish?)
CONFIGS = (
    ("append", {}, False),
    ("put-naive", dict(store_backend="naive"), False),
    ("lsm", dict(store_backend="lsm"), False),
    ("dpp-ordered", dict(DPP), False),
    ("dpp-unordered", dict(DPP, dpp_ordered_splits=False), False),
    (
        "dpp-views",
        dict(
            DPP, use_views=True, view_auto_materialize_after=1,
            view_block_entries=2,
        ),
        False,
    ),
    ("replication-1", dict(replication=1), False),
    ("replication-3", dict(replication=3), False),
    ("dpp-replication-3", dict(DPP, replication=3), False),
    ("chord", dict(overlay="chord"), False),
    ("crash-restart", {}, True),
    ("dpp-crash-restart", dict(DPP), True),
)


def _value(value):
    if isinstance(value, dict):
        return "{%s}" % ", ".join(
            "%r: %s" % (k, _value(value[k])) for k in sorted(value)
        )
    if isinstance(value, (set, frozenset)):
        return repr(sorted(value))
    return repr(value)


def _publish_receipt(receipt):
    return "docs=%d postings=%d terms=%d t=%r bytes=%d msgs=%d" % (
        receipt.documents, receipt.postings, receipt.terms,
        receipt.duration_s, receipt.bytes_sent, receipt.messages,
    )


def _meter(system, log):
    log.append("meter %s" % _value(system.net.meter.snapshot()))
    log.append("messages %d" % system.net.meter.messages())


def _queries(system, log):
    for i, text in enumerate(QUERIES):
        answers = system.query(text, peer=system.peers[i % 4])
        log.append("query %d %r" % (i, [(a.peer, a.doc, a.bindings) for a in answers]))


def _state(system, log):
    net = system.net
    roots = {}
    for node in net.nodes:
        log.append("node %d alive=%s" % (node.peer_index, node.alive))
        for key in sorted(node.store.terms()):
            log.append(
                "  store %s v%d %r"
                % (key, node.versions.get(key, 0), node.store.get(key).items())
            )
        for key in sorted(node.objects):
            obj, nbytes = node.objects[key]
            log.append(
                "  object %s v%d %d" % (key, node.versions.get(key, 0), nbytes)
            )
            if key.startswith(DppIndex.ROOT_KEY_PREFIX):
                roots.setdefault(key, obj)
    for key in sorted(roots):
        root = roots[key]
        log.append("root %s next_seq=%d" % (key, root.next_seq))
        for entry in root.entries:
            log.append(
                "  entry %d %s %r %r types=%r"
                % (
                    entry.seq, entry.pseudo_key, entry.condition, entry.zone,
                    sorted(entry.types),
                )
            )
    if system.views is not None:
        catalog = system.views.catalog()
        for canonical in sorted(catalog):
            view = catalog[canonical]
            log.append(
                "view %s %s materialized=%s next_seq=%d base_bytes=%r"
                % (
                    view.view_id, canonical, view.materialized, view.next_seq,
                    view.base_bytes,
                )
            )
            for block in view.blocks:
                log.append(
                    "  block %s %r..%r n=%d bytes=%d"
                    % (block.key, block.lo_doc, block.hi_doc, block.count,
                       block.nbytes)
                )


def run_config(name, overrides, crash):
    system = KadopNetwork.create(PEERS, config=KadopConfig(**overrides), seed=3)
    dblp = DblpGenerator(seed=11, target_doc_bytes=1500)
    # the overrides, not repr(config): adding or deleting an unrelated
    # config field must not move every digest
    log = ["config %s %s" % (name, _value(overrides))]
    for i in range(SERIAL):
        receipt = system.peers[i % 4].publish(dblp.document(i), uri="w:%d" % i)
        log.append("publish %d %s" % (i, _publish_receipt(receipt)))
    _queries(system, log)
    _meter(system, log)
    bulk = range(SERIAL, SERIAL + BULK)
    receipt = system.peers[BULK_PEER].publish_batch(
        [dblp.document(i) for i in bulk], uris=["w:%d" % i for i in bulk]
    )
    log.append("publish_batch %s" % _publish_receipt(receipt))
    _meter(system, log)
    if crash:
        down = system.peers[DOWN_PEER]
        system.crash_peer(down)
        receipt = system.peers[0].publish(dblp.document(90), uri="w:down")
        log.append("publish while down %s" % _publish_receipt(receipt))
        system.restart_peer(down)
        _meter(system, log)
    for peer, doc_index in UNPUBLISH:
        removed = system.peers[peer].unpublish(doc_index)
        log.append("unpublish %d/%d removed=%d" % (peer, doc_index, removed))
    peer, doc_index = REPUBLISH
    receipt = system.peers[peer].republish(
        doc_index, dblp.document(91), uri="w:again"
    )
    log.append("republish %s" % _publish_receipt(receipt))
    _meter(system, log)
    log.append("repair %s" % _value(system.repair().to_dict()))
    _queries(system, log)
    _meter(system, log)
    _state(system, log)
    return log


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="run just this configuration")
    parser.add_argument("--dump", help="write the undigested log here")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    dump = open(args.dump, "w") if args.dump else None
    ran = 0
    try:
        for name, overrides, crash in CONFIGS:
            if args.only and name != args.only:
                continue
            log = run_config(name, overrides, crash)
            text = "\n".join(log) + "\n"
            if dump is not None:
                dump.write(text)
            total.update(text.encode("utf-8"))
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
            print("write %-22s lines=%-5d %s" % (name, len(log), digest))
            ran += 1
    finally:
        if dump is not None:
            dump.close()
    print("%d write configurations, digest %s" % (ran, total.hexdigest()))


if __name__ == "__main__":
    main()
