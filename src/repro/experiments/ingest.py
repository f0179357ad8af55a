"""Ingest ablation: batched vs doc-at-a-time publishing, three backends.

The write-path counterpart of the serving benchmarks: the same document
corpus is published onto fresh networks through the two publish paths —

* ``unbatched``  one :meth:`KadopPeer.publish` per document: every
                 destination key pays a routed insertion request per
                 document that touches it;
* ``batched``    one :meth:`KadopPeer.publish_batch` over the whole
                 corpus: the publisher buffers postings per destination
                 key across the batch, so each key sees one routed
                 append per round.

— crossed with the three per-peer storage backends (clustered B+-tree,
PAST-style gzip blobs, LSM memtable+runs).  Per cell: routed insertion
messages, simulated bytes on the wire, simulated ingest seconds (total
and per document), and postings indexed.  Correctness is the fixed
invariant: every cell must serve byte-identical answers to the
reference cell (btree, unbatched) on a shared query mix — batching and
backend choice are performance models, never semantics changes.

At batch size 32 the batched pipeline must cut routed insertion messages
by at least :data:`MESSAGE_REDUCTION` and put no more bytes on the wire
than the unbatched one, on every backend; ``repro run
ingest --check`` also compares every number with the committed
``BENCH_ingest.json``.
"""

from repro.experiments.harness import answer_sigs
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.workloads.dblp import DblpGenerator

DESCRIPTION = "Write-path ablation: batched vs doc-at-a-time publishing"
BASELINE = "BENCH_ingest.json"

#: documents per ingest run, and the size of the one batch
DOCS = 32

BACKENDS = ("btree", "naive", "lsm")
VARIANTS = ("unbatched", "batched")

#: the floor on unbatched routed messages / batched routed messages
MESSAGE_REDUCTION = 3.0

#: the shared query mix every cell must answer identically
QUERIES = (
    "//article//author",
    "//inproceedings//title",
    "//dblp//article//author",
    "//article",
)


def _documents(seed):
    gen = DblpGenerator(seed=seed, target_doc_bytes=4_000)
    return [(gen.document(), "dblp:%d" % i) for i in range(DOCS)]


def _network(backend, seed, num_peers):
    config = KadopConfig(replication=2, store_backend=backend)
    return KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)


def _answer_sigs(net):
    sigs = []
    for query_text in QUERIES:
        answers, _report = net.query_with_report(query_text)
        sigs.append(sorted(answer_sigs(answers)))
    return sigs


def run(num_peers=10, seed=0):
    """``{backend: {variant: row}}``; rows carry the answer check."""
    docs = _documents(seed + 1)
    results = {}
    reference_sigs = None
    for backend in BACKENDS:
        rows = {}
        for variant in VARIANTS:
            net = _network(backend, seed, num_peers)
            publisher = net.peers[0]
            before = net.net.meter.snapshot()
            if variant == "batched":
                receipt = publisher.publish_batch(
                    [xml for xml, _ in docs], uris=[uri for _, uri in docs]
                )
            else:
                receipt = None
                for xml, uri in docs:
                    part = publisher.publish(xml, uri=uri)
                    receipt = part if receipt is None else receipt.merge(part)
            after = net.net.meter.snapshot()
            ingest_bytes = sum(after.values()) - sum(before.values())
            sigs = _answer_sigs(net)
            if reference_sigs is None:
                reference_sigs = sigs  # btree unbatched: the reference
            rows[variant] = {
                "documents": receipt.documents,
                "postings": receipt.postings,
                "messages": receipt.messages,
                "bytes": ingest_bytes,
                "sim_s": receipt.duration_s,
                "per_doc_ms": receipt.duration_s / DOCS * 1000.0,
                "answers_match_reference": sigs == reference_sigs,
            }
        results[backend] = rows
    return results


def format_rows(results):
    lines = [
        "%-6s %-10s %5s %9s %9s %10s %9s %11s %8s"
        % (
            "store", "variant", "docs", "postings", "messages",
            "bytes", "sim (s)", "ms/doc", "answers",
        )
    ]
    for backend in BACKENDS:
        for variant in VARIANTS:
            row = results[backend][variant]
            lines.append(
                "%-6s %-10s %5d %9d %9d %10d %9.3f %11.2f %8s"
                % (
                    backend,
                    variant,
                    row["documents"],
                    row["postings"],
                    row["messages"],
                    row["bytes"],
                    row["sim_s"],
                    row["per_doc_ms"],
                    "OK" if row["answers_match_reference"] else "DIFF",
                )
            )
        unb = results[backend]["unbatched"]["messages"]
        bat = results[backend]["batched"]["messages"]
        lines.append(
            "%-6s %-10s routed-message reduction: %.1fx"
            % (backend, "", unb / max(1, bat))
        )
    return "\n".join(lines)


def check_shape(results):
    for backend in BACKENDS:
        rows = results[backend]
        for variant in VARIANTS:
            row = rows[variant]
            # batching and backend choice never change answers
            assert row["answers_match_reference"], "%s/%s" % (
                backend, variant,
            )
            assert row["documents"] == DOCS, "%s/%s" % (backend, variant)
            assert row["postings"] > 0 and row["bytes"] > 0
        # both paths index the identical posting volume
        assert rows["batched"]["postings"] == rows["unbatched"]["postings"]
        # the tentpole claim: batching amortizes routed insertions
        unb = rows["unbatched"]["messages"]
        bat = rows["batched"]["messages"]
        assert unb >= MESSAGE_REDUCTION * bat, (
            "%s: unbatched %d msgs < %.1fx batched %d msgs"
            % (backend, unb, MESSAGE_REDUCTION, bat)
        )
        # ... without putting more bytes on the wire
        unb, bat = rows["unbatched"]["bytes"], rows["batched"]["bytes"]
        assert bat <= unb, "%s: batched %d bytes > unbatched %d bytes" % (
            backend, bat, unb,
        )
