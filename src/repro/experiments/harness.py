"""What the experiment drivers share: the corpus builder and the serving rows.

Every DBLP-backed driver builds its network through :func:`dblp_network`
(or, when it grows the corpus between checkpoints, through
:class:`DblpCorpus`), so "which documents, from which peers" is written
once.  The two serving sweeps (``serving``, ``skew_balance``) share the
serial answer reference and the ``--telemetry`` row fields.
"""

from repro.kadop.system import KadopNetwork
from repro.obs import format_finding, serving_view
from repro.workloads.dblp import DblpGenerator

#: latency objective of the telemetry view under ``--telemetry``;
#: calibrated between ``BENCH_skew.json``'s balanced (max p99 0.51s) and
#: unbalanced (min p99 1.25s at Zipf >= 1.0) cells, so diagnostics flag
#: exactly the unbalanced skewed cells
SLO_OBJECTIVE_S = 0.8


class DblpCorpus:
    """DBLP-like documents of ``doc_bytes`` each going into ``net``
    round-robin: document ``i`` is published by ``net.peers[i %
    publishers]``.  ``docs`` and ``bytes`` count what is in so far."""

    def __init__(self, net, publishers, doc_bytes, seed):
        self.net = net
        self.publishers = publishers
        self.gen = DblpGenerator(seed=seed, target_doc_bytes=doc_bytes)
        self.docs = 0
        self.bytes = 0

    def publish(self, texts):
        """Publish ``texts`` as the next documents; returns the receipts."""
        receipts = [
            self.net.peers[i % self.publishers].publish(text, uri="d:%d" % i)
            for i, text in enumerate(texts, self.docs)
        ]
        self.docs += len(texts)
        self.bytes += sum(map(len, texts))
        return receipts

    def grow_to(self, target_bytes):
        """Publish until ``target_bytes`` of XML are in; returns the receipts."""
        return self.publish(
            self.gen.documents_for_bytes(target_bytes - self.bytes, self.docs)
        )


def dblp_network(
    config, num_peers, docs, doc_bytes, publishers=None, seed=0, gen_seed=None
):
    """A ``num_peers`` network holding ``docs`` DBLP-like documents,
    published by its first ``publishers`` peers (half of them unless
    given).  ``seed`` places the peers and, unless ``gen_seed`` says
    otherwise, draws the documents."""
    net = KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)
    corpus = DblpCorpus(
        net,
        publishers or num_peers // 2,
        doc_bytes,
        seed if gen_seed is None else gen_seed,
    )
    corpus.publish(corpus.gen.documents(docs))
    return net


def answer_sigs(answers):
    """Answers as comparable, JSON-safe rows."""
    return [(a.peer, a.doc, repr(a.bindings)) for a in answers]


def serial_answer_sigs(net, arrivals):
    """``{seq: answer_sigs}`` of running ``arrivals`` one query at a time
    on ``net``: the reference every concurrent variant must reproduce."""
    sigs = {}
    for seq, arrival in enumerate(arrivals):
        answers, _ = net.query_with_report(
            arrival.query_text,
            keyword_steps=arrival.keyword_steps,
            peer=net.peers[arrival.src],
        )
        sigs[seq] = answer_sigs(answers)
    return sigs


def serve_row(net, arrivals, serial_sigs, telemetry):
    """Serve ``arrivals`` on ``net``; returns ``(result, row)``.

    The row is ``result.to_dict()`` plus ``answers_match_serial``.
    ``telemetry`` traces the serve (unless a tracer is attached already)
    and embeds the ``slo`` / ``findings`` of its telemetry view; tracing
    is strictly observational, so every other number of the row is
    identical either way."""
    if telemetry and net.tracer is None:
        net.enable_tracing()
    result = net.serve(arrivals)
    row = result.to_dict()
    row["answers_match_serial"] = serial_sigs == {
        q.seq: answer_sigs(q.answers) for q in result.queries
    }
    if telemetry:
        view = serving_view(net, result, objective_s=SLO_OBJECTIVE_S)
        row["slo"] = view["slo"]
        row["findings"] = view["findings"]
    return result, row


def diagnostics_lines(results, axis_keys, variants):
    """The findings block under a serving table, when ``--telemetry`` ran."""
    lines = []
    for axis in axis_keys:
        for name, _ in variants:
            for f in results[axis][name].get("findings", ()):
                lines.append("  %s/%s %s" % (axis, name, format_finding(f)))
    return ["", "diagnostics (--telemetry):"] + lines if lines else []
