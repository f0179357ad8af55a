"""Document publishing: posting extraction and batched index insertion.

To index a document, the system constructs in one traversal the element
postings (Section 2) and routes each posting, using the DHT's multi-hop
routing, to the peer in charge of the corresponding term; postings of the
same term are buffered and sent in batches (Section 3).

The publisher supports the three index-insertion paths the paper compares:

* ``put``     — the original quadratic DHT insert: ``append`` on the
                PAST-style store, which reads, reconciles and rewrites;
* ``append``  — the extended API over the B+-tree store (linear);
* DPP         — ``append`` through the partitioned structure of Section 4.
"""

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, repeat
from operator import itemgetter, not_

from repro.postings.plist import PostingList
from repro.postings.term_relation import LABEL_PREFIX, WORD_PREFIX
from repro.xmldata.streams import ElementStreams
from repro.xmldata.words import STOP_WORDS, tokenize

#: postings per insertion request: a longer list is sent in chunks of this
BATCH_SIZE = 4096


def extract_postings(document, peer_index, doc_index):
    """One-pass extraction of the document's ``Term`` tuples.

    Returns ``{term_key: PostingList}``: what a publish inserts and an
    unpublish must delete.  The lists are cut from the columns of the
    document's :class:`~repro.xmldata.streams.ElementStreams` (laid out
    here when the document has none), each in document order, which is
    ``(p, d, sid)`` order within one document:

    * a label's list is its span of the streams' label-grouped rows;
    * a word's list holds the elements whose direct text has the word
      (stop words are not indexed).  Each text node is tokenized once,
      and one sort of the distinct ``(word, owner)`` pairs by word groups
      them, every group in document order.

    No row is built, sorted or de-duplicated per posting.
    """
    streams = document.streams
    if streams is None:
        streams = ElementStreams(document)
    spans, start, end, level = streams.spans, streams.start, streams.end, streams.level
    n = spans[None][1]
    # (word, owner row) once per word and element, stop words left out;
    # the texts come grouped by owner in document order, and the stable
    # sort by word keeps that order inside each word's run
    row_of = dict(zip(start, range(n)))
    tokens = list(map(tokenize, streams.texts))
    flat = list(chain.from_iterable(tokens))
    owners = map(repeat, map(row_of.__getitem__, streams.text_starts), map(len, tokens))
    kept = map(not_, map(STOP_WORDS.__contains__, flat))
    pairs = dict.fromkeys(compress(zip(flat, chain.from_iterable(owners)), kept))
    words, rows = zip(*sorted(pairs, key=itemgetter(0))) if pairs else ((), ())
    counts = Counter(words)  # in sorted order, as the words come
    # every list back to back: the label-grouped rows [n, 2n) of the
    # streams (``spans`` opens with None, the "*" stream over [0, n)), then
    # the word rows; term i holds rows [bounds[i], bounds[i + 1])
    keys = list(map(LABEL_PREFIX.__add__, islice(spans, 1, None)))
    keys += map(WORD_PREFIX.__add__, counts)
    bounds = [lo - n for lo, _ in islice(spans.values(), 1, None)]
    bounds += accumulate(counts.values(), initial=n)
    start = start[n:] + array("q", map(start.__getitem__, rows))
    end = end[n:] + array("q", map(end.__getitem__, rows))
    level = level[n:] + array("q", map(level.__getitem__, rows))
    peers, docs = array("q", (peer_index,)) * len(start), array("q", (doc_index,)) * len(start)
    runs = list(map(slice, bounds, bounds[1:]))
    cuts = [map(column.__getitem__, runs) for column in (peers, docs, start, end, level)]
    return dict(zip(keys, map(PostingList.from_columns, *cuts)))


@dataclass
class PublishReceipt:
    """Cost summary of publishing one or more documents."""

    documents: int = 0
    postings: int = 0
    terms: int = 0
    duration_s: float = 0.0
    bytes_sent: int = 0
    messages: int = 0  # routed index-insertion requests issued

    def merge(self, other):
        self.documents += other.documents
        self.postings += other.postings
        self.terms += other.terms
        self.duration_s += other.duration_s
        self.bytes_sent += other.bytes_sent
        self.messages += other.messages
        return self


class Publisher:
    """Indexes documents on behalf of one publishing peer."""

    def __init__(self, net, dpp):
        self.net = net
        self.dpp = dpp

    def publish(self, src_node, document, peer_index, doc_index):
        """Index ``document`` (already parsed); returns a receipt.

        The simulated duration covers parsing, posting routing, and the
        remote store work, sequentially — one publisher is a single
        pipeline, which is why Figure 2's multi-publisher runs divide the
        total time."""
        receipt = PublishReceipt(documents=1)
        extracted = self._extract(receipt, document, peer_index, doc_index)
        groups = [(key, document.doc_type, extracted[key]) for key in sorted(extracted)]
        return self._send(src_node, groups, self.net.append, receipt)

    def publish_many(self, src_node, docs):
        """Bulk-publish a batch of parsed documents; returns one receipt.

        ``docs`` is an iterable of ``(document, peer_index, doc_index)``.
        Postings are buffered per destination term key *across the whole
        batch*, so each key costs one amortized locate plus one batched
        transfer per round (:meth:`DhtNetwork.append_batch`) instead of one
        multi-hop routed append per document — the order-of-magnitude
        routed-message reduction of the bulk pipeline.  The final index
        state is identical to publishing the same documents one at a time
        (stores deduplicate and keep postings sorted), so query answers
        are byte-identical; only message counts, wire bytes, and the
        simulated durations differ.
        """
        docs = list(docs)
        receipt = PublishReceipt(documents=len(docs))
        buffered = {}
        for document, peer_index, doc_index in docs:
            extracted = self._extract(receipt, document, peer_index, doc_index)
            for term_key, plist in extracted.items():
                buffered.setdefault((term_key, document.doc_type), []).append(plist)
        groups = [
            (term_key, doc_type, _joined(buffered[term_key, doc_type]))
            for term_key, doc_type in sorted(
                buffered, key=lambda k: (k[0], k[1] or "")
            )
        ]
        return self._send(src_node, groups, self.net.append_batch, receipt)

    def _extract(self, receipt, document, peer_index, doc_index):
        """:func:`extract_postings` with the document's parse time, terms
        and postings folded into ``receipt``."""
        receipt.duration_s += self.net.cost.parse_time(document.source_bytes)
        extracted = extract_postings(document, peer_index, doc_index)
        receipt.terms += len(extracted)
        receipt.postings += sum(map(len, extracted.values()))
        return extracted

    def _send(self, src_node, groups, flat_append, receipt):
        """The one publish loop: ship each ``(term_key, doc_type, postings)``
        group in batches of :data:`BATCH_SIZE` and fold every op into
        ``receipt``.  The two callers differ in how they group (one
        document, or a whole batch buffered per key) and in the flat
        index's send arm: the routed ``append``, or the locate-once
        ``append_batch``, on every store backend.  DPP appends take the
        same arm either way (one directory round per term per chunk
        already amortizes the batch).  A list that fits in one batch is
        handed on as it is, not copied."""
        size = BATCH_SIZE
        for term_key, doc_type, plist in groups:
            for batch in plist.chunks(size) if len(plist) > size else (plist,):
                if self.dpp is not None:
                    op = self.dpp.append(src_node, term_key, batch, doc_type=doc_type)
                else:
                    op = flat_append(src_node, term_key, batch)
                receipt.messages += 1
                receipt.duration_s += op.duration_s
                receipt.bytes_sent += op.request_bytes + op.response_bytes
        return receipt


def _joined(parts):
    """One key's lists from a batch of documents as one list: the only
    list itself, or their ordered union (a plain concatenation when the
    documents come in ``(p, d)`` order, as a batch's do)."""
    return parts[0] if len(parts) == 1 else PostingList.concat(parts)
