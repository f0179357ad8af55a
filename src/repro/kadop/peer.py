"""One KadoP peer: document storage plus its DHT presence.

XML documents are stored at their publishing peer; only the ``Term``
relation is spread over the DHT.  A peer therefore owns (a) its parsed
documents, each with the element streams the document phase joins over
(:mod:`repro.xmldata.streams`, built when the document is stored and kept
on it, so withdrawing the document drops both), and (b) whatever slice of
the distributed index the DHT assigns to its node.
"""

from repro.index.publisher import extract_postings
from repro.query.matcher import match_document, match_to_postings
from repro.query.pattern import Axis
from repro.query.twigjoin import TwigPlan, twig_matches
from repro.xmldata.parser import parse_document
from repro.xmldata.streams import ElementStreams

_COMPLETE = frozenset()


class KadopPeer:
    """A peer of the KadoP network."""

    def __init__(self, system, index, node):
        self.system = system
        self.index = index  # the integer p of the Peer relation
        self.node = node  # DhtNode
        self.documents = {}  # doc_index -> Document
        self.functional_docs = set()  # doc indexes holding function results
        self._next_doc = 0

    @property
    def uri(self):
        return self.node.uri

    # -- publishing ----------------------------------------------------------

    def publish(self, xml_text, uri=None, resolver=None, inline=False, doc_type=None):
        """Parse and index an XML document; returns a PublishReceipt.

        ``resolver``/``inline`` control entity includes, see
        :func:`repro.xmldata.parser.parse_document`; ``doc_type`` overrides
        the inferred document type (Section 4.1)."""
        resolver = resolver or self.system.resolver
        document = parse_document(
            xml_text, uri=uri, resolver=resolver, inline=inline, doc_type=doc_type
        )
        return self.publish_document(document)

    def publish_document(self, document):
        """Index an already parsed document owned by this peer."""
        doc_index = self._admit(document)
        receipt = self.system.publisher.publish(
            self.node, document, self.index, doc_index
        )
        self._after_index_write(doc_index, document)
        return receipt

    def publish_batch(
        self, xml_texts, uris=None, resolver=None, inline=False, doc_type=None
    ):
        """Parse and bulk-index a batch of XML documents.

        The batch goes through :meth:`Publisher.publish_many`, which
        buffers postings per destination key across every document before
        touching the DHT — one routed append per key per round instead of
        one per document.  The resulting index state (and therefore every
        query answer) is identical to publishing the documents one at a
        time; returns the merged
        :class:`~repro.index.publisher.PublishReceipt`.  Raises
        ``ValueError`` when ``uris`` is given for a different number of
        documents, and a parse error as the parser raises it; either way
        before any document of the batch is admitted.
        """
        xml_texts = list(xml_texts)
        if uris is None:
            uris = [None] * len(xml_texts)
        elif len(uris) != len(xml_texts):
            raise ValueError(
                "publish_batch got %d uris for %d documents" % (len(uris), len(xml_texts))
            )
        resolver = resolver or self.system.resolver
        # every document is parsed before any is admitted: a batch that
        # fails to parse leaves the peer as it was
        documents = [
            parse_document(
                xml_text, uri=uri, resolver=resolver, inline=inline, doc_type=doc_type
            )
            for xml_text, uri in zip(xml_texts, uris)
        ]
        parsed = [(document, self.index, self._admit(document)) for document in documents]
        receipt = self.system.publisher.publish_many(self.node, parsed)
        for document, _, doc_index in parsed:
            self._after_index_write(doc_index, document)
        return receipt

    def _admit(self, document):
        """Take a parsed document in: allot its ``doc_index``, build the
        element streams the document phase joins over, store it."""
        doc_index = self._next_doc
        self._next_doc += 1
        document.streams = ElementStreams(document)
        self.documents[doc_index] = document
        return doc_index

    def _after_index_write(self, doc_index, document):
        """What follows a document's index write: its catalog row, the
        Fundex registration of an intensional document, view maintenance."""
        self.system.catalog.register_doc(
            self.node, self.index, doc_index, document.uri or ""
        )
        if document.streams.intensional:
            self.system.fundex_register(self, doc_index, document)
        if self.system.views is not None:
            self.system.views.on_publish(self, doc_index, document)

    def unpublish(self, doc_index):
        """Withdraw a document: delete its postings from the index.

        Section 2: "a document modification is interpreted as deletion
        followed by insertion".  Each term's postings leave in one
        request, as they arrived in one ``append``.  Returns the number
        of postings removed.
        """
        document = self.documents.pop(doc_index, None)
        if document is None:
            raise KeyError("peer %d has no document %d" % (self.index, doc_index))
        if self.system.views is not None:
            self.system.views.on_unpublish(self, doc_index, document)
        extracted = extract_postings(document, self.index, doc_index)
        removed = 0
        dpp = self.system.dpp
        withdraw = dpp.delete if dpp is not None else self.system.net.delete
        for term_key in sorted(extracted):
            count, _ = withdraw(self.node, term_key, extracted[term_key])
            removed += count
        return removed

    def republish(self, doc_index, xml_text, uri=None, resolver=None, inline=False):
        """Modify a document: delete + insert, as in the paper.

        The new content receives a fresh document index (structural ids
        are not incrementally updatable)."""
        self.unpublish(doc_index)
        return self.publish(xml_text, uri=uri, resolver=resolver, inline=inline)

    # -- the document phase of query processing --------------------------------

    def evaluate(self, pattern, doc_indexes, allow_incomplete=False, plan=None):
        """Evaluate ``pattern`` on the owned documents ``doc_indexes``.

        Returns a list of ``(bindings, incomplete_ids)`` pairs with
        bindings as ``node_id → Posting`` (this is what is shipped back to
        the query peer), by document and then in document order of the
        bound elements: :meth:`matches` with each match as a dict.
        ``plan`` is the pattern's :class:`TwigPlan`, for callers that
        evaluate one pattern at many peers.  Only ``allow_incomplete``
        (Fundex potential answers, which bind elements *without* a match
        below them) has no stream form and goes through the tree matcher,
        document by document."""
        if allow_incomplete:
            return [
                (match_to_postings(match, self.index, doc_index), match.incomplete)
                for doc_index in doc_indexes
                for match in match_document(
                    pattern, self.documents[doc_index], allow_incomplete=True
                )
            ]
        if plan is None:
            plan = TwigPlan(pattern)
        ids = range(len(plan.nodes))
        return [(dict(zip(ids, match)), _COMPLETE) for match in self.matches(plan, doc_indexes)]

    def matches(self, plan, doc_indexes):
        """The matches of ``plan``'s pattern in the owned documents
        ``doc_indexes``, each a tuple of postings in ``node_id`` order, by
        document and then in document order of the bound elements.

        The documents' stored element streams are concatenated per pattern
        node in ascending ``doc`` and joined once, by the same twig join
        that runs the index query; the join's output follows the order of
        its rows, so the matches come out exactly as one join per document
        would give them.  A document the peer no longer holds (an
        unpublished document whose postings linger in a stale view block or
        a resurrected index copy) and a document in which some node has
        nothing to bind add no rows."""
        streams = None
        for doc_index in sorted(doc_indexes):
            document = self.documents.get(doc_index)
            if document is None:
                continue
            cols = self.document_streams(plan, doc_index, document)
            if cols is None:
                continue
            if streams is None:
                streams = cols
            else:
                for stream, more in zip(streams, cols):
                    stream.extend_unchecked(more)
        if streams is None:
            return []
        return twig_matches(plan.pattern, dict(enumerate(streams)), plan)

    def document_streams(self, plan, doc_index, document):
        """The stream of each pattern node of ``plan`` in ``document``
        (this peer's document ``doc_index``, held or just withdrawn), in
        ``node_id`` order; None when some node has nothing to bind in it.
        Joining them with :func:`twig_matches` evaluates the pattern on the
        document."""
        local = document.streams
        streams = []
        for node in plan.nodes:
            # a root on the ``/`` axis binds the document root only
            root_only = node.parent is None and node.axis is Axis.CHILD
            if node.word is not None:
                cols = local.word_columns(self.index, doc_index, node.word, root_only)
            else:
                label = None if node.is_wildcard else node.label
                cols = local.label_columns(
                    self.index, doc_index, label, node.value_equals, root_only
                )
            if cols is None:
                return None
            streams.append(cols)
        return streams

    def __repr__(self):
        return "KadopPeer(%d, %d docs)" % (self.index, len(self.documents))
