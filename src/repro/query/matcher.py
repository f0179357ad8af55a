"""Direct tree-pattern evaluation over parsed documents: the oracle.

A recursive matcher over element trees, kept deliberately plain and
independent of the twig join.  It is what ``kadop.verify.oracle_answers``,
the fuzzer and every differential test compare the system against — both
the index query and the document phase (``KadopPeer.matches``) run the
holistic twig join, so a fast path and its oracle share no code.  Outside
the oracle it serves only where a join over element streams does not
apply: potential answers (below), Fundex sub-pattern checks on functional
documents, and view maintenance at publish time.

For Section 6 (intensional data), evaluation can run in *potential answer*
mode: when a required sub-pattern has no match under an element whose
subtree contains an unexpanded include, the element's binding is marked
incomplete (the paper's ``(e1, e2?)`` tuples) instead of discarding the
candidate; the Fundex later completes or refutes these answers.
"""

from repro.query.pattern import Axis
from repro.xmldata.tree import Element
from repro.xmldata.words import tokenize


class Match:
    """One (possibly incomplete) embedding of a pattern into a document.

    ``bindings`` maps pattern node_id → :class:`Element`; node ids in
    ``incomplete`` are bound to an element whose missing sub-patterns might
    be satisfied by intensional data.
    """

    __slots__ = ("bindings", "incomplete")

    def __init__(self, bindings=None, incomplete=frozenset()):
        self.bindings = dict(bindings or {})
        self.incomplete = frozenset(incomplete)

    @property
    def is_complete(self):
        return not self.incomplete

    def merged(self, other):
        combined = dict(self.bindings)
        combined.update(other.bindings)
        return Match(combined, self.incomplete | other.incomplete)

    def key(self):
        return (
            tuple(sorted((k, id(v)) for k, v in self.bindings.items())),
            self.incomplete,
        )

    def __repr__(self):
        marks = {
            nid: ("%s?" if nid in self.incomplete else "%s") % el.label
            for nid, el in self.bindings.items()
        }
        return "Match(%r)" % (marks,)


def _direct_words(element):
    words = set()
    for text in element.iter_text():
        words.update(tokenize(text))
    return words


class _Evaluator:
    def __init__(self, document, allow_incomplete=False):
        self.document = document
        self.allow_incomplete = allow_incomplete
        self._all_elements = list(document.iter_elements())
        self._words_cache = {}

    def _node_matches(self, pnode, element):
        if pnode.is_word:
            cached = self._words_cache.get(id(element))
            if cached is None:
                cached = _direct_words(element)
                self._words_cache[id(element)] = cached
            return pnode.word in cached
        if not (pnode.is_wildcard or pnode.label == element.label):
            return False
        if pnode.value_equals is not None:
            direct = " ".join(element.iter_text()).strip()
            if direct != pnode.value_equals:
                return False
        return True

    def _axis_candidates(self, axis, context):
        """Elements reachable from ``context`` via ``axis``."""
        if context is None:  # the virtual document root
            if axis is Axis.CHILD:
                return [self.document.root]
            return self._all_elements
        if axis is Axis.CHILD:
            return context.child_elements()
        result = []
        if axis is Axis.DESCENDANT_OR_SELF:
            result.append(context)
        stack = list(context.child_elements())
        order = []
        while stack:
            el = stack.pop()
            order.append(el)
            stack.extend(el.child_elements())
        result.extend(sorted(order, key=lambda e: e.sid.start))
        return result

    def embeddings(self, pnode, context):
        """All matches of the subtree of ``pnode`` in the given context."""
        results = []
        for element in self._axis_candidates(pnode.axis, context):
            if not self._node_matches(pnode, element):
                continue
            results.extend(self._embed_at(pnode, element))
        return results

    def _embed_at(self, pnode, element):
        partials = [Match({pnode.node_id: element})]
        for child in pnode.children:
            child_matches = self.embeddings(child, element)
            if child_matches:
                partials = [
                    base.merged(extension)
                    for base in partials
                    for extension in child_matches
                ]
            elif self.allow_incomplete and element.is_intensional:
                partials = [
                    Match(
                        base.bindings,
                        base.incomplete | {pnode.node_id},
                    )
                    for base in partials
                ]
            else:
                return []
        return partials


def match_document(pattern, document, allow_incomplete=False):
    """All matches of ``pattern`` in ``document``.

    Returns a list of :class:`Match` (complete ones first).  With
    ``allow_incomplete``, potential answers caused by intensional data are
    included and marked.
    """
    evaluator = _Evaluator(document, allow_incomplete=allow_incomplete)
    matches = evaluator.embeddings(pattern.root, None)
    deduped = {}
    for m in matches:
        deduped.setdefault(m.key(), m)
    result = list(deduped.values())
    result.sort(key=lambda m: (not m.is_complete, _order_key(m)))
    return result


def _order_key(match):
    return tuple(
        match.bindings[nid].sid.start for nid in sorted(match.bindings)
    )


def match_to_postings(match, peer, doc):
    """Convert a match's element bindings to ``(node_id → Posting)``."""
    from repro.postings.posting import Posting

    return {
        nid: Posting(peer, doc, el.sid.start, el.sid.end, el.sid.level)
        for nid, el in match.bindings.items()
    }
