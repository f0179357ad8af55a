"""Per-document element streams: what the document phase joins over.

A holistic twig join reads one sorted stream of elements per pattern node.
For one document those streams are a pure function of the tree, so they
are laid out once, when the owning peer stores the document, as three
``array('q')`` columns of structural ids holding every element twice::

    rows [0, n)    every element, in document order      (the ``*`` stream)
    rows [n, 2n)   the same rows grouped by label, document order inside
                   each group                            (one stream per label)

``spans`` maps a label (``None`` for "any") to its ``[lo, hi)`` row range,
so the stream of a label node is three C-level slices.  The direct text of
every element is kept beside them as references to the tree's own strings
(``texts``, grouped by owning element, with the owner's ``start`` in
``text_starts``): word and value conditions are filtered from those per
call and never cached — a cache filled at query time would make the same
query cost less the second time it runs.

The same pass notes whether the document holds an include
(``intensional``, the root's :attr:`Element.is_intensional
<repro.xmldata.tree.Element.is_intensional>` tree walk done on the way),
and the index postings are cut from these columns
(:func:`~repro.index.publisher.extract_postings`).

The columns know neither peer nor document number; they are stamped on
when a stream is handed out, so a document costs 48 bytes per element plus
16 per text node (about 11 KB for a 4 KB bibliography document of 150
elements, span table included).
"""

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, compress, groupby, repeat
from operator import attrgetter, contains, is_, itemgetter

from repro.postings.plist import PostingList
from repro.xmldata.tree import Element, IntensionalRef, Text
from repro.xmldata.words import tokenize

_NO_ROWS = (0, 0)
_CHILDREN = attrgetter("children")
_SID = attrgetter("sid")
_LABEL = attrgetter("label")
_OWNER_START = attrgetter("parent.sid.start")
_CONTENT = attrgetter("content")


class ElementStreams:
    """The element streams of one document; see the module docstring."""

    __slots__ = ("start", "end", "level", "spans", "text_starts", "texts", "intensional")

    def __init__(self, document):
        # flatten the tree level by level; every pass over a level's
        # children runs inside map/compress, not in a Python loop
        elements, text_nodes = [], []
        intensional = False
        level_nodes = [document.root]
        while level_nodes:
            elements += level_nodes
            children = list(chain.from_iterable(map(_CHILDREN, level_nodes)))
            kinds = list(map(type, children))
            intensional = intensional or IntensionalRef in kinds
            text_nodes += compress(children, map(is_, kinds, repeat(Text)))
            level_nodes = list(compress(children, map(is_, kinds, repeat(Element))))
        # (sid, label) rows: starts are unique, so sorting restores document
        # order; the second sort is stable, so a group keeps it
        rows = sorted(zip(map(_SID, elements), map(_LABEL, elements)))
        grouped = sorted(rows, key=itemgetter(1))
        sids, labels = zip(*rows, *grouped)
        start, end, level = zip(*sids)
        self.start = array("q", start)
        self.end = array("q", end)
        self.level = array("q", level)
        lo = n = len(rows)
        self.spans = spans = {None: (0, n)}
        for label, group in groupby(labels[n:]):
            hi = lo + len(list(group))
            spans[label] = (lo, hi)
            lo = hi
        # stable again: an element's text nodes keep their order
        texts = sorted(
            zip(map(_OWNER_START, text_nodes), map(_CONTENT, text_nodes)), key=itemgetter(0)
        )
        self.text_starts = array("q", map(itemgetter(0), texts))
        self.texts = list(map(itemgetter(1), texts))
        self.intensional = intensional

    def label_columns(self, peer, doc, label, value=None, root_only=False):
        """The stream of a label node as ``(peer, doc)`` postings.

        Selects the elements named ``label`` (``None``: every element);
        ``value`` keeps those whose direct text equals it and ``root_only``
        the document root alone.  Returns a :class:`PostingList` in
        document order, or ``None`` when no element qualifies.
        """
        lo, hi = self.spans.get(label, _NO_ROWS)
        if value is not None:
            return self._gathered(peer, doc, self._value_rows(lo, hi, value), root_only)
        if root_only and lo < hi:
            # the root opens the document, so it leads its group
            hi = lo + (self.level[lo] == 0)
        if lo == hi:
            return None
        return _stamped(peer, doc, self.start[lo:hi], self.end[lo:hi], self.level[lo:hi])

    def word_columns(self, peer, doc, word, root_only=False):
        """The stream of a word node: the elements whose direct text holds
        ``word`` (lowercase; stop words included — they are a matter of the
        index, not of the document).  Same result form as
        :meth:`label_columns`."""
        return self._gathered(peer, doc, self._word_rows(word), root_only)

    def _gathered(self, peer, doc, rows, root_only):
        if root_only:
            rows = [row for row in rows[:1] if self.level[row] == 0]
        if not rows:
            return None
        start = array("q", [self.start[row] for row in rows])
        end = array("q", [self.end[row] for row in rows])
        level = array("q", [self.level[row] for row in rows])
        return _stamped(peer, doc, start, end, level)

    def _word_rows(self, word):
        """Rows (document order) of the elements directly holding ``word``."""
        texts = self.texts
        # a token is a lowercased ASCII run, so it shows in the lowercased
        # text; the substring scan runs in C and only its hits are tokenized
        hits = compress(
            range(len(texts)), map(contains, map(str.lower, texts), repeat(word))
        )
        rows = []
        n = self.spans[None][1]
        for i in hits:
            if word in tokenize(texts[i]):
                row = bisect_left(self.start, self.text_starts[i], 0, n)
                if not rows or rows[-1] != row:
                    rows.append(row)
        return rows

    def _value_rows(self, lo, hi, value):
        """Rows of ``[lo, hi)`` whose joined direct text is ``value``."""
        start, owners, texts = self.start, self.text_starts, self.texts
        rows = []
        for row in range(lo, hi):
            first = bisect_left(owners, start[row])
            last = bisect_right(owners, start[row], first)
            if " ".join(texts[first:last]).strip() == value:
                rows.append(row)
        return rows


def _stamped(peer, doc, start, end, level):
    """A :class:`PostingList` of one document's rows, owner ids stamped on."""
    n = len(start)
    peer, doc = array("q", (peer,)) * n, array("q", (doc,)) * n
    return PostingList.from_columns(peer, doc, start, end, level)
