"""The posting datatype.

Following Section 2 of the paper, each element of a published document is
identified by a *structural identifier* ``sid = (start, end, level)`` where
``start``/``end`` number the element's opening/closing tags in document
order and ``level`` is its depth.  A posting is a tuple
``(peer, doc, start, end, level)``: the tag (label or word) it belongs to is
implicit — it is the key under which the posting is stored in the ``Term``
relation.

Postings compare lexicographically by ``(peer, doc, sid)``, which is the
order posting lists are kept in everywhere (local stores, DPP blocks, twig
join streams).
"""

from typing import NamedTuple


class StructuralId(NamedTuple):
    """``(start, end, level)`` — see module docstring."""

    start: int
    end: int
    level: int

    def contains(self, other):
        """True iff ``self`` is a proper ancestor interval of ``other``.

        Per the paper: ``e1`` is an ancestor of ``e2`` iff
        ``e1.start < e2.start < e1.end`` (intervals never partially overlap).
        """
        return self.start < other.start < self.end

    @property
    def width(self):
        """Number of tag positions the element spans: ``end - start + 1``."""
        return self.end - self.start + 1


class Posting(NamedTuple):
    """One ``Term`` tuple: element ``(peer, doc, start:end:level)``."""

    peer: int
    doc: int
    start: int
    end: int
    level: int

    @property
    def doc_id(self):
        """The global document identifier ``(p, d)``."""
        return (self.peer, self.doc)

    def is_ancestor_of(self, other):
        """Structural ancestor test within the same document."""
        return (
            self.peer == other.peer
            and self.doc == other.doc
            and self.start < other.start < self.end
        )
