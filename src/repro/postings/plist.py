"""Ordered posting lists.

A :class:`PostingList` is the value type of the ``Term`` relation: the set
of postings of one term, maintained in the lexicographic ``(p, d, sid)``
order the paper prescribes.  It supports the operations the rest of the
system needs: ordered insertion (publishing), range extraction (DPP block
splits and ``[min, max]`` document filtering), merging, and iteration in
stream order (twig join inputs).

Storage is columnar: the list body lives in a
:class:`~repro.postings.columnar.PostingColumns` struct-of-arrays core and
the batch kernels (merge, galloping range extraction, streaming codec)
operate on the columns directly.  :class:`Posting` objects are
materialized lazily — only when callers iterate, index, or filter by
predicate — and cached, so repeated iteration stays cheap while the hot
paths never pay for per-posting object construction.
"""

from repro.postings.columnar import PostingColumns
from repro.postings.posting import Posting


class PostingList:
    """A sorted, duplicate-free list of :class:`Posting` for one term."""

    __slots__ = ("_cols", "_cache")

    def __init__(self, postings=(), presorted=False):
        if isinstance(postings, PostingColumns):
            self._cols = postings.copy()
            self._cache = None
        elif isinstance(postings, PostingList):
            self._cols = postings._cols.copy()
            self._cache = postings._cache
        else:
            rows = PostingColumns.normalize_rows(postings, presorted=presorted)
            self._cols = PostingColumns._from_sorted_unique(rows)
            self._cache = rows

    @classmethod
    def _adopt(cls, cols):
        """Wrap freshly built columns without copying (internal)."""
        pl = cls.__new__(cls)
        pl._cols = cols
        pl._cache = None
        return pl

    @classmethod
    def of(cls, postings):
        """``postings`` itself when it already is a list of this type (no
        copy), else a sorted, duplicate-free list of its rows."""
        return postings if isinstance(postings, cls) else cls(postings)

    def columns(self):
        """The columnar core (read-only by convention; batch kernels)."""
        return self._cols

    # -- container protocol -----------------------------------------------

    def __len__(self):
        return len(self._cols)

    def __iter__(self):
        return iter(self.items())

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            i, j, step = idx.indices(len(self._cols))
            if step == 1:
                return PostingList._adopt(self._cols.slice(i, j))
            return PostingList._adopt(self._cols.select(range(i, j, step)))
        return self._cols.posting(idx)

    def __contains__(self, posting):
        key = tuple(posting)
        cols = self._cols
        i = cols.bisect_left(key)
        return i < len(cols) and cols.key(i) == key

    def __eq__(self, other):
        if isinstance(other, PostingList):
            return self._cols == other._cols
        return NotImplemented

    def __repr__(self):
        items = self.items()
        if len(items) <= 4:
            return "PostingList(%r)" % (items,)
        return "PostingList(<%d postings, %r..%r>)" % (
            len(items),
            items[0],
            items[-1],
        )

    # -- mutation ----------------------------------------------------------

    def add(self, posting):
        """Insert ``posting`` keeping order; ignores exact duplicates."""
        if not isinstance(posting, Posting):
            posting = Posting(*posting)
        cols = self._cols
        i = cols.bisect_left(posting)
        if i < len(cols) and cols.key(i) == tuple(posting):
            return False
        cols.insert_row(i, posting)
        self._cache = None
        return True

    def extend(self, postings):
        """Bulk insert; one O(n+m) merge pass (or O(m) append when the
        incoming batch sorts after the existing data)."""
        if isinstance(postings, PostingList):
            incoming = postings._cols
        elif isinstance(postings, PostingColumns):
            incoming = postings
        else:
            incoming = PostingColumns.from_rows(postings)
        if not len(incoming):
            return
        self._cols.extend_sorted(incoming)
        self._cache = None

    def remove(self, posting):
        """Delete ``posting``; returns True if it was present."""
        key = tuple(posting)
        cols = self._cols
        i = cols.bisect_left(key)
        if i < len(cols) and cols.key(i) == key:
            cols.delete_row(i)
            self._cache = None
            return True
        return False

    # -- queries -----------------------------------------------------------

    @property
    def first(self):
        return self._cols.posting(0) if len(self._cols) else None

    @property
    def last(self):
        return self._cols.posting(-1) if len(self._cols) else None

    def range(self, lo, hi):
        """Postings ``p`` with ``lo <= p <= hi`` (inclusive bounds).

        Bounds are located by galloping search, so extracting a short run
        out of a long list costs O(log distance), not O(log n) + copy-all.
        """
        cols = self._cols
        i = cols.gallop_left(tuple(lo))
        j = cols.gallop_right(tuple(hi), i)
        return PostingList._adopt(cols.slice(i, j))

    def doc_range(self, lo_doc, hi_doc):
        """Postings whose ``(peer, doc)`` lies in ``[lo_doc, hi_doc]``."""
        cols = self._cols
        i = cols.gallop_left((lo_doc[0], lo_doc[1], -1, -1, -1))
        j = cols.gallop_right((hi_doc[0], hi_doc[1], 2**63, 2**63, 2**63), i)
        return PostingList._adopt(cols.slice(i, j))

    def doc_ids(self):
        """Ordered, duplicate-free list of ``(peer, doc)`` pairs."""
        return self._cols.doc_ids()

    def max_end(self):
        """Largest ``end`` position in the list (0 when empty)."""
        return self._cols.max_end()

    def split_at(self, index):
        """Split into two PostingLists at ``index`` (for DPP block splits)."""
        cols = self._cols
        return (
            PostingList._adopt(cols.slice(0, index)),
            PostingList._adopt(cols.slice(index, len(cols))),
        )

    def chunks(self, size):
        """Yield consecutive PostingLists of at most ``size`` entries."""
        if size < 1:
            raise ValueError("chunk size must be >= 1")
        cols = self._cols
        for i in range(0, len(cols), size):
            yield PostingList._adopt(cols.slice(i, i + size))

    def filter(self, predicate):
        """New list with only postings satisfying ``predicate``."""
        kept = [p for p in self.items() if predicate(p)]
        return PostingList._adopt(PostingColumns._from_sorted_unique(kept))

    def without(self, keys):
        """This list minus the 5-field rows in ``keys``; builds no Posting objects."""
        kept = [row for row in self._cols.rows() if row not in keys]
        return PostingList._adopt(PostingColumns._from_sorted_unique(kept))

    @classmethod
    def concat(cls, parts):
        """Ordered union of many PostingLists in one concat/sort pass.

        Equivalent to folding :meth:`merge` over ``parts`` but O(total)
        when the parts are range-disjoint (DPP ordered block fetches)
        instead of quadratic in the number of parts.
        """
        return cls._adopt(
            PostingColumns.concat_sorted([part._cols for part in parts])
        )

    def merge(self, other):
        """Ordered union of two posting lists (does not mutate either)."""
        if isinstance(other, PostingList):
            return PostingList._adopt(self._cols.merge(other._cols))
        return PostingList._adopt(self._cols.merge(PostingColumns.from_rows(other)))

    def items(self):
        """The postings as a (cached, immutable by convention) sorted list."""
        if self._cache is None:
            self._cache = self._cols.postings()
        return self._cache
