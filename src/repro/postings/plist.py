"""Ordered posting lists.

A :class:`PostingList` is the value type of the ``Term`` relation: the set
of postings of one term, maintained in the lexicographic ``(p, d, sid)``
order the paper prescribes, duplicate-free.  It supports the operations
the rest of the system needs: ordered insertion (publishing), range
extraction (DPP block splits and ``[min, max]`` document filtering),
ordered unions, and iteration in stream order (twig join inputs).

Storage is columnar: a list *is* five parallel ``array('q')`` columns
(``peer, doc, start, end, level``).  The batch work runs on the raw column
5-tuple (:meth:`PostingList.arrays`) through the active backend of
:mod:`repro.postings.kernels`:

* the ordered union of any number of lists in one pass
  (:meth:`PostingList.concat`), which concatenates without comparing rows
  when the inputs are range-disjoint, the common publishing and DPP
  block-fetch case;
* galloping (exponential-search) bounds for ``range`` extraction
  (:meth:`PostingList.gallop_left`/``gallop_right``);
* the streaming codec of :mod:`repro.postings.encoder`, which reads and
  writes the columns directly.

:class:`Posting` objects are materialized lazily — only when callers
iterate or index — and cached, so repeated iteration
stays cheap while the hot paths never pay for per-posting objects.
"""

from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat

from repro.postings import kernels
from repro.postings.posting import Posting


class PostingList:
    """A sorted, duplicate-free list of :class:`Posting` for one term."""

    __slots__ = ("peer", "doc", "start", "end", "level", "_cache")

    def __init__(self, postings=(), presorted=False):
        if isinstance(postings, PostingList):
            self.peer = postings.peer[:]
            self.doc = postings.doc[:]
            self.start = postings.start[:]
            self.end = postings.end[:]
            self.level = postings.level[:]
            self._cache = postings._cache
            return
        rows = self.normalize_rows(postings, presorted) if postings else []
        self.peer, self.doc, self.start, self.end, self.level = (
            map(array, "qqqqq", zip(*rows)) if rows else map(array, "qqqqq")
        )
        self._cache = rows

    @staticmethod
    def normalize_rows(rows, presorted=False):
        """Sorted, duplicate-free row list from arbitrary 5-field rows.

        Sorts unless ``presorted`` (which instead validates the order, as
        the ``PostingList(presorted=True)`` contract requires) and drops
        exact duplicates either way.
        """
        items = rows if isinstance(rows, list) else list(rows)
        if not presorted:
            items = sorted(items)
        deduped = []
        push = deduped.append
        prev = None
        if presorted:
            for row in items:
                if prev is not None and prev > row:
                    raise ValueError("postings not in (p,d,sid) order")
                if row != prev:
                    push(row)
                    prev = row
        else:
            for row in items:
                if row != prev:
                    push(row)
                    prev = row
        return deduped

    @classmethod
    def from_columns(cls, peer, doc, start, end, level):
        """Wrap five equal-length columns, in order and duplicate-free, as
        a list (no copy)."""
        plist = cls.__new__(cls)
        plist.peer, plist.doc, plist.start, plist.end, plist.level = peer, doc, start, end, level
        plist._cache = None
        return plist

    @classmethod
    def from_sorted(cls, rows):
        """A list of ``rows`` exactly as given: trusted to be in
        ``(p, d, sid)`` order, and neither checked, sorted nor deduplicated."""
        columns = list(map(array, "qqqqq", zip(*rows)))
        return cls.from_columns(*columns) if columns else cls()

    @classmethod
    def of(cls, postings):
        """``postings`` itself when it already is a list of this type (no
        copy), else a sorted, duplicate-free list of its rows."""
        return postings if isinstance(postings, cls) else cls(postings)

    def arrays(self):
        """The raw column 5-tuple — the currency of the kernel backends."""
        return (self.peer, self.doc, self.start, self.end, self.level)

    def key(self, i):
        """The full ``(p, d, start, end, level)`` sort key of row ``i``."""
        return (self.peer[i], self.doc[i], self.start[i], self.end[i], self.level[i])

    # -- container protocol -----------------------------------------------

    def __len__(self):
        return len(self.peer)

    def __iter__(self):
        return iter(self.items())

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            i, j, step = idx.indices(len(self.peer))
            if step == 1:
                return self._slice(i, j)
            return self.select(range(i, j, step))
        return Posting(self.peer[idx], self.doc[idx], self.start[idx], self.end[idx], self.level[idx])

    def __contains__(self, posting):
        key = tuple(posting)
        i = self.bisect_left(key)
        return i < len(self.peer) and self.key(i) == key

    def __eq__(self, other):
        if isinstance(other, PostingList):
            return (
                self.peer == other.peer
                and self.doc == other.doc
                and self.start == other.start
                and self.end == other.end
                and self.level == other.level
            )
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

    def items(self):
        """The postings as a (cached, immutable by convention) sorted list."""
        if self._cache is None:
            rows = zip(self.peer, self.doc, self.start, self.end, self.level)
            # tuple.__new__ is C; Posting._make would open a frame per row
            self._cache = list(map(tuple.__new__, repeat(Posting), rows))
        return self._cache

    # -- mutation ----------------------------------------------------------

    def extend(self, postings):
        """Bulk insert; one ordered union (or O(m) append when the
        incoming batch sorts after the existing data)."""
        other = postings if isinstance(postings, PostingList) else PostingList(postings)
        n = len(self.peer)
        if not len(other.peer):
            return
        if not n or other.key(0) > self.key(n - 1):
            self.extend_unchecked(other)
            return
        merged = PostingList.concat((self, other))
        self.peer, self.doc, self.start, self.end, self.level = merged.arrays()
        self._cache = None

    def extend_unchecked(self, other):
        """Append ``other``'s rows, which the caller guarantees all sort
        after this list's: no comparison."""
        self.peer.extend(other.peer)
        self.doc.extend(other.doc)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.level.extend(other.level)
        self._cache = None

    def remove(self, posting):
        """Delete ``posting``; returns True if it was present."""
        key = tuple(posting)
        i = self.bisect_left(key)
        if i < len(self.peer) and self.key(i) == key:
            del self.peer[i]
            del self.doc[i]
            del self.start[i]
            del self.end[i]
            del self.level[i]
            self._cache = None
            return True
        return False

    # -- search ------------------------------------------------------------

    def bisect_left(self, key, lo=0, hi=None):
        """First index whose row key is ``>= key`` (tuple compare).

        ``[lo, hi)`` is narrowed one column at a time by the C ``bisect``
        to the rows equal to ``key`` so far; a ``key`` of fewer than five
        fields sorts before every row it is a prefix of."""
        if hi is None:
            hi = len(self.peer)
        for col, value in zip(self.arrays(), key):
            if lo >= hi:
                return lo
            lo, hi = bisect_left(col, value, lo, hi), bisect_right(col, value, lo, hi)
        return lo

    def bisect_right(self, key, lo=0, hi=None):
        """First index whose row key is ``> key``."""
        if hi is None:
            hi = len(self.peer)
        for col, value in zip(self.arrays(), key):
            if lo >= hi:
                return lo
            lo, hi = bisect_left(col, value, lo, hi), bisect_right(col, value, lo, hi)
        return hi if len(key) >= 5 else lo

    def gallop_left(self, key, lo=0):
        """Galloping :meth:`bisect_left` starting from index ``lo``.

        Exponential search doubles the probe distance until the key is
        bracketed, then binary-searches the bracket: O(log d) for a match
        ``d`` rows from ``lo``, which is what makes short range extractions
        out of long lists (DPP ``[min, max]`` filtering) cheap.
        """
        n = len(self.peer)
        if lo >= n or self.key(lo) >= key:
            return lo
        step = 1
        while lo + step < n and self.key(lo + step) < key:
            step <<= 1
        return self.bisect_left(key, lo + (step >> 1) + 1, min(lo + step, n))

    def gallop_right(self, key, lo=0):
        """Galloping :meth:`bisect_right` starting from index ``lo``."""
        n = len(self.peer)
        if lo >= n or self.key(lo) > key:
            return lo
        step = 1
        while lo + step < n and self.key(lo + step) <= key:
            step <<= 1
        return self.bisect_right(key, lo + (step >> 1) + 1, min(lo + step, n))

    def batch_bisect_right(self, keys):
        """:meth:`bisect_right` for many 5-tuple keys in one kernel call."""
        return kernels.active().batch_bisect(self.arrays(), keys, "right")

    # -- sublists ----------------------------------------------------------

    @property
    def first(self):
        return self[0] if len(self.peer) else None

    @property
    def last(self):
        return self[-1] if len(self.peer) else None

    def _slice(self, i, j):
        """Rows ``[i, j)`` as a new list (C memcpy per column)."""
        return PostingList.from_columns(
            self.peer[i:j], self.doc[i:j], self.start[i:j], self.end[i:j], self.level[i:j]
        )

    def select(self, indexes):
        """Rows at ``indexes`` (increasing) as a new list."""
        peer, doc, start, end, level = self.arrays()
        return PostingList.from_columns(
            array("q", [peer[i] for i in indexes]),
            array("q", [doc[i] for i in indexes]),
            array("q", [start[i] for i in indexes]),
            array("q", [end[i] for i in indexes]),
            array("q", [level[i] for i in indexes]),
        )

    def range(self, lo, hi):
        """Postings ``p`` with ``lo <= p <= hi`` (inclusive bounds).

        Bounds are located by galloping search, so extracting a short run
        out of a long list costs O(log distance), not O(log n) + copy-all.
        """
        i = self.gallop_left(tuple(lo))
        j = self.gallop_right(tuple(hi), i)
        return self._slice(i, j)

    def split_at(self, index):
        """Split into two lists at ``index`` (for DPP block splits)."""
        return self._slice(0, index), self._slice(index, len(self.peer))

    def chunks(self, size):
        """Yield consecutive lists of at most ``size`` entries."""
        if size < 1:
            raise ValueError("chunk size must be >= 1")
        for i in range(0, len(self.peer), size):
            yield self._slice(i, i + size)

    def without(self, keys):
        """This list minus the 5-field rows in ``keys``; builds no Posting objects."""
        rows = zip(self.peer, self.doc, self.start, self.end, self.level)
        return PostingList.from_sorted([row for row in rows if row not in keys])

    # -- unions ------------------------------------------------------------

    @classmethod
    def concat(cls, parts):
        """Ordered union of many lists in one pass; returns a new list.

        When consecutive non-empty parts are pairwise disjoint in sort order
        (each part's first key after the previous part's last key — the
        DPP block-fetch case, where ordered splits yield disjoint ranges)
        this is a pure O(total) column concatenation with no key
        comparisons beyond the boundaries.  Otherwise it falls back to one
        collect + sort + dedup kernel pass over all rows.
        """
        chunks = [part for part in parts if len(part.peer)]
        if not chunks:
            return cls()
        if len(chunks) == 1:
            return PostingList(chunks[0])
        disjoint = all(
            chunks[i].key(0) > chunks[i - 1].key(len(chunks[i - 1].peer) - 1)
            for i in range(1, len(chunks))
        )
        if disjoint:
            out = PostingList(chunks[0])
            for part in chunks[1:]:
                out.extend_unchecked(part)
            return out
        return cls.from_columns(
            *kernels.active().concat_sorted([part.arrays() for part in chunks])
        )

    # -- derived views -----------------------------------------------------

    def doc_ids(self):
        """Ordered, duplicate-free list of ``(peer, doc)`` pairs."""
        return kernels.active().doc_ids(self.peer, self.doc)

    def max_end(self):
        """Largest ``end`` position in the list (0 when empty)."""
        return max(self.end) if len(self.end) else 0
