"""Columnar (struct-of-arrays) posting storage and its batch kernels.

The per-object representation — one :class:`~repro.postings.posting.Posting`
NamedTuple per element — dominates the CPU cost of every hot path: the
publisher's batched appends, DPP block splits and fetches, the TwigStack
join streams, the Structural Bloom Filter probes, and the byte-accurate
codec.  This module stores a posting list instead as five parallel
``array('q')`` columns (``peer, doc, start, end, level``) and provides the
batch kernels the rest of the system composes:

* O(n+m) two-pointer merge + dedup (:meth:`PostingColumns.merge`);
* a fused ``extend_sorted`` that appends in O(m) when the incoming batch
  sorts after the existing data (the common publishing case) and falls
  back to the linear merge otherwise;
* galloping (exponential-search) bounds for ``range``/``doc_range``
  extraction (:meth:`PostingColumns.gallop_left`/``gallop_right``);
* zero-object streaming encode/decode that reads and writes the
  delta-compressed varint wire format directly from/into the columns
  (:meth:`PostingColumns.wire_values`, :meth:`PostingColumns.encode`,
  :meth:`PostingColumns.decode`).

Postings materialize into :class:`Posting` objects only at the edges —
when user code iterates a list or a twig-join binding is emitted.  The
columns are kept in the paper's lexicographic ``(p, d, sid)`` order,
duplicate-free, exactly like :class:`~repro.postings.plist.PostingList`
(which is now a thin facade over this core).
"""

from array import array
from bisect import bisect_left, bisect_right

from repro.postings import kernels
from repro.postings.posting import Posting


def _as_q(values):
    return array("q", values)


class PostingColumns:
    """Five parallel signed-64-bit columns holding one sorted posting list."""

    __slots__ = ("peer", "doc", "start", "end", "level")

    def __init__(self, peer=None, doc=None, start=None, end=None, level=None):
        self.peer = peer if peer is not None else array("q")
        self.doc = doc if doc is not None else array("q")
        self.start = start if start is not None else array("q")
        self.end = end if end is not None else array("q")
        self.level = level if level is not None else array("q")

    # -- construction -------------------------------------------------------

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
    def from_rows(cls, rows, presorted=False):
        """Build columns from an iterable of 5-field rows (Posting/tuple)."""
        return cls._from_sorted_unique(cls.normalize_rows(rows, presorted))

    @classmethod
    def _from_sorted_unique(cls, items):
        """Transpose an already sorted, duplicate-free row list."""
        if not items:
            return cls()
        peer, doc, start, end, level = zip(*items)
        return cls(_as_q(peer), _as_q(doc), _as_q(start), _as_q(end), _as_q(level))

    def copy(self):
        return PostingColumns(
            self.peer[:], self.doc[:], self.start[:], self.end[:], self.level[:]
        )

    # -- container basics ---------------------------------------------------

    def __len__(self):
        return len(self.peer)

    def __eq__(self, other):
        if isinstance(other, PostingColumns):
            return (
                self.peer == other.peer
                and self.doc == other.doc
                and self.start == other.start
                and self.end == other.end
                and self.level == other.level
            )
        return NotImplemented

    def key(self, i):
        """The full ``(p, d, start, end, level)`` sort key of row ``i``."""
        return (self.peer[i], self.doc[i], self.start[i], self.end[i], self.level[i])

    def arrays(self):
        """The raw column 5-tuple — the currency of the kernel backends."""
        return (self.peer, self.doc, self.start, self.end, self.level)

    def posting(self, i):
        return Posting(
            self.peer[i], self.doc[i], self.start[i], self.end[i], self.level[i]
        )

    def postings(self):
        """Materialize the whole list as :class:`Posting` objects."""
        return list(
            map(
                Posting._make,
                zip(self.peer, self.doc, self.start, self.end, self.level),
            )
        )

    def rows(self):
        """Iterate raw ``(p, d, s, e, l)`` tuples without Posting objects."""
        return zip(self.peer, self.doc, self.start, self.end, self.level)

    def slice(self, i, j):
        """Contiguous sub-range ``[i, j)`` as fresh columns (C memcpy)."""
        return PostingColumns(
            self.peer[i:j],
            self.doc[i:j],
            self.start[i:j],
            self.end[i:j],
            self.level[i:j],
        )

    def select(self, indexes):
        """Rows at ``indexes`` (increasing) as fresh columns."""
        peer, doc, start, end, level = (
            self.peer,
            self.doc,
            self.start,
            self.end,
            self.level,
        )
        return PostingColumns(
            _as_q([peer[i] for i in indexes]),
            _as_q([doc[i] for i in indexes]),
            _as_q([start[i] for i in indexes]),
            _as_q([end[i] for i in indexes]),
            _as_q([level[i] for i in indexes]),
        )

    # -- point mutation (cold paths) ---------------------------------------

    def insert_row(self, i, row):
        p, d, s, e, l = row
        self.peer.insert(i, p)
        self.doc.insert(i, d)
        self.start.insert(i, s)
        self.end.insert(i, e)
        self.level.insert(i, l)

    def delete_row(self, i):
        del self.peer[i]
        del self.doc[i]
        del self.start[i]
        del self.end[i]
        del self.level[i]

    # -- search kernels -----------------------------------------------------

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

    def batch_bisect_left(self, keys):
        """:meth:`bisect_left` for many 5-tuple keys in one kernel call."""
        return kernels.active().batch_bisect(self.arrays(), keys, "left")

    def batch_bisect_right(self, keys):
        """:meth:`bisect_right` for many 5-tuple keys in one kernel call."""
        return kernels.active().batch_bisect(self.arrays(), keys, "right")

    # -- merge kernels ------------------------------------------------------

    def merge(self, other):
        """O(n+m) two-pointer ordered union with dedup; returns new columns."""
        if not len(other):
            return self.copy()
        if not len(self):
            return other.copy()
        # disjoint fast path: pure concatenation
        if other.key(0) > self.key(len(self) - 1):
            out = self.copy()
            out.extend_cols(other)
            return out
        if self.key(0) > other.key(len(other) - 1):
            out = other.copy()
            out.extend_cols(self)
            return out
        return PostingColumns(
            *kernels.active().merge(self.arrays(), other.arrays())
        )

    @classmethod
    def concat_sorted(cls, parts):
        """Ordered union of many column chunks in one pass; returns new columns.

        When consecutive non-empty parts are pairwise disjoint in sort
        order (each part's first key after the previous part's last key —
        the DPP block-fetch case, where ordered splits yield disjoint
        ranges) this is a pure O(total) column concatenation with no key
        comparisons beyond the boundaries.  Otherwise it falls back to one
        collect + sort + dedup pass over all rows, which produces exactly
        the same list as iteratively merging the parts pairwise.
        """
        chunks = [part for part in parts if len(part)]
        if not chunks:
            return cls()
        if len(chunks) == 1:
            return chunks[0].copy()
        disjoint = all(
            chunks[i].key(0) > chunks[i - 1].key(len(chunks[i - 1]) - 1)
            for i in range(1, len(chunks))
        )
        if disjoint:
            out = chunks[0].copy()
            for part in chunks[1:]:
                out.extend_cols(part)
            return out
        return cls(
            *kernels.active().concat_sorted([part.arrays() for part in chunks])
        )

    def extend_cols(self, other):
        """Blind column append (caller guarantees order and uniqueness)."""
        self.peer.extend(other.peer)
        self.doc.extend(other.doc)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.level.extend(other.level)

    def extend_sorted(self, other):
        """Fused bulk insert of sorted, deduped ``other`` (mutates self).

        O(m) append when the batch sorts strictly after the existing data
        — the common publishing case — otherwise one O(n+m) merge pass.
        """
        if not len(other):
            return
        if not len(self) or other.key(0) > self.key(len(self) - 1):
            self.extend_cols(other)
            return
        merged = self.merge(other)
        self.peer = merged.peer
        self.doc = merged.doc
        self.start = merged.start
        self.end = merged.end
        self.level = merged.level

    # -- derived views ------------------------------------------------------

    def doc_ids(self):
        """Ordered, duplicate-free ``(peer, doc)`` pairs."""
        return kernels.active().doc_ids(self.peer, self.doc)

    def max_end(self):
        """Largest ``end`` tag position, or 0 when empty (filter sizing)."""
        return max(self.end) if len(self.end) else 0

    # -- wire format kernels ------------------------------------------------
    #
    # Layout (see repro.postings.encoder):
    #   count, then per posting: delta(peer), delta-or-abs(doc),
    #   delta-or-abs(start), end-start, level — deltas reset when a more
    #   significant field changes.

    def wire_values(self):
        """The flat integer sequence of the wire format, deltas applied.

        Single source of truth for the codec: ``encode`` emits these as
        varints and ``encoded_size`` sums their varint widths, so the two
        can never disagree.
        """
        return kernels.active().wire_values(self.arrays())

    def encode(self):
        """Serialize straight from the columns; no Posting objects."""
        return kernels.active().encode(self.arrays())

    def encoded_size(self):
        """Exact ``len(self.encode())`` without building the bytes."""
        return kernels.active().encoded_size(self.arrays())

    @classmethod
    def decode(cls, data, offset=0):
        """Parse the wire format directly into columns.

        Returns ``(PostingColumns, next_offset)``.  The inverse of
        :meth:`encode`; decoding materializes zero Posting objects.
        """
        cols, pos = kernels.active().decode(data, offset)
        return cls(*cols), pos
