"""The BerkeleyDB-replacement clustered index store (Section 3).

``Term_p`` at a peer is organized as a clustered index using the term as
search key, with the postings of each term in ``(p, d, sid)`` lexicographic
order.  We realize this over :class:`~repro.storage.bptree.BPlusTree` with
order-preserving composite keys ``encode(term) ++ encode(posting)``: a
term's postings are then exactly a contiguous key range of the tree, read
back in order by one range read — the same access path a BerkeleyDB BTREE
database with sorted duplicates provides.  A read joins the keys of each
leaf slice and decodes them in C straight into the five posting columns
(:meth:`ClusteredIndexStore._read`); no :class:`Posting` is built.

``append`` packs the composite keys of a batch in C from the posting
columns and hands the tree one sorted run, which lands with one descent per
leaf it touches (:meth:`~repro.storage.bptree.BPlusTree.insert_many`).  It
never reads the existing list, and its page I/O grows with the pages the
run touches, not with the stored list: that is what makes publishing linear
(vs. the quadratic :class:`~repro.storage.naive_store.NaiveGzipStore`).
"""

import struct
from itertools import chain

from repro.postings.plist import PostingList
from repro.storage.api import Store
from repro.storage.bptree import BPlusTree, _prefix_upper_bound

_POSTING_STRUCT = struct.Struct(">QQQQQ")
_TERMINATOR = b"\x00\x00"
_ESCAPED_NUL = b"\x00\x01"


def _encode_term(term):
    """Order-preserving, self-delimiting term encoding.

    NUL bytes inside the term are escaped so the terminator sorts below any
    continuation, preserving lexicographic order of the composite keys.
    """
    raw = term.encode("utf-8").replace(b"\x00", _ESCAPED_NUL)
    return raw + _TERMINATOR


class ClusteredIndexStore(Store):
    """Clustered (term → ordered postings) store over a B+-tree."""

    def __init__(self, order=64):
        super().__init__()
        self._tree = BPlusTree(order=order)
        self._counts = {}

    def _charge(self, reads_before, writes_before):
        tree, stats = self._tree, self.stats
        stats.bytes_read += (tree.pages_read - reads_before) * tree.page_size
        stats.bytes_written += (tree.pages_written - writes_before) * tree.page_size

    def append(self, term, postings):
        tree = self._tree
        r, w = tree.pages_read, tree.pages_written
        keys = self._keys(_encode_term(term), PostingList.of(postings))
        added = tree.insert_many(keys)
        if added:
            self._counts[term] = self._counts.get(term, 0) + added
        self.stats.num_ops += 1
        self._charge(r, w)
        return added

    @staticmethod
    def _keys(prefix, plist):
        """The composite keys of ``plist`` under ``prefix``, a sorted run."""
        if len(plist.peer) == 1:  # cheaper than building five column iterators
            return [prefix + _POSTING_STRUCT.pack(*plist.key(0))]
        # packed in C straight off the columns
        rows = map(_POSTING_STRUCT.pack, plist.peer, plist.doc, plist.start, plist.end, plist.level)
        return list(map(prefix.__add__, rows))

    def put(self, term, postings):
        # With a clustered index, "reconciling" a put is just an append:
        # a composite key the tree already holds is not added twice.
        self.append(term, postings)

    def _read(self, prefix, lo_key, hi_key):
        """The postings whose composite keys lie in ``[lo_key, hi_key)``.

        The keys of every leaf slice are joined into one buffer and decoded
        by ``struct.iter_unpack``, skipping the constant-length term prefix,
        into five columns.  Trusting their order is sound: tree keys are
        unique and share ``prefix``, and big-endian ``>Q`` fields compare
        bytewise exactly as the non-negative integers :meth:`append` packs
        compare numerically."""
        tree = self._tree
        reads = tree.pages_read
        keys = b"".join(chain.from_iterable(tree.leaf_slices(lo_key, hi_key)))
        self.stats.num_ops += 1
        self.stats.bytes_read += (tree.pages_read - reads) * tree.page_size
        return PostingList.from_sorted(struct.iter_unpack(">%dxQQQQQ" % len(prefix), keys))

    def get(self, term):
        prefix = _encode_term(term)
        return self._read(prefix, prefix, _prefix_upper_bound(prefix))

    def get_range(self, term, lo, hi):
        """Postings of ``term`` in ``[lo, hi]`` straight off the tree.

        This is the access path DPP leaf fetches use: only the requested
        key range is read, so I/O is proportional to the block size.
        """
        prefix = _encode_term(term)
        return self._read(
            prefix,
            prefix + _POSTING_STRUCT.pack(*lo),
            prefix + _POSTING_STRUCT.pack(*hi) + b"\x00",
        )

    def delete(self, term, postings=None):
        """The run's composite keys go to the tree as one sorted run
        (:meth:`~repro.storage.bptree.BPlusTree.delete_many`); the whole
        term as one key range."""
        tree = self._tree
        r, w = tree.pages_read, tree.pages_written
        prefix = _encode_term(term)
        if postings is None:
            removed = bool(tree.delete_range(prefix, _prefix_upper_bound(prefix)))
            self._counts.pop(term, None)
            self.stats.num_ops += 1
        else:
            keys = self._keys(prefix, PostingList.of(postings))
            removed = tree.delete_many(keys)
            if removed:
                left = self._counts[term] - removed
                if left:
                    self._counts[term] = left
                else:
                    del self._counts[term]
            self.stats.num_ops += len(keys)  # one op per posting, like a point delete
        self._charge(r, w)
        return removed

    def terms(self):
        return iter(sorted(self._counts))

    def count(self, term):
        return self._counts.get(term, 0)

    def total_postings(self):
        return sum(self._counts.values())

    def check_invariants(self):
        self._tree.check_invariants()
        assert len(self._tree) == self.total_postings()
