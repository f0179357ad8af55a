"""A paged B+-tree over byte-string keys.

This is the BerkeleyDB replacement of Section 3: the per-peer ``Term``
relation is stored as a clustered index with the term as search key and
postings in ``(p, d, sid)`` order (see
:class:`repro.storage.clustered.ClusteredIndexStore`, which builds composite
keys on top of this tree).

The tree is a textbook B+-tree over a set of keys: inner nodes hold
separator keys and child pointers, leaves hold sorted keys and are chained
for range scans.  The store packs the whole posting into the key, so no
value is kept beside it.
"Paged" refers to the I/O accounting: every node visit is charged one page
read and every node modification one page write against
:class:`~repro.storage.api.StoreStats`-style counters, so lookups and
appends cost O(log n) simulated I/O — the linear-publishing behaviour the
paper reports.
"""

import bisect
from itertools import islice
from operator import lt

PAGE_SIZE = 4096


class _Leaf:
    __slots__ = ("keys", "next", "fence")

    def __init__(self):
        self.keys = []
        self.next = None
        self.fence = None  # the tightest separator above, None for the last leaf


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self):
        self.keys = []
        self.children = []


class BPlusTree:
    """B+-tree holding a sorted set of bytes keys.

    ``order`` is the maximum number of keys per node; nodes split when they
    exceed it.  Deletion removes entries from leaves without rebalancing
    (underfull leaves are tolerated), which keeps the implementation simple
    and is harmless for the index workloads here, where deletes are rare —
    the paper itself treats document modification as delete + reinsert.
    """

    def __init__(self, order=64, page_size=PAGE_SIZE):
        if order < 4:
            raise ValueError("order must be >= 4, got %d" % order)
        self.order = order
        self.page_size = page_size
        self._root = _Leaf()
        self._size = 0
        self.pages_read = 0
        self.pages_written = 0
        self._dirty = None  # batch mode: set of touched node ids

    def __len__(self):
        return self._size

    def _mark_dirty(self, node):
        """Charge one page write, or record the page in batch mode.

        Real stores (BerkeleyDB included) write a dirty page once per
        flush no matter how many records in a batch touched it; the batch
        mode of :meth:`insert_many` reproduces that, which is what makes
        bulk appends cost O(pages touched), not O(records)."""
        if self._dirty is None:
            self.pages_written += 1
        else:
            self._dirty.add(id(node))

    def insert_many(self, keys):
        """Insert the run ``keys``; dirty pages are charged once for the
        whole batch.  Returns the number of new keys.

        A strictly increasing run descends once per leaf it lands in.  The
        key found there and every following key below both the leaf's
        fence (its tightest separator above) and its next existing key go
        in by one slice assignment, or one ``list.insert`` for a single
        key, up to the leaf's free room.  A key that would overflow a full
        leaf or that the tree already holds goes through :meth:`insert`, the
        only split routine, and so does every key of a run that is not
        strictly increasing.  Tree shape, size and page counts are exactly
        those of inserting the keys one at a time."""
        if self._dirty is not None:
            raise RuntimeError("insert_many cannot nest")
        self._dirty = dirty = set()
        size = self._size
        n = len(keys)
        i = 0
        try:
            if n > 1 and not all(map(lt, keys, islice(keys, 1, None))):
                for key in keys:
                    self.insert(key)
                return self._size - size
            while i < n:
                key = keys[i]
                node = self._root
                while node.__class__ is _Inner:
                    node = node.children[bisect.bisect_right(node.keys, key)]
                leaf_keys = node.keys
                pos = bisect.bisect_left(leaf_keys, key)
                bound = leaf_keys[pos] if pos < len(leaf_keys) else node.fence
                room = self.order - len(leaf_keys)
                if room <= 0 or bound == key:
                    self.insert(key)
                    i += 1
                    continue
                j = i + 1
                if j < n:  # how many of the rest fit below the bound and in the room
                    end = min(n, i + room)
                    j = end if bound is None else bisect.bisect_left(keys, bound, j, end)
                if j == i + 1:
                    leaf_keys.insert(pos, key)
                else:
                    leaf_keys[pos:pos] = keys[i:j]
                dirty.add(id(node))
                self._size += j - i
                i = j
        finally:
            # each dirty page is read-modified-written once per batch
            self.pages_read += len(dirty)
            self.pages_written += len(dirty)
            self._dirty = None
        return self._size - size

    # -- lookup ------------------------------------------------------------

    def _find_leaf(self, key):
        """Descend to the leaf that would contain ``key``; charge reads."""
        node = self._root
        self.pages_read += 1
        while isinstance(node, _Inner):
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
            self.pages_read += 1
        return node

    def __contains__(self, key):
        keys = self._find_leaf(key).keys
        i = bisect.bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    # -- insertion ---------------------------------------------------------

    def insert(self, key):
        """Insert ``key``; returns True if it was new.  A key already held
        is still charged its leaf's page write."""
        result = self._insert(self._root, key)
        if result is None:
            return self._last_insert_was_new
        sep, right = result
        new_root = _Inner()
        new_root.keys = [sep]
        new_root.children = [self._root, right]
        self._root = new_root
        self._mark_dirty(new_root)
        return self._last_insert_was_new

    def _insert(self, node, key):
        if isinstance(node, _Leaf):
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                self._last_insert_was_new = False
            else:
                node.keys.insert(i, key)
                self._size += 1
                self._last_insert_was_new = True
            self._mark_dirty(node)
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None

        idx = bisect.bisect_right(node.keys, key)
        result = self._insert(node.children[idx], key)
        if result is None:
            return None
        sep, right = result
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        self._mark_dirty(node)
        if len(node.keys) > self.order:
            return self._split_inner(node)
        return None

    def _split_leaf(self, leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.next = leaf.next
        right.fence = leaf.fence
        leaf.keys = leaf.keys[:mid]
        leaf.next = right
        leaf.fence = right.keys[0]
        self._mark_dirty(leaf)
        self._mark_dirty(right)
        return right.keys[0], right

    def _split_inner(self, node):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Inner()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._mark_dirty(node)
        self._mark_dirty(right)
        return sep, right

    # -- deletion ----------------------------------------------------------

    def delete(self, key):
        """Remove ``key``; returns True if it existed."""
        leaf = self._find_leaf(key)
        i = bisect.bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            del leaf.keys[i]
            self._size -= 1
            self._mark_dirty(leaf)
            return True
        return False

    def delete_many(self, keys):
        """Remove every key of ``keys``, which must be sorted (repeats
        allowed); returns how many existed.

        The run descends once per leaf it lands in: the keys below the
        leaf's fence are that leaf's, and when they lie in it side by side
        they go with one ``del`` of a slice, else one ``del`` per key
        found.  The charge is that of calling :meth:`delete` per key — one
        descent of ``depth`` page reads per key, found or not, and one page
        write per key removed — in closed form, since deletes never reshape
        the tree."""
        n = len(keys)
        removed = i = depth = 0
        while i < n:
            key = keys[i]
            node = self._root
            depth = 1
            while node.__class__ is _Inner:
                node = node.children[bisect.bisect_right(node.keys, key)]
                depth += 1
            leaf_keys = node.keys
            j = n if node.fence is None else bisect.bisect_left(keys, node.fence, i + 1)
            a = bisect.bisect_left(leaf_keys, key)
            b = a + j - i
            if leaf_keys[a:b] == keys[i:j]:  # all there, side by side
                del leaf_keys[a:b]
                removed += b - a
            else:  # from the right, so the positions left of a deletion hold
                for key in reversed(keys[i:j]):
                    p = bisect.bisect_left(leaf_keys, key, a)
                    if p < len(leaf_keys) and leaf_keys[p] == key:
                        del leaf_keys[p]
                        removed += 1
            i = j
        self._size -= removed
        self.pages_read += n * depth
        self.pages_written += removed
        return removed

    def delete_range(self, lo, hi=None):
        """Remove every key with ``lo <= key < hi``; returns how many.

        Each leaf's slice goes with one ``del``.  The charge is that of
        reading the range by :meth:`leaf_slices` and then deleting each key
        by :meth:`delete` — one descent of ``depth`` page reads and one
        page write per key — in closed form, since deletes never reshape
        the tree."""
        reads = self.pages_read
        leaf = self._find_leaf(lo)
        depth = self.pages_read - reads
        keys = leaf.keys
        i = bisect.bisect_left(keys, lo)
        removed = 0
        while True:
            j = len(keys) if hi is None else bisect.bisect_left(keys, hi, i)
            last = j < len(keys) or leaf.next is None
            del keys[i:j]
            removed += j - i
            if last:
                break
            leaf = leaf.next
            keys, i = leaf.keys, 0
            self.pages_read += 1
        self._size -= removed
        self.pages_read += removed * depth
        self.pages_written += removed
        return removed

    # -- scans ---------------------------------------------------------------

    def scan(self, lo=None, hi=None):
        """Yield the keys with ``lo <= key < hi`` in order.

        ``lo`` None scans from the smallest key; ``hi`` None to the end.
        """
        if lo is None:
            node = self._root
            self.pages_read += 1
            while isinstance(node, _Inner):
                node = node.children[0]
                self.pages_read += 1
            leaf, i = node, 0
        else:
            leaf = self._find_leaf(lo)
            i = bisect.bisect_left(leaf.keys, lo)
        while leaf is not None:
            while i < len(leaf.keys):
                key = leaf.keys[i]
                if hi is not None and key >= hi:
                    return
                yield key
                i += 1
            leaf = leaf.next
            if leaf is not None:
                self.pages_read += 1
            i = 0

    def leaf_slices(self, lo, hi=None):
        """Yield the keys with ``lo <= key < hi`` as one list slice per leaf.

        The range read of the stores: one ``bisect`` per leaf instead of one
        step per key.  ``pages_read`` is charged exactly as consuming
        :meth:`scan` charges it — the descent, then one page for every
        further leaf the chain moves to, including an empty leaf left by
        deletes and a leaf whose first key is already ``>= hi``.  ``hi``
        None reads to the last leaf."""
        leaf = self._find_leaf(lo)
        keys = leaf.keys
        i = bisect.bisect_left(keys, lo)
        while True:
            j = len(keys) if hi is None else bisect.bisect_left(keys, hi, i)
            if i < j:
                yield keys[i:j]
            if j < len(keys) or leaf.next is None:
                return
            leaf = leaf.next
            keys, i = leaf.keys, 0
            self.pages_read += 1

    # -- invariants (used by tests) -----------------------------------------

    def check_invariants(self):
        """Verify node size, ordering, separator, and leaf-chain invariants."""
        leaves = []
        self._check_node(self._root, None, None, leaves, is_root=True)
        # leaf chain must enumerate exactly the in-order leaves
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        chained = []
        while node is not None:
            chained.append(node)
            node = node.next
        assert chained == leaves, "leaf chain disagrees with tree order"
        flat = [k for leaf in leaves for k in leaf.keys]
        assert flat == sorted(flat), "keys out of order"
        assert len(set(flat)) == len(flat), "duplicate keys"
        assert len(flat) == self._size, "size counter drift"

    def _check_node(self, node, lo, hi, leaves, is_root=False):
        assert len(node.keys) <= self.order, "node holds more than order keys"
        if isinstance(node, _Leaf):
            assert node.fence == hi, "leaf fence is not its upper separator"
            for k in node.keys:
                assert lo is None or k >= lo, "leaf key below separator"
                assert hi is None or k < hi, "leaf key above separator"
            leaves.append(node)
            return
        assert node.keys == sorted(node.keys), "inner keys out of order"
        assert len(node.children) == len(node.keys) + 1
        if not is_root:
            assert node.keys, "non-root inner node with no keys"
        bounds = [lo] + list(node.keys) + [hi]
        for child, (clo, chi) in zip(node.children, zip(bounds, bounds[1:])):
            self._check_node(child, clo, chi, leaves)


def _prefix_upper_bound(prefix):
    """Smallest byte string greater than every string with ``prefix``."""
    buf = bytearray(prefix)
    while buf:
        if buf[-1] != 0xFF:
            buf[-1] += 1
            return bytes(buf)
        buf.pop()
    return None  # prefix was all 0xFF: scan to the end
