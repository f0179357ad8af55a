"""Tests for the local stores: naive gzip store, B+-tree, clustered index,
LSM store."""

import bisect
import inspect
import random
import textwrap
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.postings.encoder import decode_postings, encode_postings, encoded_size
from repro.storage import bptree, clustered, lsm
from repro.storage.api import Store
from repro.storage.bptree import BPlusTree, _prefix_upper_bound
from repro.storage.clustered import _POSTING_STRUCT, ClusteredIndexStore, _encode_term
from repro.storage.lsm import (
    DEFAULT_COMPACT_INTERVAL_S,
    DEFAULT_MAX_RUNS,
    DEFAULT_MEMTABLE_POSTINGS,
    TOMBSTONE_BYTES,
    LsmStore,
    _Run,
)
from repro.storage.naive_store import NaiveGzipStore


def P(start, end=None, peer=0, doc=0, level=1):
    return Posting(peer, doc, start, end if end is not None else start + 1, level)


class TestNaiveGzipStore:
    def test_put_get_roundtrip(self):
        store = NaiveGzipStore()
        store.put("a", [P(1)])
        store.put("a", [P(3)])
        assert store.get("a").items() == [P(1), P(3)]

    def test_append_degenerates_to_put(self):
        store = NaiveGzipStore()
        store.append("a", [P(1)])
        store.append("a", [P(3)])
        assert len(store.get("a")) == 2

    def test_missing_key_empty(self):
        assert len(NaiveGzipStore().get("missing")) == 0

    def test_delete_posting(self):
        store = NaiveGzipStore()
        store.put("a", [P(1), P(3)])
        assert store.delete("a", [P(1)])
        assert store.get("a").items() == [P(3)]
        assert not store.delete("a", [P(1)])

    def test_delete_term(self):
        store = NaiveGzipStore()
        store.put("a", [P(1)])
        assert store.delete("a")
        assert "a" not in store
        assert not store.delete("a")

    def test_terms_sorted(self):
        store = NaiveGzipStore()
        for term in ("b", "a", "c"):
            store.put(term, [P(1)])
        assert list(store.terms()) == ["a", "b", "c"]

    def test_count(self):
        store = NaiveGzipStore()
        assert store.count("a") == 0
        store.put("a", [P(1), P(3)])
        assert store.count("a") == 2

    def test_read_modify_write_is_quadratic_in_io(self):
        """The Section 3 pathology: every insert re-reads the whole list."""
        import random

        rng = random.Random(5)
        starts = sorted(rng.sample(range(1, 10_000_000), 400))

        def run(n):
            store = NaiveGzipStore()
            for s in starts[:n]:
                store.put("a", [P(s)])
            return store.stats.bytes_read

        # 4x the inserts: quadratic I/O grows ~16x, linear only 4x
        assert run(400) > 8 * run(100)

    def test_stored_bytes(self):
        store = NaiveGzipStore()
        store.put("a", [P(i) for i in range(1, 100, 2)])
        assert store.stored_bytes() > 0

    def test_get_range_default(self):
        """A store without a ranged read of its own cuts the full list."""
        store = NaiveGzipStore()
        store.append("t", [P(i) for i in range(1, 20, 2)])
        sub = store.get_range("t", P(5, 0, level=0), P(9, 99, level=99))
        assert [p.start for p in sub] == [5, 7, 9]


class TestBPlusTree:
    def test_insert_get(self):
        tree = BPlusTree(order=4)
        assert tree.insert(b"b")
        assert tree.insert(b"a")
        writes = tree.pages_written
        assert not tree.insert(b"a")  # a held key is not new
        assert tree.pages_written == writes + 1  # but its page is still written
        assert b"a" in tree and b"b" in tree
        assert b"zz" not in tree
        assert len(tree) == 2

    def test_split_cascade(self):
        tree = BPlusTree(order=4)
        keys = [("k%04d" % i).encode() for i in range(200)]
        for key in keys:
            tree.insert(key)
        tree.check_invariants()
        assert len(tree) == 200
        assert all(key in tree for key in keys)
        assert list(tree.scan()) == keys

    def test_reverse_and_random_insertion(self):
        import random

        rng = random.Random(3)
        keys = [("k%05d" % i).encode() for i in range(300)]
        shuffled = keys[:]
        rng.shuffle(shuffled)
        tree = BPlusTree(order=6)
        for key in shuffled:
            tree.insert(key)
        tree.check_invariants()
        assert list(tree.scan()) == sorted(keys)

    def test_scan_range(self):
        tree = BPlusTree(order=4)
        for i in range(50):
            tree.insert(("k%03d" % i).encode())
        result = list(tree.scan(b"k010", b"k020"))
        assert result == [("k%03d" % i).encode() for i in range(10, 20)]

    def test_scan_full(self):
        tree = BPlusTree(order=4)
        for i in range(20):
            tree.insert(("k%02d" % i).encode())
        assert list(tree.scan()) == [("k%02d" % i).encode() for i in range(20)]

    def test_scan_prefix(self):
        tree = BPlusTree(order=4)
        for term in (b"aa1", b"aa2", b"ab1", b"b1"):
            tree.insert(term)
        slices = tree.leaf_slices(b"aa", _prefix_upper_bound(b"aa"))
        assert [k for keys in slices for k in keys] == [b"aa1", b"aa2"]

    def test_delete(self):
        tree = BPlusTree(order=4)
        for i in range(30):
            tree.insert(("k%02d" % i).encode())
        assert tree.delete(b"k05")
        assert not tree.delete(b"k05")
        assert b"k05" not in tree
        assert len(tree) == 29

    def test_io_accounting_logarithmic(self):
        tree = BPlusTree(order=16)
        for i in range(2000):
            tree.insert(("k%06d" % i).encode())
        before = tree.pages_read
        assert b"k001000" in tree
        # one lookup touches O(depth) pages, far below a full scan
        assert tree.pages_read - before <= 6

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_contains(self):
        tree = BPlusTree()
        tree.insert(b"x")
        assert b"x" in tree
        assert b"y" not in tree

    def test_prefix_upper_bound(self):
        assert _prefix_upper_bound(b"ab") == b"ac"
        assert _prefix_upper_bound(b"a\xff") == b"b"
        assert _prefix_upper_bound(b"\xff\xff") is None

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.binary(min_size=1, max_size=12), min_size=1, max_size=200
        )
    )
    def test_model_based_property(self, keys):
        """The tree behaves exactly like a sorted set."""
        tree = BPlusTree(order=5)
        model = set()
        for key in keys:
            assert tree.insert(key) == (key not in model)
            model.add(key)
        tree.check_invariants()
        assert list(tree.scan()) == sorted(model)
        assert all(key in tree for key in model)
        # delete half of them
        for key in sorted(model)[::2]:
            assert tree.delete(key)
            model.discard(key)
        assert list(tree.scan()) == sorted(model)
        assert not any(key in tree for key in keys if key not in model)


class TestClusteredIndexStore:
    def test_append_preserves_posting_order(self):
        store = ClusteredIndexStore()
        store.append("t", [P(9), P(1)])
        store.append("t", [P(5)])
        assert [p.start for p in store.get("t")] == [1, 5, 9]

    def test_terms_isolated(self):
        store = ClusteredIndexStore()
        store.append("a", [P(1)])
        store.append("ab", [P(3)])
        assert [p.start for p in store.get("a")] == [1]
        assert [p.start for p in store.get("ab")] == [3]

    def test_duplicate_append_idempotent(self):
        store = ClusteredIndexStore()
        assert store.append("t", [P(1)]) == 1
        assert store.append("t", [P(1)]) == 0
        assert store.count("t") == 1

    def test_get_range(self):
        store = ClusteredIndexStore()
        store.append("t", [P(i) for i in range(1, 30, 2)])
        sub = store.get_range("t", P(7, 0, level=0), Posting(0, 0, 13, 2**62, 99))
        assert [p.start for p in sub] == [7, 9, 11, 13]

    def test_delete_posting_and_term(self):
        store = ClusteredIndexStore()
        store.append("t", [P(1), P(3)])
        assert store.delete("t", [P(1)])
        assert store.count("t") == 1
        assert store.delete("t")
        assert store.count("t") == 0
        assert not store.delete("t")

    def test_terms_listing(self):
        store = ClusteredIndexStore()
        store.append("b", [P(1)])
        store.append("a", [P(1)])
        assert list(store.terms()) == ["a", "b"]

    def test_append_io_linear_not_quadratic(self):
        """Section 3: append cost must not grow with the stored list."""
        store = ClusteredIndexStore()
        store.append("t", [P(i) for i in range(1, 2001, 2)])
        before = store.stats.snapshot()
        store.append("t", [P(2002)])
        delta = store.stats.delta_since(before)
        # one append touches O(log n) pages, not the whole list
        assert delta.bytes_written <= 12 * 4096

    def test_term_with_nul_byte(self):
        store = ClusteredIndexStore()
        store.append("a\x00b", [P(1)])
        store.append("a", [P(3)])
        assert [p.start for p in store.get("a\x00b")] == [1]
        assert [p.start for p in store.get("a")] == [3]

    def test_invariants(self):
        store = ClusteredIndexStore()
        for term in ("x", "y", "z"):
            store.append(term, [P(i, peer=1) for i in range(1, 101, 2)])
        store.check_invariants()
        assert store.total_postings() == 150

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "author", "title", "t\x00x"]),
            st.lists(
                st.integers(min_value=1, max_value=10_000), min_size=1, max_size=40
            ),
            min_size=1,
        )
    )
    def test_store_equals_sorted_sets(self, data):
        store = ClusteredIndexStore()
        model = {}
        for term, starts in data.items():
            postings = [P(s) for s in starts]
            store.append(term, postings)
            model.setdefault(term, set()).update(postings)
        for term, expected in model.items():
            assert store.get(term).items() == sorted(expected)
            assert store.count(term) == len(expected)


# -- the leaf-slice read path, against the per-key scan it replaced ----------

_KEYS = st.binary(max_size=6).map(lambda k: k.replace(b"\x01", b"\xff"))


def _leaves(tree):
    """The leaves in chain order."""
    node = tree._root
    while hasattr(node, "children"):
        node = node.children[0]
    leaves = []
    while node is not None:
        leaves.append(node)
        node = node.next
    return leaves


def _scan_read(tree, lo, hi):
    """The reference: keys and pages of consuming the ``scan`` generator."""
    before = tree.pages_read
    keys = list(tree.scan(lo, hi))
    return keys, tree.pages_read - before


def _slice_read(tree, lo, hi):
    before = tree.pages_read
    keys = [key for keys in tree.leaf_slices(lo, hi) for key in keys]
    return keys, tree.pages_read - before


def _no_trailing_charge(self, lo, hi=None):
    """Mutant of ``BPlusTree.leaf_slices``: a next leaf whose first key is
    already ``>= hi`` is read for free."""
    leaf = self._find_leaf(lo)
    i = bisect.bisect_left(leaf.keys, lo)
    while True:
        keys = leaf.keys
        j = len(keys) if hi is None else bisect.bisect_left(keys, hi, i)
        if i < j:
            yield keys[i:j]
        if j < len(keys) or leaf.next is None:
            return
        leaf, i = leaf.next, 0
        if hi is None or not leaf.keys or leaf.keys[0] < hi:
            self.pages_read += 1


@st.composite
def _trees(draw):
    """A tree, with deletes that leave underfull and empty leaves, and the
    range bounds to read it with: leaf boundaries, present, deleted and
    arbitrary keys, and None."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=120, unique=True))
    tree = BPlusTree(order=draw(st.sampled_from([4, 5, 8])))
    for key in keys:
        tree.insert(key)
    ordered = sorted(keys)
    if draw(st.booleans()):  # empty a run of neighbouring leaves
        start = draw(st.integers(0, len(ordered) - 1))
        doomed = ordered[start : start + draw(st.integers(1, 24))]
    else:
        doomed = draw(st.lists(st.sampled_from(ordered), unique=True))
    for key in doomed:
        tree.delete(key)
    firsts = [leaf.keys[0] for leaf in _leaves(tree) if leaf.keys] or ordered
    lasts = [leaf.keys[-1] for leaf in _leaves(tree) if leaf.keys] or ordered
    bound = st.sampled_from(firsts) | st.sampled_from(lasts + ordered) | _KEYS
    lo = draw(bound)
    hi = draw(st.none() | bound)
    return tree, lo, hi


class TestLeafSliceReads:
    @settings(max_examples=300, deadline=None)
    @given(_trees())
    def test_same_keys_and_pages_as_scan(self, case):
        tree, lo, hi = case
        assert _slice_read(tree, lo, hi) == _scan_read(tree, lo, hi)

    def test_every_leaf_boundary_range(self):
        """Ranges that start and end exactly on leaf boundaries, some empty
        leaves among them, and ranges open at the end."""
        tree = BPlusTree(order=4)
        for i in range(60):
            tree.insert(b"\x00\xff%03d" % i)
        for i in range(20, 31):  # at least one leaf left empty
            tree.delete(b"\x00\xff%03d" % i)
        assert any(not leaf.keys for leaf in _leaves(tree))
        firsts = [leaf.keys[0] for leaf in _leaves(tree) if leaf.keys]
        for lo in firsts:
            for hi in firsts + [None]:
                assert _slice_read(tree, lo, hi) == _scan_read(tree, lo, hi)

    def test_mutant_without_trailing_charge_fails(self, monkeypatch):
        tree = BPlusTree(order=4)
        for i in range(20):
            tree.insert(b"k%02d" % i)
        lo, hi = (leaf.keys[0] for leaf in _leaves(tree)[1:3])  # one whole leaf
        assert _slice_read(tree, lo, hi) == _scan_read(tree, lo, hi)
        monkeypatch.setattr(BPlusTree, "leaf_slices", _no_trailing_charge)
        assert _slice_read(tree, lo, hi) != _scan_read(tree, lo, hi)


_FIELD = st.sampled_from([0, 1, 2, 255, 256, 2**31, 2**63 - 1]) | st.integers(0, 50)
_POSTING = st.tuples(*[_FIELD] * 5).map(lambda row: Posting(*row))


def _row_built_read(store, term, lo=None, hi=None):
    """The replaced read: one ``Posting`` per key off the ``scan``
    generator, then a presorted row-built list; returns it and the bytes
    read."""
    tree = store._tree
    before = tree.pages_read
    prefix = _encode_term(term)
    if lo is None:
        keys = tree.scan(prefix, _prefix_upper_bound(prefix))
    else:
        lo_key = prefix + _POSTING_STRUCT.pack(*lo)
        keys = tree.scan(lo_key, prefix + _POSTING_STRUCT.pack(*hi) + b"\x00")
    rows = [Posting(*_POSTING_STRUCT.unpack(key[len(prefix) :])) for key in keys]
    return PostingList(rows, presorted=True), (tree.pages_read - before) * tree.page_size


class TestColumnarStoreReads:
    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["a", "a\x00", "\x00", "\xff", "\uffff", "a\x00b"]),
            st.lists(_POSTING, min_size=1, max_size=60),
        ),
        st.data(),
    )
    def test_get_and_get_range_equal_the_row_built_read(self, content, data):
        """Terms with NUL and high bytes, fields up to 2**63 - 1, and deletes
        that leave underfull and empty leaves."""
        store = ClusteredIndexStore(order=data.draw(st.sampled_from([4, 6, 64])))
        for term, postings in content.items():
            store.append(term, postings)
            for posting in data.draw(st.lists(st.sampled_from(postings))):
                store.delete(term, [posting])
        for term in list(content) + ["absent"]:
            expected, cost = _row_built_read(store, term)
            before = store.stats.bytes_read
            got = store.get(term)
            assert got == expected and got.items() == expected.items()
            assert store.stats.bytes_read - before == cost
            lo, hi = sorted(data.draw(st.tuples(_POSTING, _POSTING)))
            expected, cost = _row_built_read(store, term, lo, hi)
            before = store.stats.bytes_read
            assert store.get_range(term, lo, hi) == expected
            assert store.stats.bytes_read - before == cost


# -- the sorted-run write path, against the per-key loop it replaced ---------


def _per_key_insert_many(self, keys):
    """The replaced ``BPlusTree.insert_many``: one ``insert`` per key."""
    if self._dirty is not None:
        raise RuntimeError("insert_many cannot nest")
    self._dirty = set()
    added = 0
    try:
        for key in keys:
            if self.insert(key):
                added += 1
    finally:
        # each dirty page is read-modified-written once per batch
        self.pages_read += len(self._dirty)
        self.pages_written += len(self._dirty)
        self._dirty = None
    return added


def _shape(node):
    """Every key and separator of the subtree, nested as stored."""
    if hasattr(node, "children"):
        return list(node.keys), [_shape(child) for child in node.children]
    return list(node.keys)


def _state(tree):
    return _shape(tree._root), len(tree), tree.pages_read, tree.pages_written


def _mutant(method, *edits, module=bptree):
    """``method`` recompiled from its source, in ``module``'s namespace,
    with each ``(old, new)`` edit applied."""
    source = textwrap.dedent(inspect.getsource(method))
    for old, new in edits:
        assert old in source, old
        source = source.replace(old, new)
    namespace = dict(vars(module))
    exec(source, namespace)
    return namespace[method.__name__]


#: skips the full-leaf fallback: a run fills a leaf past ``order``
_NO_FULL_LEAF_FALLBACK = (("room <= 0 or ", ""), ("min(n, i + room)", "n"))


def _key(number):
    """Variable-length keys, so bytewise order is not numeric order."""
    return b"%d" % (3 * number)


@st.composite
def _insert_runs(draw):
    """An order, a key universe, and a script of runs and deletes: runs
    that interleave existing keys, cross many fences or fill whole leaves,
    re-insert held keys, unsorted and repeated keys, empty runs, and deletes
    that leave empty leaves."""
    order = draw(st.sampled_from([4, 5, 64]))
    rng = draw(st.randoms(use_true_random=False))
    universe = draw(st.sampled_from([30, 300, 3000]))
    script = []
    for _ in range(draw(st.integers(1, 6))):
        if script and rng.random() < 0.3:
            start = rng.randrange(universe)
            script.append(("delete", range(start, start + rng.randint(1, 3 * order))))
        size = rng.choice([0, 1, 2, 3, rng.randint(4, universe // 2)])
        if rng.random() < 0.4:  # dense: fills leaves, re-inserts what is there
            start = rng.randrange(universe)
            numbers = list(range(start, start + size))
        else:
            numbers = sorted(rng.sample(range(universe), min(size, universe)))
        if numbers and rng.random() < 0.15:
            numbers.insert(rng.randrange(len(numbers)), rng.choice(numbers))
        if rng.random() < 0.15:
            rng.shuffle(numbers)
        script.append(("insert", [_key(k) for k in numbers]))
    return order, script


def _run_script(order, script, insert_many):
    """Trees after each step, and each run's return value."""
    tree = BPlusTree(order=order)
    seen = []
    for step in script:
        if step[0] == "delete":
            for k in step[1]:
                tree.delete(_key(k))
            seen.append(_state(tree))
        else:
            seen.append((insert_many(tree, step[1]), _state(tree)))
            tree.check_invariants()
    return seen


class TestSortedRunInserts:
    @settings(max_examples=300, deadline=None)
    @given(_insert_runs())
    def test_equals_the_per_key_loop(self, case):
        order, script = case
        assert _run_script(order, script, BPlusTree.insert_many) == _run_script(
            order, script, _per_key_insert_many
        )

    def test_runs_that_cross_fences_fill_leaves_and_overwrite(self):
        for order in (4, 5, 64):
            script = [
                ("insert", sorted(_key(k) for k in range(0, 900, 3))),
                ("delete", range(100, 460)),
                ("insert", sorted(_key(k) for k in range(1, 900, 2))),
                ("insert", sorted(_key(k) for k in range(0, 900, 5))),
                ("insert", []),
            ]
            assert _run_script(order, script, BPlusTree.insert_many) == _run_script(
                order, script, _per_key_insert_many
            )

    def test_mutant_without_full_leaf_fallback_fails(self, monkeypatch):
        script = [("insert", [b"%03d" % k for k in range(20)])]
        reference = _run_script(4, script, _per_key_insert_many)
        assert _run_script(4, script, BPlusTree.insert_many) == reference
        mutant = _mutant(BPlusTree.insert_many, *_NO_FULL_LEAF_FALLBACK)
        monkeypatch.setattr(BPlusTree, "check_invariants", lambda tree: None)
        assert _run_script(4, script, mutant) != reference

    def test_node_size_invariant_catches_an_overfilled_leaf(self):
        tree = BPlusTree(order=4)
        mutant = _mutant(BPlusTree.insert_many, *_NO_FULL_LEAF_FALLBACK)
        mutant(tree, [b"%03d" % k for k in range(10)])
        assert len(tree._root.keys) == 10  # every other invariant holds
        with pytest.raises(AssertionError, match="more than order keys"):
            tree.check_invariants()


def _per_key_term_delete(store, term):
    """The replaced whole-term ``ClusteredIndexStore.delete``: read the
    term's keys, then delete them one at a time."""
    tree = store._tree
    r, w = tree.pages_read, tree.pages_written
    try:
        prefix = _encode_term(term)
        keys = list(chain.from_iterable(tree.leaf_slices(prefix, _prefix_upper_bound(prefix))))
        for key in keys:
            tree.delete(key)
        store._counts.pop(term, None)
        return bool(keys)
    finally:
        store.stats.num_ops += 1
        store._charge(r, w)


class TestWholeTermDelete:
    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["a", "a\x00", "ab", "b", "\xff"]),
            st.lists(_POSTING, max_size=80),
            min_size=1,
        ),
        st.sampled_from([4, 5, 64]),
        st.data(),
    )
    def test_equals_the_per_key_loop(self, content, order, data):
        stores = [ClusteredIndexStore(order=order) for _ in range(2)]
        for store in stores:
            for term, postings in content.items():
                store.append(term, postings)
        doomed = data.draw(st.lists(st.sampled_from(list(content) + ["absent"])))
        for term in doomed:
            assert stores[0].delete(term) == _per_key_term_delete(stores[1], term)
            got, expected = (
                (_shape(s._tree._root), len(s._tree), s._tree.pages_read,
                 s._tree.pages_written, s.stats.snapshot(), s._counts)
                for s in stores
            )
            assert got == expected
            stores[0].check_invariants()


# -- the batched delete, against the per-posting loop it replaced -------------


def _clustered_point_delete(store, term, posting):
    """The replaced ``ClusteredIndexStore.delete`` of one posting."""
    tree = store._tree
    r, w = tree.pages_read, tree.pages_written
    try:
        removed = tree.delete(_encode_term(term) + _POSTING_STRUCT.pack(*posting))
        if removed:
            store._counts[term] -= 1
            if not store._counts[term]:
                del store._counts[term]
        return removed
    finally:
        store.stats.num_ops += 1
        store._charge(r, w)


def _lsm_point_delete(store, term, posting):
    """The replaced ``LsmStore.delete`` of one posting."""
    live = store._keys.get(term)
    key = tuple(posting)
    if not live or key not in live:
        return False
    live.discard(key)
    if not live:
        del store._keys[term]
    mem = store._mem.get(term)
    if mem is not None and key in mem:
        mem.discard(key)
        store._mem_sorted.pop(term, None)
        store._mem_entries -= 1
        if not mem:
            del store._mem[term]
    store._mem_dead.setdefault(term, set()).add(key)
    store.stats.num_ops += 1
    store.stats.bytes_written += TOMBSTONE_BYTES
    return True


def _naive_point_delete(store, term, posting):
    """The replaced ``NaiveGzipStore.delete`` of one posting."""
    if term not in store._blobs:
        return False
    existing = store._read(term)
    removed = existing.remove(posting)
    if removed and len(existing):
        store._write(term, existing)
    elif removed:
        del store._blobs[term], store._counts[term]
        store.stats.num_ops += 1
    return removed


_POINT_DELETES = {
    ClusteredIndexStore: _clustered_point_delete,
    LsmStore: _lsm_point_delete,
    NaiveGzipStore: _naive_point_delete,
}

#: the backends, the LSM one with a memtable small enough to flush and
#: compact between deletes
_BACKENDS = {
    "btree": lambda: ClusteredIndexStore(order=4),
    "lsm": lambda: LsmStore(memtable_postings=8, max_runs=2),
    "naive": NaiveGzipStore,
}


def _per_posting_delete(store, term, run):
    """The replaced withdrawal: one point delete per posting of the run."""
    point = _POINT_DELETES[type(store)]
    return sum(point(store, term, posting) for posting in PostingList.of(run))


def _store_state(store):
    """The charges, then everything a reader sees, then the layout."""
    charged = store.stats.snapshot()
    layout = ()
    if isinstance(store, ClusteredIndexStore):
        layout = _state(store._tree), dict(store._counts)
    elif isinstance(store, LsmStore):
        runs = [(r.data, r.counts, r.dead, r.dropped, r.nbytes) for r in store._runs]
        layout = runs, store._mem, store._mem_dead, store.memtable_entries
    listed = list(store.terms())
    content = {term: (store.count(term), store.get(term).items()) for term in _DELETE_TERMS}
    return charged, listed, content, layout


_DELETE_TERMS = ("a", "a\x00", "b")

#: postings every backend's codec takes, few enough to collide
_HELD_POSTING = st.builds(
    lambda peer, doc, start, width, level: Posting(peer, doc, start, start + width, level),
    st.integers(0, 2), st.integers(0, 3), st.integers(1, 30), st.integers(0, 8),
    st.integers(0, 5),
)


@st.composite
def _delete_scripts(draw):
    """Appends and runs to delete: runs of held and absent postings,
    repeated ones, and runs that empty their term."""
    script = []
    held = {}
    for _ in range(draw(st.integers(1, 8))):
        term = draw(st.sampled_from(_DELETE_TERMS))
        if draw(st.integers(0, 2)) == 0:
            postings = draw(st.lists(_HELD_POSTING, min_size=1, max_size=30))
            held.setdefault(term, set()).update(postings)
            script.append(("append", term, postings))
            continue
        mine = sorted(held.get(term, ()))
        if mine and draw(st.booleans()):
            run = mine + draw(st.lists(_HELD_POSTING, max_size=3))  # empties the term
        else:
            run = draw(st.lists(st.sampled_from(mine) | _HELD_POSTING if mine else _HELD_POSTING, max_size=20))
        held[term] = set(mine) - set(run)
        script.append(("delete", term, run if draw(st.booleans()) else PostingList(run)))
    return script


def _run_deletes(store, script, delete):
    seen = []
    for op, term, postings in script:
        if op == "append":
            store.append(term, postings)
        else:
            seen.append((delete(store, term, postings), _store_state(store)))
            if hasattr(store, "check_invariants"):
                store.check_invariants()
    return seen


class TestBatchedStoreDelete:
    @pytest.mark.parametrize("backend", sorted(_BACKENDS))
    @settings(max_examples=150, deadline=None)
    @given(script=_delete_scripts())
    def test_equals_the_per_posting_loop(self, backend, script):
        make = _BACKENDS[backend]
        got = _run_deletes(make(), script, type(make()).delete)
        assert got == _run_deletes(make(), script, _per_posting_delete)

    @pytest.mark.parametrize("backend", sorted(_BACKENDS))
    def test_absent_postings_are_skipped_and_an_emptied_term_leaves(self, backend):
        store = _BACKENDS[backend]()
        store.append("t", [P(1), P(3)])
        store.append("u", [P(1)])
        assert store.delete("t", [P(2)]) == 0
        assert store.delete("absent", [P(1)]) == 0
        assert store.delete("t", [P(1), P(2), P(3), P(4)]) == 2
        assert list(store.terms()) == ["u"] and "t" not in store
        assert store.count("t") == 0 and store.get("t").items() == []

    def test_mutant_that_skips_the_count_update_fails(self, monkeypatch):
        script = [("append", "a", [P(1), P(3)]), ("delete", "a", [P(1), P(3)])]
        make = _BACKENDS["btree"]
        reference = _run_deletes(make(), script, _per_posting_delete)
        assert _run_deletes(make(), script, ClusteredIndexStore.delete) == reference
        mutant = _mutant(ClusteredIndexStore.delete, ("if removed:", "if False:"), module=clustered)
        with pytest.raises(AssertionError):  # the tree and the counts disagree
            _run_deletes(make(), script, mutant)
        monkeypatch.setattr(ClusteredIndexStore, "check_invariants", lambda store: None)
        assert _run_deletes(make(), script, mutant) != reference


@st.composite
def _delete_runs(draw):
    """A tree, and sorted runs of held and absent keys to delete from it:
    with repeats, over one leaf or many, emptying leaves."""
    order = draw(st.sampled_from([4, 5, 64]))
    universe = draw(st.sampled_from([30, 300]))
    held = draw(st.lists(st.integers(0, universe - 1), max_size=universe))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            start = draw(st.integers(0, universe - 1))
            numbers = list(range(start, start + draw(st.integers(1, 3 * order))))
        else:
            numbers = draw(st.lists(st.integers(0, universe), max_size=40))
        runs.append(sorted(_key(k) for k in numbers))
    return order, [_key(k) for k in held], runs


class TestSortedRunDeletes:
    @settings(max_examples=300, deadline=None)
    @given(_delete_runs())
    def test_equals_the_per_key_loop(self, case):
        order, held, runs = case
        trees = [BPlusTree(order=order) for _ in range(2)]
        for tree in trees:
            for key in held:
                tree.insert(key)
        for keys in runs:
            assert trees[0].delete_many(keys) == sum(map(trees[1].delete, keys))
            assert _state(trees[0]) == _state(trees[1])
            trees[0].check_invariants()

    def test_a_run_over_many_leaves_and_emptied_ones(self):
        for order in (4, 5, 64):
            trees = [BPlusTree(order=order) for _ in range(2)]
            for tree in trees:
                tree.insert_many([_key(k) for k in sorted(range(300), key=_key)])
            for numbers in (range(40, 200), range(0, 300, 7), range(30, 210)):
                keys = sorted(map(_key, numbers))
                assert trees[0].delete_many(keys) == sum(map(trees[1].delete, keys))
                assert _state(trees[0]) == _state(trees[1])
                trees[0].check_invariants()


class TestPutIsAUnion:
    @pytest.mark.parametrize("make", [ClusteredIndexStore, LsmStore, NaiveGzipStore])
    def test_put_over_an_existing_term(self, make):
        store = make()
        store.put("t", [P(1), P(3), P(5)])
        store.put("t", [P(3), P(4)])
        union = [P(1), P(3), P(4), P(5)]
        assert store.get("t").items() == union
        assert store.count("t") == len(union)


class TestEmptyWrites:
    """An empty write registers no term, on every backend: ``terms()`` is
    what the DHT walks to re-home keys."""

    @pytest.mark.parametrize("make", [ClusteredIndexStore, LsmStore, NaiveGzipStore])
    def test_empty_write_lists_no_term(self, make):
        store = make()
        store.append("t", [])
        store.put("u", [])
        store.append("v", PostingList())
        assert list(store.terms()) == []
        assert store.count("t") == store.count("u") == 0
        store.append("t", [P(1)])
        store.append("t", [])
        store.put("t", [])
        assert list(store.terms()) == ["t"]
        assert store.get("t").items() == [P(1)]
        assert store.delete("t") and list(store.terms()) == []

    @pytest.mark.parametrize("make", [ClusteredIndexStore, LsmStore, NaiveGzipStore])
    def test_point_delete_of_the_last_posting_drops_the_term(self, make):
        store = make()
        store.append("t", [P(1), P(3)])
        assert store.delete("t", [P(1)])
        assert list(store.terms()) == ["t"]
        assert store.delete("t", [P(3)])
        assert list(store.terms()) == [] and "t" not in store
        assert store.count("t") == 0 and store.get("t").items() == []
        assert not store.delete("t", [P(3)])


# -- the set memtable, against the PostingList memtable it replaced ---------

# The replaced LsmStore, verbatim but for its name, for ``delete`` taking
# its one posting as a one-element run, and for its unions: each term's
# memtable is a PostingList that takes one ordered insert per posting
# (``extend`` of one row, where the store called the since-deleted ``add``),
# and its reads and folds union two lists with ``PostingList.concat``.


class _ReferenceLsmStore(Store):
    """Log-structured term → posting-list store (memtable + runs)."""

    def __init__(
        self,
        memtable_postings=DEFAULT_MEMTABLE_POSTINGS,
        max_runs=DEFAULT_MAX_RUNS,
        compact_interval_s=DEFAULT_COMPACT_INTERVAL_S,
    ):
        super().__init__()
        if memtable_postings < 1:
            raise ValueError("memtable_postings must be >= 1")
        if max_runs < 1:
            raise ValueError("max_runs must be >= 1")
        self._memtable_postings = memtable_postings
        self._max_runs = max_runs
        self._compact_interval_s = compact_interval_s
        self._mem = {}  # term -> PostingList (this epoch's additions)
        self._mem_dead = {}  # term -> set of posting keys deleted this epoch
        self._mem_dropped = set()  # whole-term deletes this epoch
        self._mem_entries = 0  # buffered postings (flush trigger)
        self._runs = []  # _Run, oldest first
        # authoritative live key set / counts (simulation metadata, like
        # the other backends' _counts; the physical layers must reconstruct
        # exactly this — check_invariants and the property suite assert it)
        self._keys = {}  # term -> set of posting tuples
        self._last_compact_s = None
        self.compactions = 0  # folds performed (stats surface)

    # -- write path ------------------------------------------------------------

    def append(self, term, postings):
        """Memtable insert: one sequential log write of the batch."""
        plist = PostingList.of(postings)
        live = self._keys.setdefault(term, set())
        mem = self._mem.get(term)
        dead = self._mem_dead.get(term)
        added = 0
        for posting in plist:
            key = tuple(posting)
            if dead is not None:
                dead.discard(key)
            if key in live:
                continue
            live.add(key)
            if mem is None:
                mem = self._mem.setdefault(term, PostingList())
            mem.extend((posting,))
            added += 1
            self._mem_entries += 1
        self.stats.num_ops += 1
        self.stats.bytes_written += encoded_size(plist)
        if self._mem_entries >= self._memtable_postings:
            self.flush()
        return added

    def put(self, term, postings):
        # the memtable absorbs and deduplicates, so a reconciling put is
        # just an append — like the clustered store's
        self.append(term, postings)

    def delete(self, term, postings=None):
        """Blind tombstone write (plus the metadata presence check)."""
        live = self._keys.get(term)
        if postings is None:
            if not live:
                return False
            self._keys.pop(term, None)
            buffered = self._mem.pop(term, None)
            if buffered is not None:
                self._mem_entries -= len(buffered)
            self._mem_dead.pop(term, None)
            self._mem_dropped.add(term)
            self.stats.num_ops += 1
            self.stats.bytes_written += TOMBSTONE_BYTES
            return True
        (posting,) = postings
        key = tuple(posting)
        if not live or key not in live:
            return False
        live.discard(key)
        if not live:
            del self._keys[term]
        mem = self._mem.get(term)
        if mem is not None and mem.remove(posting):
            self._mem_entries -= 1
            if not len(mem):
                del self._mem[term]
        self._mem_dead.setdefault(term, set()).add(key)
        self.stats.num_ops += 1
        self.stats.bytes_written += TOMBSTONE_BYTES
        return True

    def flush(self):
        """Freeze the memtable into a new immutable run."""
        if not self._mem and not self._mem_dead and not self._mem_dropped:
            return False
        data = {}
        counts = {}
        for term, plist in self._mem.items():
            blob = encode_postings(plist)
            data[term] = blob
            counts[term] = len(plist)
            self.stats.bytes_written += len(blob)
        dead = {
            term: set(keys) for term, keys in self._mem_dead.items() if keys
        }
        dropped = set(self._mem_dropped)
        self.stats.bytes_written += TOMBSTONE_BYTES * (
            sum(len(keys) for keys in dead.values()) + len(dropped)
        )
        self.stats.num_ops += 1
        self._runs.append(_Run(data, counts, dead, dropped))
        self._mem = {}
        self._mem_dead = {}
        self._mem_dropped = set()
        self._mem_entries = 0
        while len(self._runs) > self._max_runs:
            self._compact_once()
        return True

    # -- compaction ------------------------------------------------------------

    def _compact_once(self):
        """Fold the two oldest runs into one (tombstones GC at the bottom)."""
        if len(self._runs) < 2:
            return False
        older, newer = self._runs[0], self._runs[1]
        self.stats.bytes_read += older.nbytes + newer.nbytes
        merged_data = {}
        merged_counts = {}
        merged_dead = {}
        merged_dropped = set()
        for term in older.terms() | newer.terms():
            base = PostingList()
            if term in older.data:
                base, _ = decode_postings(older.data[term])
            if term in newer.dropped:
                base = PostingList()
            else:
                kill = newer.dead.get(term)
                if kill:
                    base = base.without(kill)
            if term in newer.data:
                addition, _ = decode_postings(newer.data[term])
                base = PostingList.concat((base, addition))
            if len(base):
                merged_data[term] = encode_postings(base)
                merged_counts[term] = len(base)
            # tombstones survive the fold only while older runs remain
            # below them; at the bottom of the tree they are garbage
            if term in older.dropped or term in newer.dropped:
                merged_dropped.add(term)
            keep_dead = older.dead.get(term, set()) | newer.dead.get(
                term, set()
            )
            if keep_dead:
                merged_dead[term] = set(keep_dead)
        bottom = self._runs[0] is older and len(self._runs) >= 2
        if bottom:
            merged_dead = {}
            merged_dropped = set()
        run = _Run(merged_data, merged_counts, merged_dead, merged_dropped)
        self.stats.bytes_written += run.nbytes
        self.stats.num_ops += 1
        self._runs[0:2] = [run]
        self.compactions += 1
        return True

    def compact_tick(self):
        """One background compaction step; returns True if a fold ran."""
        if len(self._runs) < 2:
            return False
        return self._compact_once()

    def maybe_compact(self, now_s):
        """Serving-clock hook: fold at most one pair per interval."""
        if self._compact_interval_s is None:
            return False
        if (
            self._last_compact_s is not None
            and now_s - self._last_compact_s < self._compact_interval_s
        ):
            return False
        self._last_compact_s = now_s
        return self.compact_tick()

    # -- read path -------------------------------------------------------------

    def _reconstruct(self, term, charge=True):
        """Merge a term's fragments across runs + memtable, oldest first."""
        acc = PostingList()
        probed = 0
        for run in self._runs:
            touched = False
            if term in run.dropped:
                acc = PostingList()
                touched = True
            else:
                kill = run.dead.get(term)
                if kill:
                    acc = acc.without(kill)
                    touched = True
            blob = run.data.get(term)
            if blob is not None:
                fragment, _ = decode_postings(blob)
                acc = PostingList.concat((acc, fragment))
                if charge:
                    self.stats.bytes_read += len(blob)
                touched = True
            probed += touched
        if term in self._mem_dropped:
            acc = PostingList()
        kill = self._mem_dead.get(term)
        if kill:
            acc = acc.without(kill)
        mem = self._mem.get(term)
        if mem is not None:
            acc = PostingList.concat((acc, mem))
        if charge:
            self.stats.num_ops += 1 + probed
        return acc

    def get(self, term):
        return self._reconstruct(term)

    def get_range(self, term, lo, hi):
        """Range read: the runs hold whole-term blobs, so the fragments are
        read in full and the range is cut after the merge (the honest LSM
        read-amplification story, vs. the B+-tree's page-ranged scan)."""
        return self._reconstruct(term).range(lo, hi)

    def terms(self):
        return iter(sorted(self._keys))

    def count(self, term):
        return len(self._keys.get(term, ()))

    def total_postings(self):
        return sum(len(keys) for keys in self._keys.values())

    # -- introspection ---------------------------------------------------------

    @property
    def num_runs(self):
        return len(self._runs)

    @property
    def memtable_entries(self):
        return self._mem_entries

    def stored_bytes(self):
        """Encoded bytes currently frozen in runs (store footprint)."""
        return sum(run.nbytes for run in self._runs)

    def check_invariants(self):
        """Physical layers must reconstruct the authoritative key sets."""
        for term in set(self._keys) | set(self._mem) | {
            t for run in self._runs for t in run.terms()
        }:
            rebuilt = {tuple(p) for p in self._reconstruct(term, charge=False)}
            assert rebuilt == self._keys.get(term, set()), (
                "LSM layers disagree with live keys for %r: %d rebuilt vs"
                " %d live" % (term, len(rebuilt), len(self._keys.get(term, ())))
            )
        assert self._mem_entries == sum(len(m) for m in self._mem.values())


_LSM_TERMS = ("a", "b", "c")


def _lsm_row(rng):
    start = rng.randint(1, 6)
    return (rng.randrange(2), rng.randrange(3), start, start + rng.randrange(2), 1)


def _lsm_script(rng, steps):
    """Appends (empty, repeated, overlapping live or deleted keys), point
    and whole-term deletes, re-adds, flushes, compaction ticks and reads
    over a small key universe, so every step meets keys seen before."""
    script = []
    for _ in range(steps):
        term = rng.choice(_LSM_TERMS)
        action = rng.random()
        if action < 0.4:
            rows = [_lsm_row(rng) for _ in range(rng.choice([0, 1, 1, 2, 6, 20]))]
            if rows and rng.random() < 0.3:
                rows.append(rng.choice(rows))
            script.append(("append", term, rows, rng.random() < 0.3))
        elif action < 0.65:
            script.append(("delete", term, _lsm_row(rng)))
        elif action < 0.72:
            script.append(("drop", term))
        elif action < 0.8:
            script.append(("flush",))
        elif action < 0.88:
            script.append(("compact",))
        else:
            lo, hi = sorted((_lsm_row(rng), _lsm_row(rng)))
            script.append(("range", term, lo, hi))
    return script


def _lsm_step(store, step):
    op = step[0]
    if op == "append":
        _, term, rows, as_list = step
        batch = [Posting(*row) for row in rows]
        return store.append(term, PostingList(batch) if as_list else batch)
    if op == "delete":
        return store.delete(step[1], [Posting(*step[2])])
    if op == "drop":
        return store.delete(step[1])
    if op == "flush":
        return store.flush()
    if op == "compact":
        return store.compact_tick()
    return store.get_range(step[1], step[2], step[3]).items()


def _lsm_observe(store):
    """Reads of every term, then the store's counters, runs and memtable
    size (the reads are charged alike on both sides)."""
    reads = [store.get(term).items() for term in _LSM_TERMS]
    runs = [(r.data, r.counts, r.dead, r.dropped, r.nbytes) for r in store._runs]
    listed = [term for term in store.terms() if store.count(term)]
    return reads, store.stats.snapshot(), runs, store.memtable_entries, listed


def _lsm_trace(store, script, check=True):
    trace = []
    for step in script:
        trace.append((_lsm_step(store, step), _lsm_observe(store)))
        if check:
            store.check_invariants()
    return trace


class TestSetMemtable:
    @settings(max_examples=200, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from([2, 5, 40]),
        st.sampled_from([1, 2, 8]),
    )
    def test_equals_the_posting_list_memtable(self, rng, memtable, max_runs):
        script = _lsm_script(rng, 60)
        new = LsmStore(memtable_postings=memtable, max_runs=max_runs)
        old = _ReferenceLsmStore(memtable_postings=memtable, max_runs=max_runs)
        assert _lsm_trace(new, script) == _lsm_trace(old, script, check=False)
        # the replaced store listed a term after an empty write
        assert list(new.terms()) == [t for t in old.terms() if old.count(t)]

    def test_mutant_that_keeps_cancelled_tombstones_fails(self, monkeypatch):
        """Without ``dead -= rows`` a re-added key keeps its tombstone, which
        the next flush writes: the reads agree, the written bytes do not,
        and the invariant names the cause."""
        row = (0, 0, 1, 2, 1)
        script = [
            ("append", "a", [row], False),
            ("flush",),
            ("delete", "a", row),
            ("append", "a", [row], False),
            ("flush",),
        ]
        reference = _lsm_trace(_ReferenceLsmStore(), script, check=False)
        assert _lsm_trace(LsmStore(), script) == reference
        mutant = _mutant(LsmStore.append, ("dead -= rows", "pass"), module=lsm)
        monkeypatch.setattr(LsmStore, "append", mutant)
        got = _lsm_trace(LsmStore(), script, check=False)
        assert [obs[0] for _, obs in got] == [obs[0] for _, obs in reference]
        assert got != reference
        store = LsmStore()
        for step in script[:4]:
            _lsm_step(store, step)
        with pytest.raises(AssertionError, match="tombstoned this epoch"):
            store.check_invariants()

    def test_random_scripts_reach_every_case(self):
        """The script generator exercises what the equality test relies on:
        cancelled tombstones, empty appends, automatic flushes, folds."""
        rng = random.Random(0)
        store = _ReferenceLsmStore(memtable_postings=5, max_runs=2)
        cancelled = empty = 0
        for step in _lsm_script(rng, 400):
            if step[0] == "append":
                empty += not step[2]
                dead = store._mem_dead.get(step[1], set())
                cancelled += any(row in dead for row in step[2])
            _lsm_step(store, step)
        assert cancelled and empty
        assert store.compactions and store.num_runs
