"""Tests for the local stores: naive gzip store, B+-tree, clustered index."""

import bisect

import pytest
from hypothesis import given, settings, strategies as st

from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.storage.bptree import BPlusTree, _prefix_upper_bound
from repro.storage.clustered import _POSTING_STRUCT, ClusteredIndexStore, _encode_term
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
        assert store.delete("a", P(1))
        assert store.get("a").items() == [P(3)]
        assert not store.delete("a", P(1))

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
        assert tree.insert(b"b", 1)
        assert tree.insert(b"a", 2)
        assert not tree.insert(b"a", 3)  # overwrite is not new
        assert tree.get(b"a") == 3
        assert tree.get(b"b") == 1
        assert tree.get(b"zz") is None
        assert len(tree) == 2

    def test_split_cascade(self):
        tree = BPlusTree(order=4)
        keys = [("k%04d" % i).encode() for i in range(200)]
        for i, key in enumerate(keys):
            tree.insert(key, i)
        tree.check_invariants()
        assert len(tree) == 200
        for i, key in enumerate(keys):
            assert tree.get(key) == i

    def test_reverse_and_random_insertion(self):
        import random

        rng = random.Random(3)
        keys = [("k%05d" % i).encode() for i in range(300)]
        shuffled = keys[:]
        rng.shuffle(shuffled)
        tree = BPlusTree(order=6)
        for key in shuffled:
            tree.insert(key, key)
        tree.check_invariants()
        assert list(tree.keys()) == sorted(keys)

    def test_scan_range(self):
        tree = BPlusTree(order=4)
        for i in range(50):
            tree.insert(("k%03d" % i).encode(), i)
        result = [v for _, v in tree.scan(b"k010", b"k020")]
        assert result == list(range(10, 20))

    def test_scan_full(self):
        tree = BPlusTree(order=4)
        for i in range(20):
            tree.insert(("k%02d" % i).encode(), i)
        assert [v for _, v in tree.scan()] == list(range(20))

    def test_scan_prefix(self):
        tree = BPlusTree(order=4)
        for term in (b"aa1", b"aa2", b"ab1", b"b1"):
            tree.insert(term, term)
        slices = tree.leaf_slices(b"aa", _prefix_upper_bound(b"aa"))
        assert [k for keys in slices for k in keys] == [b"aa1", b"aa2"]

    def test_delete(self):
        tree = BPlusTree(order=4)
        for i in range(30):
            tree.insert(("k%02d" % i).encode(), i)
        assert tree.delete(b"k05")
        assert not tree.delete(b"k05")
        assert tree.get(b"k05") is None
        assert len(tree) == 29

    def test_io_accounting_logarithmic(self):
        tree = BPlusTree(order=16)
        for i in range(2000):
            tree.insert(("k%06d" % i).encode(), None)
        before = tree.pages_read
        tree.get(b"k001000")
        # one lookup touches O(depth) pages, far below a full scan
        assert tree.pages_read - before <= 6

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_contains(self):
        tree = BPlusTree()
        tree.insert(b"x", 1)
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
        """The tree behaves exactly like a sorted dict."""
        tree = BPlusTree(order=5)
        model = {}
        for i, key in enumerate(keys):
            tree.insert(key, i)
            model[key] = i
        tree.check_invariants()
        assert list(tree.keys()) == sorted(model)
        for key, value in model.items():
            assert tree.get(key) == value
        # delete half of them
        for key in sorted(model)[::2]:
            assert tree.delete(key)
            del model[key]
        assert list(tree.keys()) == sorted(model)


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
        assert store.delete("t", P(1))
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
    keys = [key for key, _ in tree.scan(lo, hi)]
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
        tree.insert(key, None)
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
            tree.insert(b"\x00\xff%03d" % i, None)
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
            tree.insert(b"k%02d" % i, None)
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
        pairs = tree.scan(prefix, _prefix_upper_bound(prefix))
    else:
        lo_key = prefix + _POSTING_STRUCT.pack(*lo)
        pairs = tree.scan(lo_key, prefix + _POSTING_STRUCT.pack(*hi) + b"\x00")
    rows = [Posting(*_POSTING_STRUCT.unpack(key[len(prefix) :])) for key, _ in pairs]
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
                store.delete(term, posting)
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
