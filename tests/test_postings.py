"""Tests for postings: ordering, posting lists, the binary encoder."""

import pytest
from hypothesis import given, strategies as st

from repro.postings import kernels
from repro.postings.encoder import (
    decode_postings,
    encode_postings,
    encoded_size,
    encoded_size_sum,
)
from repro.postings.plist import PostingList
from repro.postings.posting import Posting, StructuralId
from repro.postings.term_relation import label_key, word_key


def P(peer, doc, start, end, level=1):
    return Posting(peer, doc, start, end, level)


posting_strategy = st.builds(
    lambda p, d, s, w, l: Posting(p, d, s, s + w, l),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=100_000),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=0, max_value=30),
)


class TestPosting:
    def test_lexicographic_order(self):
        assert P(0, 0, 1, 10) < P(0, 0, 2, 5)
        assert P(0, 1, 1, 2) > P(0, 0, 9, 10)
        assert P(1, 0, 1, 2) > P(0, 9, 9, 10)

    def test_ancestor_check(self):
        outer, inner = P(0, 0, 1, 10), P(0, 0, 3, 4, level=2)
        assert outer.is_ancestor_of(inner)
        assert not inner.is_ancestor_of(outer)

    def test_ancestor_requires_same_doc(self):
        assert not P(0, 0, 1, 10).is_ancestor_of(P(0, 1, 3, 4))
        assert not P(0, 0, 1, 10).is_ancestor_of(P(1, 0, 3, 4))

    def test_sid(self):
        assert P(0, 0, 2, 5, level=3).sid == StructuralId(2, 5, 3)

    def test_sid_contains(self):
        assert StructuralId(1, 10, 0).contains(StructuralId(2, 3, 1))
        assert not StructuralId(2, 3, 1).contains(StructuralId(2, 3, 1))

    def test_doc_id(self):
        assert P(3, 7, 1, 2).doc_id == (3, 7)


class TestPostingList:
    def test_sorts_on_construction(self):
        pl = PostingList([P(0, 1, 1, 2), P(0, 0, 1, 2)])
        assert pl[0] == P(0, 0, 1, 2)

    def test_presorted_validation(self):
        with pytest.raises(ValueError):
            PostingList([P(0, 1, 1, 2), P(0, 0, 1, 2)], presorted=True)

    def test_extend_fast_path_appends(self):
        pl = PostingList([P(0, 0, 1, 2)])
        pl.extend([P(0, 0, 3, 4), P(0, 0, 5, 6)])
        assert len(pl) == 3

    def test_extend_merges_out_of_order(self):
        pl = PostingList([P(0, 0, 3, 4)])
        pl.extend([P(0, 0, 1, 2), P(0, 0, 3, 4)])
        assert pl.items() == [P(0, 0, 1, 2), P(0, 0, 3, 4)]

    def test_remove(self):
        pl = PostingList([P(0, 0, 1, 2)])
        assert pl.remove(P(0, 0, 1, 2))
        assert not pl.remove(P(0, 0, 1, 2))
        assert len(pl) == 0

    def test_contains(self):
        pl = PostingList([P(0, 0, 1, 2)])
        assert P(0, 0, 1, 2) in pl
        assert P(0, 0, 3, 4) not in pl

    def test_range(self):
        pl = PostingList([P(0, 0, i, i + 1) for i in range(1, 20, 2)])
        sub = pl.range(P(0, 0, 5, 0), P(0, 0, 11, 999))
        assert [p.start for p in sub] == [5, 7, 9, 11]

    def test_doc_ids_deduped_ordered(self):
        pl = PostingList([P(0, 0, 1, 2), P(0, 0, 3, 4), P(0, 2, 1, 2)])
        assert pl.doc_ids() == [(0, 0), (0, 2)]

    def test_split_and_chunks(self):
        pl = PostingList([P(0, 0, i, i + 1) for i in range(1, 11)])
        left, right = pl.split_at(4)
        assert len(left) == 4 and len(right) == 6
        chunks = list(pl.chunks(3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_chunks_validation(self):
        with pytest.raises(ValueError):
            list(PostingList().chunks(0))

    def test_merge(self):
        a = PostingList([P(0, 0, 1, 2)])
        b = PostingList([P(0, 0, 3, 4), P(0, 0, 1, 2)])
        merged = PostingList.concat((a, b))
        assert merged.items() == [P(0, 0, 1, 2), P(0, 0, 3, 4)]
        assert len(a) == 1 and len(b) == 2  # the union mutates neither

    def test_without_drops_exactly_the_given_rows(self):
        pl = PostingList([P(0, 0, i, i + 1) for i in range(1, 8, 2)])
        gone = {tuple(pl[1]), tuple(pl[3]), (9, 9, 9, 9, 9)}
        assert pl.without(gone).items() == [p for p in pl if tuple(p) not in gone]
        assert pl.without(gone).items() == [pl[0], pl[2]]
        assert pl.without(set()) == pl

    def test_slice_returns_posting_list(self):
        pl = PostingList([P(0, 0, i, i + 1) for i in range(1, 9, 2)])
        assert isinstance(pl[1:3], PostingList)
        assert len(pl[1:3]) == 2

    @given(st.lists(posting_strategy, max_size=60))
    def test_always_sorted_invariant(self, postings):
        pl = PostingList(postings)
        items = pl.items()
        assert items == sorted(set(items))


class TestEncoder:
    def test_empty(self):
        data = encode_postings([])
        decoded, offset = decode_postings(data)
        assert len(decoded) == 0 and offset == len(data)

    def test_roundtrip_simple(self):
        postings = PostingList([P(0, 0, 1, 8, 0), P(0, 0, 2, 3, 1), P(1, 2, 5, 9, 2)])
        decoded, _ = decode_postings(encode_postings(postings))
        assert decoded.items() == postings.items()

    def test_size_matches_encoding(self):
        postings = PostingList([P(0, d, s, s + 3, 1) for d in range(3) for s in (1, 50, 900)])
        assert encoded_size(postings) == len(encode_postings(postings))

    def test_delta_compression_helps(self):
        dense = PostingList([P(0, 0, i, i + 1, 5) for i in range(1, 1001)])
        # 5 fields shrink to one byte each under delta coding (vs 40 fixed)
        assert encoded_size(dense) <= 5 * len(dense) + 8

    @given(st.lists(posting_strategy, max_size=80))
    def test_roundtrip_property(self, postings):
        pl = PostingList(postings)
        data = encode_postings(pl)
        decoded, offset = decode_postings(data)
        assert decoded.items() == pl.items()
        assert offset == len(data)
        assert encoded_size(pl) == len(data)


class TestEncodedSizeSum:
    """``encoded_size_sum`` against per-part ``encoded_size``, under every
    kernel backend."""

    BACKENDS = ["pure"] + (["numpy"] if kernels.numpy_available() else [])

    def check(self, parts):
        """Each part sorted, as the document phase hands its answers over;
        given as a list and as a generator."""
        parts = [sorted(part) for part in parts]
        previous = kernels.backend_name()
        try:
            for backend in self.BACKENDS:
                kernels.use_backend(backend)
                expected = sum(encoded_size(part) for part in parts)
                assert encoded_size_sum(parts) == expected, backend
                assert encoded_size_sum(part for part in parts) == expected, backend
        finally:
            kernels.use_backend(previous)

    @given(st.lists(st.lists(posting_strategy, max_size=6), max_size=12))
    def test_sum_of_part_sizes(self, parts):
        self.check(parts)

    def test_no_parts(self):
        self.check([])
        assert encoded_size_sum(iter([])) == 0

    def test_empty_parts(self):
        self.check([[], []])
        self.check([[], [P(0, 1, 2, 3)], [], [P(0, 1, 5, 9), P(0, 1, 6, 7)], []])

    def test_one_row_parts(self):
        self.check([[P(0, 1, 2, 3)]])
        self.check([[P(0, 1, 2, 3)], [P(0, 1, 2, 3)], [P(3, 400, 1, 200_000, 9)]])
        # a later part may start below an earlier one: only each is sorted
        self.check([[P(5, 9, 300, 400)], [P(0, 0, 1, 2)]])


class TestTermRelationKeys:
    def test_prefixes_distinct(self):
        assert label_key("author") != word_key("author")

    def test_word_key_case_folds(self):
        assert word_key("Ullman") == word_key("ullman")
