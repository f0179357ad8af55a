"""Tests for the columnar batch operations of PostingList.

The five columns of a PostingList are the substrate under the wire codec,
the twig join, and the structural Bloom filters; these tests pin its batch
operations against straightforward list-based references:

* the ordered union (``concat``, ``extend``) against sorted-set union,
* point edits, sublists and derived values after random edit scripts,
  under every kernel backend, against a sorted set,
* galloping range extraction against a bisect reference,
* the streaming codec round-trip (fuzzed, including delta resets), and
* the ``encoded_size == len(encode())`` accounting identity.
"""

import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, strategies as st

from repro.postings import kernels
from repro.postings.encoder import decode_postings, encode_postings, encoded_size
from repro.postings.plist import PostingList
from repro.postings.posting import Posting


posting_strategy = st.builds(
    lambda p, d, s, w, l: Posting(p, d, s, s + w, l),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=2_000),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=0, max_value=12),
)

posting_lists = st.lists(posting_strategy, max_size=80)


def cols_of(postings):
    return PostingList(postings)


def as_tuples(cols):
    return list(zip(cols.peer, cols.doc, cols.start, cols.end, cols.level))


def reference_union(a, b):
    return sorted(set(tuple(p) for p in a) | set(tuple(p) for p in b))


class TestNormalize:
    def test_sorts_and_dedups(self):
        rows = [(1, 0, 5, 6, 1), (0, 0, 9, 10, 2), (1, 0, 5, 6, 1)]
        cols = cols_of(rows)
        assert as_tuples(cols) == [(0, 0, 9, 10, 2), (1, 0, 5, 6, 1)]

    def test_presorted_validation_rejects_disorder(self):
        with pytest.raises(ValueError):
            PostingList.normalize_rows(
                [(1, 0, 5, 6, 1), (0, 0, 9, 10, 2)], presorted=True
            )

    def test_empty(self):
        cols = cols_of([])
        assert len(cols) == 0
        assert as_tuples(cols) == []


class TestMergeKernel:
    @given(posting_lists, posting_lists)
    def test_merge_matches_sorted_set_union(self, a, b):
        merged = PostingList.concat((cols_of(a), cols_of(b)))
        assert as_tuples(merged) == reference_union(a, b)

    @given(posting_lists, posting_lists)
    def test_extend_sorted_matches_union(self, a, b):
        cols = cols_of(a)
        cols.extend(cols_of(b))
        assert as_tuples(cols) == reference_union(a, b)

    def test_disjoint_concat_fast_path(self):
        a = cols_of([(0, 0, i, i + 1, 1) for i in range(1, 50)])
        b = cols_of([(5, 0, i, i + 1, 1) for i in range(1, 50)])
        merged = PostingList.concat((a, b))
        assert as_tuples(merged) == reference_union(as_tuples(a), as_tuples(b))

    def test_posting_list_extend_is_linear_merge(self):
        # rows that interleave with the list take the union kernel
        rng = random.Random(11)
        base = [Posting(0, d, s, s + 1, 1) for d in range(5) for s in range(1, 40, 3)]
        extra = [
            Posting(rng.randrange(3), rng.randrange(5), rng.randrange(1, 99), 100, 1)
            for _ in range(60)
        ]
        pl = PostingList(base)
        pl.extend(extra)
        assert [tuple(p) for p in pl.items()] == reference_union(base, extra)


class TestConcatKernel:
    @given(st.lists(posting_lists, max_size=6))
    def test_concat_sorted_matches_iterative_merge(self, parts):
        # one union over every part must be output-identical to folding
        # the two-list union over them, and to the sorted-set union
        reference = PostingList()
        for part in parts:
            reference = PostingList.concat((reference, cols_of(part)))
        concat = PostingList.concat([cols_of(p) for p in parts])
        assert as_tuples(concat) == as_tuples(reference)
        assert as_tuples(concat) == sorted({tuple(p) for part in parts for p in part})

    def test_disjoint_parts_take_pure_concat_path(self):
        parts = [
            cols_of([(0, d, s, s + 1, 1) for s in range(1, 30)])
            for d in range(4)
        ]
        concat = PostingList.concat(parts)
        expected = [t for part in parts for t in as_tuples(part)]
        assert as_tuples(concat) == expected

    def test_overlapping_parts_sort_and_dedup(self):
        a = cols_of([(0, 0, 1, 2, 1), (0, 2, 5, 6, 1)])
        b = cols_of([(0, 1, 3, 4, 1), (0, 2, 5, 6, 1)])
        concat = PostingList.concat([a, b])
        assert as_tuples(concat) == [
            (0, 0, 1, 2, 1), (0, 1, 3, 4, 1), (0, 2, 5, 6, 1),
        ]

    def test_empty_parts_dropped(self):
        assert len(PostingList.concat([])) == 0
        only = cols_of([(0, 0, 1, 2, 1)])
        concat = PostingList.concat([cols_of([]), only, cols_of([])])
        assert as_tuples(concat) == as_tuples(only)
        # single-part path must copy, not alias, the input columns
        concat.extend(cols_of([(9, 9, 9, 10, 1)]))
        assert len(only) == 1

    @given(st.lists(posting_lists, max_size=5))
    def test_posting_list_concat_facade(self, parts):
        plists = [PostingList(p) for p in parts]
        folded = PostingList()
        for pl in plists:
            folded.extend(pl)
        concat = PostingList.concat(plists)
        assert concat.items() == folded.items()


class TestGallopingRanges:
    @given(posting_lists, posting_strategy, posting_strategy)
    def test_range_matches_slice_reference(self, postings, a, b):
        lo, hi = (a, b) if tuple(a) <= tuple(b) else (b, a)
        pl = PostingList(postings)
        rows = [tuple(p) for p in pl.items()]
        got = [tuple(p) for p in pl.range(lo, hi)]
        assert got == [r for r in rows if tuple(lo) <= r <= tuple(hi)]

    def test_gallop_brackets_match_bisect(self):
        cols = cols_of([(0, 0, s, s + 1, 1) for s in range(1, 2000, 7)])
        n = len(cols)
        keys = as_tuples(cols)
        rng = random.Random(3)
        for _ in range(200):
            probe = (0, 0, rng.randrange(0, 2100), rng.randrange(0, 2100), 1)
            assert cols.gallop_left(probe, 0) == bisect_left(keys, probe)
            assert cols.gallop_right(probe, 0) == bisect_right(keys, probe)
            start = rng.randrange(0, n + 1)
            want = bisect_left(keys, probe, start)
            assert cols.gallop_left(probe, start) == want


def loop_bisect(cols, key, side, lo=0, hi=None):
    """The tuple-compare binary search the column-wise bisect replaced."""
    if hi is None:
        hi = len(cols)
    while lo < hi:
        mid = (lo + hi) >> 1
        row = cols.key(mid)
        if row < key if side == "left" else row <= key:
            lo = mid + 1
        else:
            hi = mid
    return lo


class TestColumnBisect:
    def test_matches_tuple_compare_loop(self):
        rng = random.Random(5)
        for case in range(120):
            cols = cols_of(
                [
                    (rng.randrange(3), rng.randrange(5), rng.randrange(30),
                     rng.randrange(30), rng.randrange(3))
                    for _ in range((0, 1, 2, 40, 300)[case % 5])
                ]
            )
            n = len(cols)
            keys = [  # absent and present keys, full and prefixes of 0-4 fields
                tuple(rng.randrange(-1, 6) for _ in range(rng.randrange(6)))
                for _ in range(30)
            ]
            for i in range(0, n, 7):
                keys += [cols.key(i)[:width] for width in range(1, 6)]
            # document-bound sentinels: below and above every real field
            keys += [(1, 2, -1, -1, -1), (1, 2, 2**63, 2**63, 2**63)]
            for key in keys:
                windows = [(0, None), (rng.randrange(n + 1), rng.randrange(n + 1))]
                for lo, hi in windows:
                    assert cols.bisect_left(key, lo, hi) == loop_bisect(
                        cols, key, "left", lo, hi
                    ), (key, lo, hi)
                    assert cols.bisect_right(key, lo, hi) == loop_bisect(
                        cols, key, "right", lo, hi
                    ), (key, lo, hi)


KERNEL_BACKENDS = ["pure"] + (["numpy"] if kernels.numpy_available() else [])

operations = st.lists(
    st.tuples(
        st.sampled_from(["remove", "extend", "without"]), posting_lists
    ),
    max_size=8,
)


class TestAgainstSortedSet:
    """Point mutations, sublists and derived values of one list, after
    every step of a random edit script, against ``sorted(set(tuples))``."""

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    @given(initial=posting_lists, script=operations, probes=posting_lists)
    def test_edit_script_matches_reference(self, backend, initial, script, probes):
        previous = kernels.use_backend(backend)
        try:
            plist = PostingList(initial)
            model = {tuple(p) for p in initial}
            for op, rows in script:
                if op == "remove":
                    for row in rows:
                        assert plist.remove(row) == (tuple(row) in model)
                        model.discard(tuple(row))
                elif op == "extend":
                    plist.extend(rows)
                    model.update(tuple(row) for row in rows)
                else:  # absent rows, and the two smallest present ones
                    keys = {tuple(row) for row in rows} | set(sorted(model)[:2])
                    plist = plist.without(keys)
                    model -= keys
                self._check(plist, sorted(model), probes)
        finally:
            kernels.use_backend(previous)

    def _check(self, plist, reference, probes):
        assert as_tuples(plist) == reference
        assert [tuple(p) for p in plist] == reference
        assert [tuple(plist[i]) for i in range(len(plist))] == reference
        assert as_tuples(plist[::3]) == reference[::3]
        assert as_tuples(PostingList(plist)) == reference
        assert PostingList.from_sorted(reference) == plist
        assert tuple(plist.first or ()) == (reference[0] if reference else ())
        assert tuple(plist.last or ()) == (reference[-1] if reference else ())
        mid = len(reference) // 2
        lower, upper = plist.split_at(mid)
        assert (as_tuples(lower), as_tuples(upper)) == (reference[:mid], reference[mid:])
        assert [as_tuples(c) for c in plist.chunks(3)] == [
            reference[i : i + 3] for i in range(0, len(reference), 3)
        ]
        assert plist.doc_ids() == sorted({row[:2] for row in reference})
        assert plist.max_end() == max((row[3] for row in reference), default=0)
        keys = sorted(tuple(p) for p in probes)
        assert list(plist.batch_bisect_right(keys)) == [
            bisect_right(reference, key) for key in keys
        ]
        for probe in probes:
            assert (probe in plist) == (tuple(probe) in reference)


class TestCodec:
    @given(posting_lists)
    def test_roundtrip_fuzz(self, postings):
        pl = PostingList(postings)
        data = encode_postings(pl)
        decoded, pos = decode_postings(data)
        assert pos == len(data)
        assert [tuple(p) for p in decoded.items()] == [tuple(p) for p in pl.items()]

    @given(posting_lists)
    def test_encoded_size_equals_len_of_encoding(self, postings):
        pl = PostingList(postings)
        assert encoded_size(pl) == len(encode_postings(pl))

    def test_encoded_size_empty(self):
        assert encoded_size(PostingList()) == len(encode_postings(PostingList())) == 1

    def test_encoded_size_peer_and_doc_delta_resets(self):
        # crossing a peer boundary resets the doc delta, crossing a doc
        # boundary resets the start delta; sizes must track the encoder
        # through both resets
        postings = [
            Posting(0, 0, 10, 20, 1),
            Posting(0, 0, 12, 14, 2),  # start delta
            Posting(0, 7, 3, 5, 1),    # doc crossed: start re-encoded absolute
            Posting(2, 1, 900, 1000, 3),  # peer crossed: doc re-encoded absolute
            Posting(2, 1, 901, 902, 4),
        ]
        pl = PostingList(postings)
        data = encode_postings(pl)
        assert encoded_size(pl) == len(data)
        decoded, _ = decode_postings(data)
        assert [tuple(p) for p in decoded.items()] == [tuple(p) for p in postings]

    def test_truncated_input_raises(self):
        data = encode_postings(PostingList([Posting(0, 0, 1, 2, 1)]))
        with pytest.raises(ValueError):
            decode_postings(data[:-1])

    def test_concatenated_streams_decode_by_offset(self):
        a = PostingList([Posting(0, 0, 1, 2, 1), Posting(0, 1, 4, 9, 2)])
        b = PostingList([Posting(1, 0, 3, 8, 1)])
        blob = encode_postings(a) + encode_postings(b)
        first, pos = decode_postings(blob)
        second, end = decode_postings(blob, pos)
        assert end == len(blob)
        assert [tuple(p) for p in first.items()] == [tuple(p) for p in a.items()]
        assert [tuple(p) for p in second.items()] == [tuple(p) for p in b.items()]
